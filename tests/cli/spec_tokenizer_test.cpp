// The spec parser's tokenizer and its lookups through the network's
// name and link indexes: separators, comments and line ends split words
// exactly as the format says, and mistakes that the indexes find keep
// their typed errors and line numbers.
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "whart/cli/spec_parser.hpp"

namespace whart::cli {
namespace {

/// The parse_error message of `text`, or "parsed" when it parses.  Any
/// other exception escapes and fails the test.
std::string outcome(std::string_view text) {
  try {
    (void)parse_spec_string(text);
    return "parsed";
  } catch (const parse_error& error) {
    return error.what();
  }
}

TEST(SpecTokenizer, HashEndsTheLineEvenInsideAToken) {
  const ParsedSpec spec = parse_spec_string(
      "node n1#n2\n"
      "link n1 G avail 0.9#5\n"
      "interval 3#\n");
  ASSERT_EQ(spec.network.node_count(), 2u);
  EXPECT_EQ(spec.network.node_name(net::NodeId{1}), "n1");
  EXPECT_EQ(spec.network.link(net::LinkId{0}).model,
            link::LinkModel::from_availability(0.9));
  EXPECT_EQ(spec.reporting_interval, 3u);
  // A '#' glued to the directive leaves it without arguments.
  EXPECT_EQ(outcome("node n1\nnode#n2\n"), "spec line 2: node <name>");
  EXPECT_EQ(outcome("node n1\nlink n1 G avail#0.9\n"),
            "spec line 2: link <a> <b> <form>...");
}

TEST(SpecTokenizer, SixSeparatorsSplitWords) {
  const ParsedSpec spec = parse_spec_string(
      "node\ta\n"
      "node\vb\n"
      "node\fc\r\n"
      "link a\t\v\f\r G avail 0.9\n"
      "link\rb\fa\vavail\t0.8\n"
      "link c b avail 0.7");
  ASSERT_EQ(spec.network.node_count(), 4u);
  EXPECT_EQ(spec.network.node_name(net::NodeId{1}), "a");
  EXPECT_EQ(spec.network.node_name(net::NodeId{2}), "b");
  EXPECT_EQ(spec.network.node_name(net::NodeId{3}), "c");
  ASSERT_EQ(spec.network.link_count(), 3u);
  EXPECT_EQ(spec.network.link_between(*spec.network.find_node("b"),
                                      *spec.network.find_node("a")),
            net::LinkId{1});
}

TEST(SpecTokenizer, OtherBytesBelongToWords) {
  // NUL, other control characters, '\xa0' and UTF-8 are name bytes.
  const std::string text = std::string("node a\0b\n", 9) +
                           "node c\x01\n"
                           "node d\xa0\n"
                           "node \xc3\xa9t\xc3\xa9\n"
                           "link " + std::string("a\0b", 3) +
                           " G avail 0.9\n"
                           "link c\x01 G avail 0.9\n"
                           "link d\xa0 G avail 0.9\n"
                           "link \xc3\xa9t\xc3\xa9 G avail 0.9\n";
  const ParsedSpec spec = parse_spec_string(text);
  ASSERT_EQ(spec.network.node_count(), 5u);
  EXPECT_EQ(spec.network.node_name(net::NodeId{1}), std::string("a\0b", 3));
  EXPECT_EQ(spec.network.find_node("c\x01"), net::NodeId{2});
  EXPECT_EQ(spec.network.find_node("d\xa0"), net::NodeId{3});
  EXPECT_EQ(spec.network.find_node("\xc3\xa9t\xc3\xa9"), net::NodeId{4});
  EXPECT_FALSE(spec.network.find_node("a").has_value());
}

TEST(SpecTokenizer, CrlfLineEndsKeepLineNumbers) {
  EXPECT_EQ(outcome("node a\r\nlink a G avail 0.9\r\nnode a\r\n"),
            "spec line 3: node 'a' is already declared");
  // A lone '\r' separates words but does not end the line.
  EXPECT_EQ(outcome("node a\rnode b\nlink a G avail 0.9\n"),
            "spec line 1: node <name>");
}

TEST(SpecTokenizer, BlankAndCommentOnlyLinesCount) {
  EXPECT_EQ(outcome("\n"
                    "# a comment\n"
                    "   \t \r\n"
                    "#\n"
                    "node a # trailing\n"
                    "\v\f\n"
                    "link a G avail 0.9\n"
                    "  # indented comment\n"
                    "bogus\n"),
            "spec line 9: unknown directive 'bogus'");
  EXPECT_EQ(outcome("# only comments\n\n   \n#"),
            "spec declares no field devices");
  EXPECT_EQ(outcome(""), "spec declares no field devices");
  // The last line needs no '\n', with or without a comment.
  EXPECT_EQ(outcome("node a\nlink a G avail 0.9 # end"), "parsed");
  EXPECT_EQ(outcome("node a\nlink a G avail 0.9\nnode a"),
            "spec line 3: node 'a' is already declared");
}

TEST(SpecTokenizer, DuplicatesAreTypedErrorsOnTheirLines) {
  EXPECT_EQ(outcome("node a\nnode b\n\nnode a\n"),
            "spec line 4: node 'a' is already declared");
  EXPECT_EQ(outcome("node G\n"), "spec line 1: 'G' is reserved");
  EXPECT_EQ(outcome("node a\nnode b\nlink a b avail 0.9\nlink a G avail .9\n"
                    "link b a avail 0.8\n"),
            "spec line 5: 'b' and 'a' are already linked");
  EXPECT_EQ(outcome("node a\nlink a G avail 0.9\nlink G a avail 0.9\n"),
            "spec line 3: 'G' and 'a' are already linked");
  EXPECT_EQ(outcome("node a\nlink a a avail 0.9\n"),
            "spec line 2: a link must join two different nodes");
  EXPECT_EQ(outcome("node a\nlink a b avail 0.9\n"),
            "spec line 2: unknown node 'b'");
  EXPECT_EQ(outcome("node a\nlink a G avail 0.9\npath a G\npath a G\n"),
            "spec line 4: device 'a' already has a path on line 3");
}

TEST(SpecTokenizer, LookupsSurviveIndexGrowth) {
  // 3,000 devices in a binary tree under d1, declared after a comment and
  // before their links and pinned paths, which name nodes declared far
  // apart.
  std::string text = "# tree\n";
  for (int i = 1; i <= 3000; ++i) text += "node d" + std::to_string(i) + "\n";
  text += "link d1 G avail 0.9\n";
  for (int i = 2; i <= 3000; ++i)
    text += "link d" + std::to_string(i) + " d" + std::to_string(i / 2) +
            " avail 0.9\n";
  text += "path d2999 d1499 d749 d374 d187 d93 d46 d23 d11 d5 d2 d1 G\n";
  EXPECT_EQ(outcome(text + "path d3000 d1500 d750\n"),
            "spec line 6003: a path must end at the gateway 'G'");
  EXPECT_EQ(outcome(text + "path d3000 d1499 d749 G\n"),
            "spec line 6003: no link between 'd3000' and 'd1499'");
  const ParsedSpec spec = parse_spec_string(text);
  EXPECT_EQ(spec.network.node_count(), 3001u);
  EXPECT_EQ(spec.network.link_count(), 3000u);
  ASSERT_EQ(spec.paths.size(), 3000u);
  EXPECT_EQ(spec.paths[0].hop_count(), 12u);
  EXPECT_EQ(spec.paths[0].to_string(spec.network),
            "d2999 -> d1499 -> d749 -> d374 -> d187 -> d93 -> d46 -> d23 "
            "-> d11 -> d5 -> d2 -> d1 -> G");
  EXPECT_EQ(spec.paths.back().to_string(spec.network),
            "d3000 -> d1500 -> d750 -> d375 -> d187 -> d93 -> d46 -> d23 "
            "-> d11 -> d5 -> d2 -> d1 -> G");
}

}  // namespace
}  // namespace whart::cli
