#include "whart/cli/spec_parser.hpp"

#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "whart/net/plant_generator.hpp"
#include "whart/net/routing.hpp"
#include "whart/phy/snr.hpp"

namespace whart::cli {
namespace {

constexpr const char* kBasicSpec = R"(
# a two-device network
superframe 5 5
interval 2
node n1
node n2
link n1 G avail 0.9
link n2 n1 avail 0.85
)";

TEST(SpecParser, ParsesBasicSpec) {
  const ParsedSpec spec = parse_spec_string(kBasicSpec);
  EXPECT_EQ(spec.network.node_count(), 3u);
  EXPECT_EQ(spec.network.link_count(), 2u);
  EXPECT_EQ(spec.superframe.uplink_slots, 5u);
  EXPECT_EQ(spec.superframe.downlink_slots, 5u);
  EXPECT_EQ(spec.reporting_interval, 2u);
  // Paths derived by routing: n1 -> G and n2 -> n1 -> G.
  ASSERT_EQ(spec.paths.size(), 2u);
  EXPECT_EQ(spec.paths[0].hop_count(), 1u);
  EXPECT_EQ(spec.paths[1].hop_count(), 2u);
}

TEST(SpecParser, DefaultsApplied) {
  const ParsedSpec spec = parse_spec_string(
      "node n1\nlink n1 G avail 0.9\n");
  EXPECT_EQ(spec.reporting_interval, 4u);
  EXPECT_EQ(spec.superframe.uplink_slots, 1u);  // fitted to 1 total hop
  EXPECT_EQ(spec.policy, net::SchedulingPolicy::kShortestPathsFirst);
}

TEST(SpecParser, ExplicitPathPinsItsSourceOthersAreRouted) {
  const ParsedSpec spec = parse_spec_string(R"(
node a
node b
link a G avail 0.9
link b a avail 0.9
link b G avail 0.9
path b a G
)");
  // b is pinned to the 2-hop route even though b -- G exists; a still
  // gets its routed 1-hop path.
  ASSERT_EQ(spec.paths.size(), 2u);
  EXPECT_EQ(spec.paths[0].hop_count(), 2u);
  EXPECT_EQ(spec.paths[0].source(), *spec.network.find_node("b"));
  EXPECT_EQ(spec.paths[1].hop_count(), 1u);
  EXPECT_EQ(spec.paths[1].source(), *spec.network.find_node("a"));
}

TEST(SpecParser, DisconnectedDeviceFails) {
  EXPECT_THROW(parse_spec_string("node a\nnode island\nlink a G avail .9\n"),
               parse_error);
}

TEST(SpecParser, AllLinkForms) {
  const ParsedSpec spec = parse_spec_string(R"(
node a
node b
node c
node d
link a G avail 0.9
link b G pfl 0.1 prc 0.95
link c G ber 1e-4
link d G snr 7.0
)");
  EXPECT_EQ(spec.network.link_count(), 4u);
  const auto b_link = spec.network.link_between(
      *spec.network.find_node("b"), net::kGateway);
  EXPECT_NEAR(spec.network.link(*b_link).model.failure_probability(), 0.1,
              1e-12);
  const auto c_link = spec.network.link_between(
      *spec.network.find_node("c"), net::kGateway);
  EXPECT_NEAR(spec.network.link(*c_link).model.failure_probability(),
              0.0966, 5e-5);
  const auto d_link = spec.network.link_between(
      *spec.network.find_node("d"), net::kGateway);
  EXPECT_NEAR(spec.network.link(*d_link).model.failure_probability(), 0.089,
              1e-3);
}

TEST(SpecParser, SchedulePolicies) {
  EXPECT_EQ(parse_spec_string("schedule longest\nnode a\nlink a G avail .9\n")
                .policy,
            net::SchedulingPolicy::kLongestPathsFirst);
  EXPECT_EQ(parse_spec_string("schedule shortest\nnode a\nlink a G avail .9\n")
                .policy,
            net::SchedulingPolicy::kShortestPathsFirst);
}

TEST(SpecParser, CommentsAndBlankLinesIgnored) {
  const ParsedSpec spec = parse_spec_string(
      "# full comment\n\nnode n1 # trailing comment\nlink n1 G avail 0.9\n");
  EXPECT_EQ(spec.network.node_count(), 2u);
}

TEST(SpecParser, ErrorsCarryLineNumbers) {
  try {
    parse_spec_string("node n1\nbogus directive\n");
    FAIL() << "expected parse_error";
  } catch (const parse_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(SpecParser, RejectsBadInput) {
  EXPECT_THROW(parse_spec_string(""), parse_error);
  EXPECT_THROW(parse_spec_string("node G\n"), parse_error);
  EXPECT_THROW(parse_spec_string("node a\nlink a X avail 0.9\n"),
               parse_error);
  EXPECT_THROW(parse_spec_string("node a\nlink a G avail nope\n"),
               parse_error);
  EXPECT_THROW(parse_spec_string("interval 0\nnode a\nlink a G avail .9\n"),
               parse_error);
  EXPECT_THROW(parse_spec_string("superframe 0 5\nnode a\n"), parse_error);
  EXPECT_THROW(parse_spec_string("node a\nlink a G weird 1\n"), parse_error);
  EXPECT_THROW(parse_spec_string("schedule sideways\nnode a\n"), parse_error);
  EXPECT_THROW(parse_spec_string("interval 2.5\nnode a\n"), parse_error);
}

TEST(SpecParser, HorizonThatWraps32BitsIsRefusedInEitherOrder) {
  // 100000 x 100000 uplink slots would wrap to 1,410,065,408.
  const std::string devices = "node a\nlink a G avail .9\n";
  const std::string superframe = "superframe 100000 100000\n";
  const std::string interval = "interval 100000\n";
  EXPECT_THROW(parse_spec_string(superframe + interval + devices),
               parse_error);
  EXPECT_THROW(parse_spec_string(interval + superframe + devices),
               parse_error);
  // 65536 x 65536 = 2^32 is one past the limit; 65535 x 65536 fits.
  EXPECT_THROW(
      parse_spec_string("superframe 65536 1\ninterval 65536\n" + devices),
      parse_error);
  const ParsedSpec fits =
      parse_spec_string("superframe 65536 1\ninterval 65535\n" + devices);
  EXPECT_EQ(fits.reporting_interval, 65535u);
}

TEST(SpecParser, SuperframeThatWraps32BitsIsRefused) {
  // cycle_slots() (Fup + Fdown) and cycle_milliseconds() are 32-bit.
  const std::string devices = "node a\nlink a G avail .9\n";
  EXPECT_THROW(parse_spec_string("superframe 3000000000 3000000000\n"
                                 "interval 1\n" + devices),
               parse_error);
  EXPECT_THROW(parse_spec_string("superframe 1 4294967295\n" + devices),
               parse_error);
  EXPECT_THROW(parse_spec_string("superframe 4294967295 1\ninterval 1\n" +
                                 devices),
               parse_error);
  // 429,496,729 slots of 10 ms fit in 32 bits of milliseconds; one more
  // slot does not.
  EXPECT_THROW(parse_spec_string("superframe 1 429496729\n" + devices),
               parse_error);
  const ParsedSpec fits =
      parse_spec_string("superframe 1 429496728\n" + devices);
  EXPECT_EQ(fits.superframe.cycle_milliseconds(), 4294967290u);
}

TEST(SpecParser, PathWithUnknownNodeFails) {
  EXPECT_THROW(parse_spec_string("node a\nlink a G avail .9\npath a b G\n"),
               parse_error);
}

/// `text` must be refused with a parse_error naming line `line`.
void expect_refused_on_line(const std::string& text, std::size_t line) {
  try {
    parse_spec_string(text);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const parse_error& e) {
    EXPECT_NE(std::string(e.what()).find("spec line " +
                                         std::to_string(line) + ":"),
              std::string::npos)
        << e.what();
  }
}

constexpr const char* kTwoDevices =
    "node a\nnode b\nlink a G avail .9\nlink b G avail .9\n";

TEST(SpecParser, RefusesMalformedPaths) {
  const std::string chain = std::string(kTwoDevices) + "link a b avail .9\n";
  expect_refused_on_line(chain + "path a b\n", 6);           // no gateway
  expect_refused_on_line(chain + "path G a\n", 6);           // starts at G
  expect_refused_on_line(chain + "path a b a G\n", 6);       // visits a twice
  expect_refused_on_line(chain + "path a G b G\n", 6);       // visits G twice
  expect_refused_on_line(chain + "path a G\npath a G\n", 7);  // same source
  expect_refused_on_line(chain + "path a G\npath a b G\n", 7);
  // No a -- b link: refused by the parser, not by a contract.
  expect_refused_on_line(std::string(kTwoDevices) + "path a b G\n", 5);
}

TEST(SpecParser, PathMayPrecedeTheLinksItUses) {
  const ParsedSpec spec = parse_spec_string(
      "node a\nnode b\npath a b G\nlink a b avail .9\nlink b G avail .9\n");
  ASSERT_EQ(spec.paths.size(), 2u);
  EXPECT_EQ(spec.paths[0].hop_count(), 2u);
}

TEST(SpecParser, RefusesNetworkMistakesWithTypedErrors) {
  expect_refused_on_line("node a\nnode a\n", 2);
  expect_refused_on_line("node a\nlink a G avail .9\nlink a G avail .8\n", 3);
  expect_refused_on_line("node a\nlink a G avail .9\nlink G a avail .8\n", 3);
  expect_refused_on_line("node a\nlink a a avail .9\n", 2);
  expect_refused_on_line("node a\nlink a G avail 1.5\n", 2);
}

TEST(SpecParser, RefusesLinkValuesOutsideTheirModelsRange) {
  for (const char* form :
       {"avail 0", "avail -0.5", "avail nan", "avail 0.3", "pfl 1.5 prc 0.9",
        "pfl 0.1 prc -0.1", "pfl 0 prc 0", "pfl nan prc 0.9", "ber 2",
        "ber -1e-3", "snr -1", "snr nan"})
    expect_refused_on_line(std::string("node a\nlink a G ") + form + "\n", 2);
  // The edges of each range are accepted.
  EXPECT_NO_THROW(parse_spec_string(
      "node a\nnode b\nnode c\nnode d\nlink a G avail 1\n"
      "link b G pfl 1 prc 0\nlink c G ber 0\nlink d G snr 0\n"));
}

TEST(SpecParser, NumbersFollowStodRules) {
  // Each token is read as the pfl of a link, so the parsed double is
  // visible bitwise.
  for (const char* token : {".9", "+0.5", "1e-3", "0x1p-3", "0.25", "1"}) {
    const ParsedSpec spec = parse_spec_string(
        std::string("node a\nlink a G pfl ") + token + " prc 0.9\n");
    EXPECT_EQ(spec.network.link(net::LinkId{0}).model.failure_probability(),
              std::stod(token))
        << token;
  }
  // 5. exceeds every probability; an Eb/N0 and a slot count may.
  EXPECT_EQ(parse_spec_string("node a\nlink a G snr 5.\n")
                .network.link(net::LinkId{0})
                .model,
            link::LinkModel::from_snr(phy::EbN0::from_linear(std::stod("5."))));
  EXPECT_EQ(parse_spec_string("superframe 5. 5\nnode a\nlink a G avail .9\n")
                .superframe.uplink_slots,
            5u);
  // Malformed tokens, and a subnormal std::stod refuses, stay errors.
  for (const char* token : {"0.9e", "0,9", "nope", "1e-310", "0.9.1"})
    expect_refused_on_line(
        std::string("node a\nlink a G pfl ") + token + " prc 0.9\n", 2);
}

TEST(SpecParser, CrlfTabsAndMidLineCommentsAreWhitespace) {
  const ParsedSpec spec = parse_spec_string(
      "superframe\t5 5\r\n"
      "node a # the first device\r\n"
      "\tnode\tb\r\n"
      "link a G avail 0.9\t# pfl 0.1\r\n"
      "link b a pfl 0.25 prc 0.5#trailing\r\n"
      "path b a G\r\n");
  EXPECT_EQ(spec.superframe.uplink_slots, 5u);
  ASSERT_EQ(spec.network.node_count(), 3u);
  EXPECT_EQ(spec.network.node_name(net::NodeId{2}), "b");
  ASSERT_EQ(spec.network.link_count(), 2u);
  EXPECT_EQ(spec.network.link(net::LinkId{1}).model.recovery_probability(),
            0.5);
  ASSERT_EQ(spec.paths.size(), 2u);
  EXPECT_EQ(spec.paths[0].hop_count(), 2u);
}

TEST(SpecParser, StreamAndStringAgree) {
  std::istringstream in(kBasicSpec);
  const ParsedSpec from_stream = parse_spec(in);
  const ParsedSpec from_string = parse_spec_string(kBasicSpec);
  EXPECT_EQ(from_stream.paths, from_string.paths);
  EXPECT_EQ(from_stream.superframe, from_string.superframe);
  EXPECT_EQ(from_stream.network.link_count(),
            from_string.network.link_count());
}

/// `value` with 17 significant digits, which round-trips every double.
std::string exact(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// A generated plant as spec text, link values with 17 significant
/// digits; `pin_paths` adds one `path` directive per device.
std::string render(const net::GeneratedPlant& plant, bool pin_paths) {
  const net::Network& network = plant.network;
  std::string text = "superframe " +
                     std::to_string(plant.superframe.uplink_slots) + " " +
                     std::to_string(plant.superframe.downlink_slots) +
                     "\ninterval 4\n";
  for (std::uint32_t id = 1; id < network.node_count(); ++id)
    text += "node " + network.node_name(net::NodeId{id}) + "\n";
  for (const net::LinkId id : network.links()) {
    const net::Link& link = network.link(id);
    text += "link " + network.node_name(link.a) + " " +
            network.node_name(link.b) + " pfl " +
            exact(link.model.failure_probability()) + " prc " +
            exact(link.model.recovery_probability()) + "\n";
  }
  if (pin_paths)
    for (const net::Path& path : plant.paths) {
      text += "path";
      for (const net::NodeId node : path.nodes())
        text += " " + network.node_name(node);
      text += "\n";
    }
  return text;
}

net::GeneratedPlant plant_of_200(std::uint64_t seed) {
  net::PlantProfile profile;
  profile.device_count = 200;
  profile.seed = seed;
  return net::generate_plant(profile);
}

TEST(SpecParser, GeneratedPlantRoundTripsBitwise) {
  const net::GeneratedPlant plant = plant_of_200(11);
  const net::Network& network = plant.network;
  const std::string text = render(plant, true);

  const ParsedSpec spec = parse_spec_string(text);
  ASSERT_EQ(spec.network.node_count(), network.node_count());
  for (std::uint32_t id = 0; id < network.node_count(); ++id) {
    const std::string& name = network.node_name(net::NodeId{id});
    EXPECT_EQ(spec.network.node_name(net::NodeId{id}), name);
    EXPECT_EQ(spec.network.find_node(name), net::NodeId{id});
  }
  ASSERT_EQ(spec.network.link_count(), network.link_count());
  for (const net::LinkId id : network.links()) {
    const net::Link& want = network.link(id);
    const net::Link& got = spec.network.link(id);
    EXPECT_EQ(got.a, want.a);
    EXPECT_EQ(got.b, want.b);
    EXPECT_EQ(got.model.failure_probability(),
              want.model.failure_probability());
    EXPECT_EQ(got.model.recovery_probability(),
              want.model.recovery_probability());
    EXPECT_EQ(spec.network.link_between(want.b, want.a), id);
  }
  EXPECT_EQ(spec.paths, plant.paths);
  EXPECT_EQ(spec.superframe, plant.superframe);
}

TEST(SpecParser, UnpinnedDevicesTakeTheirShortestUplinkPath) {
  // Devices without a `path` directive are routed off one routing table;
  // each route must be the one shortest_uplink_path gives that device.
  const ParsedSpec spec = parse_spec_string(render(plant_of_200(13), false));
  ASSERT_EQ(spec.paths.size(), 200u);
  for (std::uint32_t id = 1; id <= 200; ++id)
    EXPECT_EQ(spec.paths[id - 1],
              *net::shortest_uplink_path(spec.network, net::NodeId{id}))
        << "device " << id;
}

}  // namespace
}  // namespace whart::cli
