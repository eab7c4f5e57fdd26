// Seeded mutational fuzzing of the spec parser: byte flips, dropped and
// duplicated lines, swapped tokens and tokens replaced by the values the
// parser checks, applied to real specs.  Every mutant must parse or be
// refused with a parse_error; a contract violation, any other exception
// or a crash is a parser bug.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "whart/cli/spec_parser.hpp"
#include "whart/net/typical_network.hpp"

namespace whart::cli {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// The paper's Section VI network (Fig. 12) as spec text, link values
/// with 17 significant digits and one `path` directive per path.
std::string section6_spec() {
  const net::TypicalNetwork t = net::make_typical_network();
  std::string text = "superframe " +
                     std::to_string(t.superframe.uplink_slots) + " " +
                     std::to_string(t.superframe.downlink_slots) +
                     "\ninterval 4\nschedule shortest\n";
  for (std::uint32_t id = 1; id < t.network.node_count(); ++id)
    text += "node " + t.network.node_name(net::NodeId{id}) + "\n";
  char value[32];
  for (const net::LinkId id : t.network.links()) {
    const net::Link& link = t.network.link(id);
    text += "link " + t.network.node_name(link.a) + " " +
            t.network.node_name(link.b) + " pfl ";
    std::snprintf(value, sizeof value, "%.17g",
                  link.model.failure_probability());
    text += value;
    std::snprintf(value, sizeof value, "%.17g",
                  link.model.recovery_probability());
    text += std::string(" prc ") + value + "\n";
  }
  for (const net::Path& path : t.paths) {
    text += "path";
    for (const net::NodeId node : path.nodes())
      text += " " + t.network.node_name(node);
    text += "\n";
  }
  return text;
}

/// One mutation operator after another, drawn from a seeded engine.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : engine_(seed) {}

  std::string mutant(const std::string& seed_text) {
    std::string text = seed_text;
    const std::uint64_t rounds = 1 + below(4);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      switch (below(5)) {
        case 0: flip_byte(text); break;
        case 1: drop_line(text); break;
        case 2: duplicate_line(text); break;
        case 3: swap_tokens(text); break;
        case 4: replace_token(text); break;
      }
    }
    return text;
  }

 private:
  /// A draw from [0, n), n > 0: a modulo of the engine's output, so the
  /// mutants are the same on every standard library.
  std::uint64_t below(std::uint64_t n) { return engine_() % n; }

  void flip_byte(std::string& text) {
    if (text.empty()) return;
    char& c = text[below(text.size())];
    // Half the flips pick a byte the format gives meaning to.
    static constexpr std::string_view kSpecial = " \t\n\r\v\f#.-+e0G";
    c = below(2) == 0 ? kSpecial[below(kSpecial.size())]
                      : static_cast<char>(below(256));
  }

  /// [begin, end) of every line, '\n' included.
  static std::vector<std::pair<std::size_t, std::size_t>> lines(
      const std::string& text) {
    std::vector<std::pair<std::size_t, std::size_t>> result;
    for (std::size_t begin = 0; begin < text.size();) {
      const std::size_t newline = text.find('\n', begin);
      const std::size_t end =
          newline == std::string::npos ? text.size() : newline + 1;
      result.emplace_back(begin, end);
      begin = end;
    }
    return result;
  }

  void drop_line(std::string& text) {
    const auto all = lines(text);
    if (all.empty()) return;
    const auto [begin, end] = all[below(all.size())];
    text.erase(begin, end - begin);
  }

  void duplicate_line(std::string& text) {
    const auto all = lines(text);
    if (all.empty()) return;
    const auto [begin, end] = all[below(all.size())];
    std::string line = text.substr(begin, end - begin);
    if (line.back() != '\n') line += '\n';
    text.insert(all[below(all.size())].first, line);
  }

  /// [begin, end) of every whitespace-separated token.
  static std::vector<std::pair<std::size_t, std::size_t>> tokens(
      const std::string& text) {
    std::vector<std::pair<std::size_t, std::size_t>> result;
    constexpr std::string_view kSpace = " \t\n\r\v\f";
    for (std::size_t i = 0; i < text.size();) {
      const std::size_t begin = text.find_first_not_of(kSpace, i);
      if (begin == std::string::npos) break;
      std::size_t end = text.find_first_of(kSpace, begin);
      if (end == std::string::npos) end = text.size();
      result.emplace_back(begin, end);
      i = end;
    }
    return result;
  }

  void swap_tokens(std::string& text) {
    const auto all = tokens(text);
    if (all.size() < 2) return;
    auto first = all[below(all.size())];
    auto second = all[below(all.size())];
    if (first.first > second.first) std::swap(first, second);
    if (first.first == second.first) return;
    const std::string a = text.substr(first.first, first.second - first.first);
    const std::string b =
        text.substr(second.first, second.second - second.first);
    // The later token first, so the earlier offsets stay valid.
    text.replace(second.first, b.size(), a);
    text.replace(first.first, a.size(), b);
  }

  /// A token replaced by one of the values and words the parser's
  /// checks are about.
  void replace_token(std::string& text) {
    const auto all = tokens(text);
    if (all.empty()) return;
    static const std::vector<std::string> kWords = {
        "0",     "1",     "-1",     "1e-310", "1e400", "nan",   "inf",
        "-inf",  "0x1p-3", "+0.5",  "4294967295", "4294967296",
        "99999999999", "1.5", "G",  "node",   "link",  "path",
        "avail", "pfl",   "prc",    "ber",    "snr",   "superframe",
        "interval", "schedule", "longest", "#"};
    const auto [begin, end] = all[below(all.size())];
    text.replace(begin, end - begin, kWords[below(kWords.size())]);
  }

  std::mt19937_64 engine_;
};

/// Parses `mutants` mutants of `seed_text`; returns how many parsed.
/// A mutant that escapes with anything but a parse_error fails the test;
/// the first few are reported with their text.
int fuzz(const std::string& seed_text, std::uint64_t seed, int mutants) {
  constexpr int kReported = 3;
  Mutator mutator(seed);
  int parsed = 0;
  int escaped = 0;
  for (int i = 0; i < mutants; ++i) {
    const std::string text = mutator.mutant(seed_text);
    try {
      (void)parse_spec_string(text);
      ++parsed;
    } catch (const parse_error&) {
    } catch (const std::exception& error) {
      if (++escaped <= kReported)
        ADD_FAILURE() << "mutant " << i << " of seed " << seed
                      << " escaped with: " << error.what()
                      << "\n--- text ---\n"
                      << text;
    }
  }
  EXPECT_EQ(escaped, 0) << "mutants that escaped without a parse_error";
  return parsed;
}

TEST(SpecParserFuzz, PlantSpecMutantsParseOrRaiseParseError) {
  const std::string spec =
      read_file(WHART_SOURCE_DIR "/examples/specs/plant.spec");
  ASSERT_FALSE(spec.empty());
  (void)parse_spec_string(spec);
  const int parsed = fuzz(spec, 0x5eed0001, 4000);
  // Both outcomes occur, so the mutants are neither all fatal nor inert.
  EXPECT_GT(parsed, 100);
  EXPECT_LT(parsed, 3900);
}

TEST(SpecParserFuzz, SectionSixSpecMutantsParseOrRaiseParseError) {
  const std::string spec = section6_spec();
  (void)parse_spec_string(spec);
  const int parsed = fuzz(spec, 0x5eed0002, 4000);
  EXPECT_GT(parsed, 100);
  EXPECT_LT(parsed, 3900);
}

}  // namespace
}  // namespace whart::cli
