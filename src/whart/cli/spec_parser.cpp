#include "whart/cli/spec_parser.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <istream>
#include <iterator>
#include <limits>
#include <system_error>

#include "whart/net/routing.hpp"
#include "whart/phy/frame.hpp"
#include "whart/phy/snr.hpp"

namespace whart::cli {

namespace {

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw parse_error("spec line " + std::to_string(line) + ": " + message);
}

/// What a byte does to the tokenizer.
enum class CharClass : unsigned char { kWord, kSpace, kNewline, kComment };

/// Per byte: '\n' ends a line, '#' ends it early, and the other five
/// characters `std::istream >> std::string` splits words on in the
/// classic locale separate words.
constexpr std::array<CharClass, 256> kCharClass = [] {
  std::array<CharClass, 256> table{};
  for (const char c : {' ', '\t', '\v', '\f', '\r'})
    table[static_cast<unsigned char>(c)] = CharClass::kSpace;
  table[static_cast<unsigned char>('\n')] = CharClass::kNewline;
  table[static_cast<unsigned char>('#')] = CharClass::kComment;
  return table;
}();

CharClass char_class(char c) noexcept {
  return kCharClass[static_cast<unsigned char>(c)];
}

/// Split the line starting at `begin` into its words, dropping everything
/// from '#' on; returns the offset just past the line's '\n' (or past the
/// end of the text).
std::size_t tokenize_line(std::string_view text, std::size_t begin,
                          std::vector<std::string_view>& words) {
  words.clear();
  std::size_t i = begin;
  while (i < text.size()) {
    switch (char_class(text[i])) {
      case CharClass::kSpace:
        ++i;
        break;
      case CharClass::kNewline:
        return i + 1;
      case CharClass::kComment:
        return std::min(text.find('\n', i), text.size()) + 1;
      case CharClass::kWord: {
        const std::size_t start = i;
        while (i < text.size() && char_class(text[i]) == CharClass::kWord)
          ++i;
        words.push_back(text.substr(start, i - start));
        break;
      }
    }
  }
  return i + 1;
}

/// Upper bounds on the `node`, `link` and `path` lines of `text`: the
/// lines whose first word starts with the directive, so one reserve
/// covers the parse.
struct DirectiveCounts {
  std::size_t nodes = 0;
  std::size_t links = 0;
  std::size_t paths = 0;
};

DirectiveCounts count_directives(std::string_view text) {
  DirectiveCounts counts;
  for (std::size_t begin = 0; begin < text.size();) {
    while (begin < text.size() &&
           char_class(text[begin]) == CharClass::kSpace)
      ++begin;
    const std::string_view head = text.substr(begin, 4);
    counts.nodes += head == "node";
    counts.links += head == "link";
    counts.paths += head == "path";
    const std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) break;
    begin = end + 1;
  }
  return counts;
}

/// A whole-token number under std::stod's rules.
double parse_double_stod(std::string_view token, std::size_t line) {
  const std::string text(token);
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size()) fail(line, "trailing characters in number");
    return value;
  } catch (const parse_error&) {
    throw;
  } catch (const std::exception&) {
    fail(line, "expected a number, got '" + text + "'");
  }
}

/// A whole-token number.  std::from_chars reads the common forms;
/// whatever it rejects or reads as a subnormal (a leading '+', hex
/// floats, 1e-310) goes to std::stod, so the accepted tokens and their
/// values are exactly std::stod's.
double parse_double(std::string_view token, std::size_t line) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (error == std::errc() && stop == end &&
      std::fpclassify(value) != FP_SUBNORMAL)
    return value;
  return parse_double_stod(token, line);
}

std::uint32_t parse_u32(std::string_view token, std::size_t line) {
  const double value = parse_double(token, line);
  if (!(value >= 0.0) || value > static_cast<double>(kMaxU32) ||
      value != std::floor(value))
    fail(line, "expected a non-negative integer, got '" +
                   std::string(token) + "'");
  return static_cast<std::uint32_t>(value);
}

net::NodeId node_or_fail(const net::Network& network, std::string_view name,
                         std::size_t line) {
  const auto id = network.find_node(name);
  if (!id) fail(line, "unknown node '" + std::string(name) + "'");
  return *id;
}

/// A probability: within [0, 1], which NaN is not.
double probability(const char* what, std::string_view token,
                   std::size_t line) {
  const double value = parse_double(token, line);
  if (!(value >= 0.0 && value <= 1.0))
    fail(line, std::string(what) + " must lie in [0, 1], got '" +
                   std::string(token) + "'");
  return value;
}

/// The model of a `link a b <form>...` line, each value checked against
/// the range its LinkModel constructor requires.
link::LinkModel link_model(const std::vector<std::string_view>& words,
                           std::size_t line) {
  const std::string_view form = words[3];
  if (form == "avail" && words.size() == 5) {
    const double availability = parse_double(words[4], line);
    if (!(availability > 0.0 && availability <= 1.0))
      fail(line, "availability must lie in (0, 1], got '" +
                     std::string(words[4]) + "'");
    // from_availability derives pfl = prc (1 - pi) / pi at the default
    // recovery probability; it must be a probability.
    const double prc = link::LinkModel::kDefaultRecovery;
    if (!(prc * (1.0 - availability) / availability <= 1.0))
      fail(line, "availability '" + std::string(words[4]) +
                     "' is too low for recovery probability " +
                     std::to_string(prc));
    return link::LinkModel::from_availability(availability);
  }
  if (form == "pfl" && words.size() == 7 && words[5] == "prc") {
    const double pfl = probability("pfl", words[4], line);
    const double prc = probability("prc", words[6], line);
    if (!(pfl + prc > 0.0))
      fail(line, "pfl + prc must be positive (the link never changes state)");
    return link::LinkModel(pfl, prc);
  }
  if (form == "ber" && words.size() == 5)
    return link::LinkModel::from_ber(probability("ber", words[4], line));
  if (form == "snr" && words.size() == 5) {
    const double ebn0 = parse_double(words[4], line);
    if (!(ebn0 >= 0.0))
      fail(line, "snr (linear Eb/N0) must be non-negative, got '" +
                     std::string(words[4]) + "'");
    return link::LinkModel::from_snr(phy::EbN0::from_linear(ebn0));
  }
  fail(line, "bad link form; see header comment");
}

}  // namespace

ParsedSpec parse_spec(std::istream& in) {
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  return parse_spec_string(text);
}

ParsedSpec parse_spec_string(std::string_view text) {
  ParsedSpec spec;
  bool superframe_given = false;
  std::vector<std::string_view> words;
  // Per node id, the line of the `path` directive pinning it (0: routed);
  // per pinned path, its line.
  std::vector<std::size_t> pinned_on_line;
  std::vector<std::size_t> path_lines;
  std::size_t line_number = 0;

  // Every device ends up with one path, pinned or routed.
  const DirectiveCounts counts = count_directives(text);
  spec.network.reserve(counts.nodes + 1, counts.links);
  spec.paths.reserve(counts.nodes);
  pinned_on_line.reserve(counts.nodes + 1);
  path_lines.reserve(counts.paths);

  for (std::size_t begin = 0; begin < text.size();) {
    ++line_number;
    begin = tokenize_line(text, begin, words);
    if (words.empty()) continue;

    const std::string_view directive = words[0];
    if (directive == "superframe") {
      if (words.size() != 3) fail(line_number, "superframe <Fup> <Fdown>");
      spec.superframe.uplink_slots = parse_u32(words[1], line_number);
      spec.superframe.downlink_slots = parse_u32(words[2], line_number);
      if (spec.superframe.uplink_slots == 0)
        fail(line_number, "Fup must be positive");
      // cycle_slots() and cycle_milliseconds() are 32-bit.
      const std::uint64_t cycle = std::uint64_t{spec.superframe.uplink_slots} +
                                  spec.superframe.downlink_slots;
      if (cycle > kMaxU32)
        fail(line_number, "Fup + Fdown = " + std::to_string(cycle) +
                              " slots does not fit in 32 bits");
      if (cycle * phy::kSlotMilliseconds > kMaxU32)
        fail(line_number, "a cycle of " +
                              std::to_string(cycle * phy::kSlotMilliseconds) +
                              " ms does not fit in 32 bits");
      superframe_given = true;
    } else if (directive == "interval") {
      if (words.size() != 2) fail(line_number, "interval <Is>");
      spec.reporting_interval = parse_u32(words[1], line_number);
      if (spec.reporting_interval == 0)
        fail(line_number, "Is must be positive");
    } else if (directive == "schedule") {
      if (words.size() != 2) fail(line_number, "schedule shortest|longest");
      if (words[1] == "shortest")
        spec.policy = net::SchedulingPolicy::kShortestPathsFirst;
      else if (words[1] == "longest")
        spec.policy = net::SchedulingPolicy::kLongestPathsFirst;
      else
        fail(line_number, "unknown policy '" + std::string(words[1]) + "'");
    } else if (directive == "node") {
      if (words.size() != 2) fail(line_number, "node <name>");
      if (words[1] == "G") fail(line_number, "'G' is reserved");
      if (spec.network.find_node(words[1]).has_value())
        fail(line_number,
             "node '" + std::string(words[1]) + "' is already declared");
      spec.network.add_node(std::string(words[1]));
    } else if (directive == "link") {
      if (words.size() < 5) fail(line_number, "link <a> <b> <form>...");
      const net::NodeId a = node_or_fail(spec.network, words[1], line_number);
      const net::NodeId b = node_or_fail(spec.network, words[2], line_number);
      if (a == b) fail(line_number, "a link must join two different nodes");
      if (spec.network.link_between(a, b).has_value())
        fail(line_number, "'" + std::string(words[1]) + "' and '" +
                              std::string(words[2]) + "' are already linked");
      spec.network.add_link(a, b, link_model(words, line_number));
    } else if (directive == "path") {
      if (words.size() < 3) fail(line_number, "path <src> <relay>... G");
      std::vector<net::NodeId> nodes;
      nodes.reserve(words.size() - 1);
      for (std::size_t i = 1; i < words.size(); ++i) {
        nodes.push_back(node_or_fail(spec.network, words[i], line_number));
        for (std::size_t j = 0; j + 1 < nodes.size(); ++j)
          if (nodes[j] == nodes.back())
            fail(line_number, "path visits '" + std::string(words[i]) +
                                  "' twice");
      }
      const net::NodeId source = nodes.front();
      if (source == net::kGateway)
        fail(line_number, "a path must start at a field device, not at 'G'");
      if (nodes.back() != net::kGateway)
        fail(line_number, "a path must end at the gateway 'G'");
      pinned_on_line.resize(spec.network.node_count(), 0);
      if (pinned_on_line[source.value] != 0)
        fail(line_number, "device '" + std::string(words[1]) +
                              "' already has a path on line " +
                              std::to_string(pinned_on_line[source.value]));
      pinned_on_line[source.value] = line_number;
      spec.paths.emplace_back(std::move(nodes));
      path_lines.push_back(line_number);
    } else {
      fail(line_number, "unknown directive '" + std::string(directive) + "'");
    }
  }

  if (spec.network.node_count() < 2)
    throw parse_error("spec declares no field devices");
  // A path may precede the links it uses, so its hops are checked here.
  for (std::size_t p = 0; p < spec.paths.size(); ++p)
    for (std::size_t h = 0; h < spec.paths[p].hop_count(); ++h) {
      const auto [from, to] = spec.paths[p].hop(h);
      if (!spec.network.link_between(from, to).has_value())
        fail(path_lines[p], "no link between '" +
                                spec.network.node_name(from) + "' and '" +
                                spec.network.node_name(to) + "'");
    }
  // Explicit `path` directives pin the route of their source device;
  // every other device gets its shortest-path route, all of them read
  // off one routing table rather than one table per device.
  pinned_on_line.resize(spec.network.node_count(), 0);
  if (std::find(pinned_on_line.begin() + 1, pinned_on_line.end(), 0) !=
      pinned_on_line.end()) {
    const auto distance = net::hop_distances(spec.network);
    for (std::uint32_t id = 1; id < spec.network.node_count(); ++id)
      if (pinned_on_line[id] == 0 && !distance[id].has_value())
        throw parse_error("device '" +
                          spec.network.node_name(net::NodeId{id}) +
                          "' cannot reach the gateway");
    // Every device now reaches the gateway: the routed ones by the check
    // above, the pinned ones over the links of their own path.
    std::vector<net::Path> routes = net::uplink_paths(spec.network);
    for (std::uint32_t id = 1; id < spec.network.node_count(); ++id)
      if (pinned_on_line[id] == 0)
        spec.paths.push_back(std::move(routes[id - 1]));
  }
  if (!superframe_given)
    spec.superframe =
        net::SuperframeConfig::symmetric(net::required_uplink_slots(spec.paths));
  // Checked once Is and Fup are final: `interval` and `superframe` come
  // in either order, and Fup may be fitted above.
  check_horizon(spec);
  return spec;
}

void check_horizon(const ParsedSpec& spec) {
  const std::uint64_t horizon =
      std::uint64_t{spec.reporting_interval} * spec.superframe.uplink_slots;
  if (horizon > kMaxU32)
    throw parse_error("horizon Is * Fup = " + std::to_string(horizon) +
                      " uplink slots does not fit in 32 bits");
}

}  // namespace whart::cli
