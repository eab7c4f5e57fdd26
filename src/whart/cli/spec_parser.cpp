#include "whart/cli/spec_parser.hpp"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <limits>
#include <sstream>

#include "whart/net/routing.hpp"
#include "whart/phy/snr.hpp"

namespace whart::cli {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw parse_error("spec line " + std::to_string(line) + ": " + message);
}

double parse_double(const std::string& token, std::size_t line) {
  try {
    std::size_t used = 0;
    const double value = std::stod(token, &used);
    if (used != token.size()) fail(line, "trailing characters in number");
    return value;
  } catch (const parse_error&) {
    throw;
  } catch (const std::exception&) {
    fail(line, "expected a number, got '" + token + "'");
  }
}

std::uint32_t parse_u32(const std::string& token, std::size_t line) {
  const double value = parse_double(token, line);
  if (value < 0 || value != static_cast<std::uint32_t>(value))
    fail(line, "expected a non-negative integer, got '" + token + "'");
  return static_cast<std::uint32_t>(value);
}

net::NodeId node_or_fail(const net::Network& network, const std::string& name,
                         std::size_t line) {
  const auto id = network.find_node(name);
  if (!id) fail(line, "unknown node '" + name + "'");
  return *id;
}

}  // namespace

ParsedSpec parse_spec(std::istream& in) {
  ParsedSpec spec;
  bool superframe_given = false;
  std::string line;
  std::size_t line_number = 0;

  while (std::getline(in, line)) {
    ++line_number;
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.resize(hash);
    std::istringstream tokens(line);
    std::vector<std::string> words;
    for (std::string word; tokens >> word;) words.push_back(word);
    if (words.empty()) continue;

    const std::string& directive = words[0];
    if (directive == "superframe") {
      if (words.size() != 3) fail(line_number, "superframe <Fup> <Fdown>");
      spec.superframe.uplink_slots = parse_u32(words[1], line_number);
      spec.superframe.downlink_slots = parse_u32(words[2], line_number);
      if (spec.superframe.uplink_slots == 0)
        fail(line_number, "Fup must be positive");
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
        fail(line_number, "unknown policy '" + words[1] + "'");
    } else if (directive == "node") {
      if (words.size() != 2) fail(line_number, "node <name>");
      if (words[1] == "G") fail(line_number, "'G' is reserved");
      spec.network.add_node(words[1]);
    } else if (directive == "link") {
      if (words.size() < 5) fail(line_number, "link <a> <b> <form>...");
      const net::NodeId a = node_or_fail(spec.network, words[1], line_number);
      const net::NodeId b = node_or_fail(spec.network, words[2], line_number);
      const std::string& form = words[3];
      if (form == "avail" && words.size() == 5) {
        spec.network.add_link(a, b,
                              link::LinkModel::from_availability(
                                  parse_double(words[4], line_number)));
      } else if (form == "pfl" && words.size() == 7 && words[5] == "prc") {
        spec.network.add_link(
            a, b,
            link::LinkModel(parse_double(words[4], line_number),
                            parse_double(words[6], line_number)));
      } else if (form == "ber" && words.size() == 5) {
        spec.network.add_link(a, b,
                              link::LinkModel::from_ber(
                                  parse_double(words[4], line_number)));
      } else if (form == "snr" && words.size() == 5) {
        spec.network.add_link(
            a, b,
            link::LinkModel::from_snr(phy::EbN0::from_linear(
                parse_double(words[4], line_number))));
      } else {
        fail(line_number, "bad link form; see header comment");
      }
    } else if (directive == "path") {
      if (words.size() < 3) fail(line_number, "path <src> ... <dst>");
      std::vector<net::NodeId> nodes;
      for (std::size_t i = 1; i < words.size(); ++i)
        nodes.push_back(node_or_fail(spec.network, words[i], line_number));
      spec.paths.emplace_back(std::move(nodes));
    } else {
      fail(line_number, "unknown directive '" + directive + "'");
    }
  }

  if (spec.network.node_count() < 2)
    throw parse_error("spec declares no field devices");
  // Explicit `path` directives pin the route of their source device;
  // every other device gets a shortest-path route.
  for (std::uint32_t id = 1; id < spec.network.node_count(); ++id) {
    const net::NodeId source{id};
    const bool pinned =
        std::any_of(spec.paths.begin(), spec.paths.end(),
                    [&](const net::Path& p) { return p.source() == source; });
    if (pinned) continue;
    auto routed = net::shortest_uplink_path(spec.network, source);
    if (!routed.has_value())
      throw parse_error("device '" + spec.network.node_name(source) +
                        "' cannot reach the gateway");
    spec.paths.push_back(std::move(*routed));
  }
  if (!superframe_given)
    spec.superframe =
        net::SuperframeConfig::symmetric(net::required_uplink_slots(spec.paths));
  // Model time counts uplink slots in 32 bits, so the horizon Is * Fup
  // must fit.  Checked once both are final: `interval` and `superframe`
  // come in either order, and Fup may be fitted above.
  const std::uint64_t horizon =
      std::uint64_t{spec.reporting_interval} * spec.superframe.uplink_slots;
  if (horizon > std::numeric_limits<std::uint32_t>::max())
    throw parse_error("horizon Is * Fup = " + std::to_string(horizon) +
                      " uplink slots does not fit in 32 bits");
  return spec;
}

ParsedSpec parse_spec_string(const std::string& text) {
  std::istringstream in(text);
  return parse_spec(in);
}

}  // namespace whart::cli
