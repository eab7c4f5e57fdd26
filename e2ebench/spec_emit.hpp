// Render a network, its uplink paths and the analysis settings as the
// spec text that cli::parse_spec reads (format: cli/spec_parser.hpp).
// The benchmark sends its generated inputs through the same text front
// end a user of whart_cli does, so the emitted spec must parse back to
// the very same model: link probabilities are printed with 17
// significant digits, which round-trips every double bit for bit, and
// nodes, links and paths keep their declaration order, so ids and the
// schedule built from the paths are reproduced too.
#pragma once

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "whart/net/path.hpp"
#include "whart/net/schedule_builder.hpp"
#include "whart/net/superframe.hpp"
#include "whart/net/topology.hpp"

namespace whart::e2e {

/// `value` with 17 significant digits (exact round trip through stod).
inline std::string format_exact(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// Spec text for `network` with one `path` directive per path, in order.
/// Throws std::invalid_argument for what the format cannot express: a
/// gateway not named "G", node names with whitespace or '#', and the
/// declaration-order scheduling policy.
inline std::string emit_spec(const net::Network& network,
                             const std::vector<net::Path>& paths,
                             net::SuperframeConfig superframe,
                             std::uint32_t reporting_interval,
                             net::SchedulingPolicy policy) {
  if (policy == net::SchedulingPolicy::kDeclarationOrder)
    throw std::invalid_argument("spec format has no declaration-order policy");
  if (network.node_name(net::kGateway) != "G")
    throw std::invalid_argument("spec format names the gateway G");

  std::string out;
  out.reserve(96 * (network.node_count() + paths.size()));
  out += "superframe " + std::to_string(superframe.uplink_slots) + " " +
         std::to_string(superframe.downlink_slots) + "\n";
  out += "interval " + std::to_string(reporting_interval) + "\n";
  out += policy == net::SchedulingPolicy::kLongestPathsFirst
             ? "schedule longest\n"
             : "schedule shortest\n";
  for (std::uint32_t id = 1; id < network.node_count(); ++id) {
    const std::string& name = network.node_name(net::NodeId{id});
    if (name.empty() || name.find_first_of(" \t\r\n#") != std::string::npos)
      throw std::invalid_argument("node name '" + name +
                                  "' is not a spec token");
    out += "node " + name + "\n";
  }
  for (const net::LinkId id : network.links()) {
    const net::Link& link = network.link(id);
    out += "link " + network.node_name(link.a) + " " +
           network.node_name(link.b) + " pfl " +
           format_exact(link.model.failure_probability()) + " prc " +
           format_exact(link.model.recovery_probability()) + "\n";
  }
  for (const net::Path& path : paths) {
    out += "path";
    for (const net::NodeId node : path.nodes())
      out += " " + network.node_name(node);
    out += "\n";
  }
  return out;
}

}  // namespace whart::e2e
