// Text format for specifying a WirelessHART network to the CLI tool — the
// counterpart of the paper's "tool to automatically derive the underlying
// model of a fully specified network".
//
// Format (one directive per line, '#' starts a comment).  Words are
// split on spaces, tabs, '\v', '\f' and '\r', so CRLF line ends read as
// LF; a '#' ends the line even inside a word, and every other byte
// belongs to a word:
//
//   superframe <Fup> <Fdown>        # optional; default: fitted symmetric
//   interval <Is>                   # optional; default 4
//   schedule shortest|longest       # optional; default shortest
//   node <name>                     # declare a field device
//   link <a> <b> avail <pi_up>      # one of the four link forms
//   link <a> <b> pfl <p> prc <p>
//   link <a> <b> ber <ber>
//   link <a> <b> snr <Eb/N0 linear>
//   path <src> <relay>... G         # pin this device's route; devices
//                                   # without a path directive are routed
//                                   # by shortest path automatically
//
// The gateway is always called "G" and need not be declared.  Numbers
// follow std::stod's rules.  Mistakes that would break the model are
// refused with the line they occur on: a node declared twice, a second
// link between two nodes, a link from a node to itself, a link value out
// of its range, and a `path` that does not run from a field device to G
// without revisiting a node, that lacks a link for some hop, or that
// repeats another path's source.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "whart/net/path.hpp"
#include "whart/net/schedule_builder.hpp"
#include "whart/net/superframe.hpp"
#include "whart/net/topology.hpp"

namespace whart::cli {

/// Thrown on malformed input, with a line number in the message.
class parse_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The result of parsing a network spec.
struct ParsedSpec {
  net::Network network;
  std::vector<net::Path> paths;
  net::SuperframeConfig superframe;
  std::uint32_t reporting_interval = 4;
  net::SchedulingPolicy policy = net::SchedulingPolicy::kShortestPathsFirst;
};

/// Parse a spec from a stream: reads it to the end and parses the text
/// with parse_spec_string.
ParsedSpec parse_spec(std::istream& in);

/// Parse spec text in one pass over its lines, after a prescan that
/// counts the `node`, `link` and `path` lines so the network and the
/// path list are sized once; applies the documented defaults (paths via
/// shortest-path routing when none are given; superframe fitted to the
/// paths when not specified).
ParsedSpec parse_spec_string(std::string_view text);

/// Model time counts uplink slots in 32 bits, so the horizon Is * Fup
/// must fit: throws parse_error when it does not.  parse_spec applies it
/// once Is and Fup are final; a caller that overrides either afterwards
/// applies it again.
void check_horizon(const ParsedSpec& spec);

}  // namespace whart::cli
