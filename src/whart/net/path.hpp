// An uplink path: the node sequence a message follows from its source field
// device to the gateway (or, for peer paths, to another field device).
#pragma once

#include <string>
#include <vector>

#include "whart/link/link_model.hpp"
#include "whart/net/ids.hpp"
#include "whart/net/topology.hpp"

namespace whart::net {

/// An ordered node sequence source -> ... -> destination.
class Path {
 public:
  /// At least two nodes; all consecutive nodes must be distinct.
  explicit Path(std::vector<NodeId> nodes);

  [[nodiscard]] const std::vector<NodeId>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] NodeId source() const noexcept { return nodes_.front(); }
  [[nodiscard]] NodeId destination() const noexcept { return nodes_.back(); }

  /// Number of hops (links) on the path.
  [[nodiscard]] std::size_t hop_count() const noexcept {
    return nodes_.size() - 1;
  }

  /// True when the path terminates at the gateway (vs. a peer path).
  [[nodiscard]] bool is_uplink() const noexcept {
    return destination() == kGateway;
  }

  /// Endpoints of hop `hop` (0-based): (from, to).
  [[nodiscard]] std::pair<NodeId, NodeId> hop(std::size_t hop) const;

  /// The link of hop `hop` in `net`; throws when the network has none.
  [[nodiscard]] LinkId hop_link(const Network& net, std::size_t hop) const;

  /// Resolve each hop against a network's links; throws when some hop has
  /// no corresponding link.
  [[nodiscard]] std::vector<LinkId> resolve_links(const Network& net) const;

  /// The per-hop link models, in hop order.
  [[nodiscard]] std::vector<link::LinkModel> hop_models(
      const Network& net) const;

  /// True when `link` (of `net`) is one of this path's hops.
  [[nodiscard]] bool uses_link(const Network& net, LinkId link) const;

  /// "n5 -> n1 -> G" style rendering.
  [[nodiscard]] std::string to_string(const Network& net) const;

  friend bool operator==(const Path&, const Path&) = default;

 private:
  std::vector<NodeId> nodes_;
};

}  // namespace whart::net
