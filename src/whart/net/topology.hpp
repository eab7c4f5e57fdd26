// Network topology: field devices, the gateway, and the bidirectional
// wireless links between them, each carrying its own two-state link model
// (the paper explicitly supports inhomogeneous links).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "whart/link/link_model.hpp"
#include "whart/net/ids.hpp"

namespace whart::net {

/// A bidirectional wireless link between two nodes.
struct Link {
  NodeId a;
  NodeId b;
  link::LinkModel model;

  /// True when the link connects `x` and `y` in either orientation.
  [[nodiscard]] bool connects(NodeId x, NodeId y) const noexcept {
    return (a == x && b == y) || (a == y && b == x);
  }
};

/// A WirelessHART mesh: the gateway (node 0) plus field devices and links.
/// Name and endpoint lookups go through hash indexes, so find_node,
/// link_between and the uniqueness checks of add_node/add_link take
/// constant time.
class Network {
 public:
  /// Creates a network containing only the gateway, named `gateway_name`.
  explicit Network(std::string gateway_name = "G");

  /// Add a field device; returns its id.  Names must be unique.
  NodeId add_node(std::string name);

  /// Add a bidirectional link; both endpoints must exist and must not
  /// already be connected.  Returns the link id.
  LinkId add_link(NodeId a, NodeId b, link::LinkModel model);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return node_names_.size();
  }
  [[nodiscard]] std::size_t link_count() const noexcept {
    return links_.size();
  }

  [[nodiscard]] const std::string& node_name(NodeId node) const;
  [[nodiscard]] std::optional<NodeId> find_node(std::string_view name) const;

  [[nodiscard]] const Link& link(LinkId id) const;

  /// The link between two nodes, in either orientation, if any.
  [[nodiscard]] std::optional<LinkId> link_between(NodeId a, NodeId b) const;

  /// Replace the model on one link (e.g. after a fresh SNR measurement).
  void set_link_model(LinkId id, link::LinkModel model);

  /// Neighbors of `node`, ascending by id.
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId node) const;

  /// All link ids.
  [[nodiscard]] std::vector<LinkId> links() const;

 private:
  void check_node(NodeId node) const;

  /// Orientation-free key of the node pair {a, b}.
  static std::uint64_t pair_key(NodeId a, NodeId b) noexcept;

  /// Hashes std::string and std::string_view alike, so find_node looks
  /// names up without building a std::string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> node_names_;
  std::vector<Link> links_;
  std::unordered_map<std::string, NodeId, NameHash, std::equal_to<>>
      node_by_name_;
  std::unordered_map<std::uint64_t, LinkId> link_by_pair_;
};

}  // namespace whart::net
