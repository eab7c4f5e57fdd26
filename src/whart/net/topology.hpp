// Network topology: field devices, the gateway, and the bidirectional
// wireless links between them, each carrying its own two-state link model
// (the paper explicitly supports inhomogeneous links).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
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
/// Name and endpoint lookups go through flat hash indexes of ids, so
/// find_node, link_between and the uniqueness checks of add_node/add_link
/// take constant time.
class Network {
 public:
  /// Creates a network containing only the gateway, named `gateway_name`.
  explicit Network(std::string gateway_name = "G");

  /// Make room for `nodes` nodes in all (the gateway included) and
  /// `links` links, so adding that many allocates and rehashes nothing.
  void reserve(std::size_t nodes, std::size_t links);

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

  /// The index slot holding the node named `name`, or the free slot
  /// where it would go.
  [[nodiscard]] std::size_t name_slot(std::string_view name) const noexcept;
  /// The index slot holding the link keyed `key`, or the free slot where
  /// it would go.
  [[nodiscard]] std::size_t pair_slot(std::uint64_t key) const noexcept;
  /// Rebuild each index with `capacity` slots (a power of two).
  void rehash_names(std::size_t capacity);
  void rehash_pairs(std::size_t capacity);

  std::vector<std::string> node_names_;
  std::vector<Link> links_;
  // Open-addressing indexes (linear probing, power-of-two size, at most
  // half full) of node ids by name and link ids by node pair.  They hold
  // ids only and compare against node_names_ and links_: a view into
  // node_names_ would dangle once a short name's inline buffer moves, as
  // it does when the vector grows or the Network is copied.
  std::vector<std::uint32_t> name_index_;
  std::vector<std::uint32_t> pair_index_;
};

}  // namespace whart::net
