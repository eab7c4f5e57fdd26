#include "whart/net/topology.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "whart/common/contracts.hpp"

namespace whart::net {

namespace {

/// An index slot that holds no id.
constexpr std::uint32_t kFree = std::numeric_limits<std::uint32_t>::max();

/// FNV-1a: node names are short tokens.
std::uint64_t name_hash(std::string_view name) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : name) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// The home slot of `hash` in an index of `mask + 1` slots: the high
/// half of a Fibonacci product, so sequential keys spread too.
std::size_t home_slot(std::uint64_t hash, std::size_t mask) noexcept {
  return static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ULL) >> 32) &
         mask;
}

/// Slots for `count` ids at most half full.
std::size_t index_capacity(std::size_t count) noexcept {
  return std::bit_ceil(std::max<std::size_t>(2 * count, 8));
}

/// The id in `slot` of a probe's result, kFree when the slot is free or
/// the index has no slots.
std::uint32_t id_at(const std::vector<std::uint32_t>& index,
                    std::size_t slot) noexcept {
  return slot < index.size() ? index[slot] : kFree;
}

/// Put `id` in the first free slot from `hash`'s home slot on.
void place(std::vector<std::uint32_t>& index, std::uint64_t hash,
           std::uint32_t id) noexcept {
  const std::size_t mask = index.size() - 1;
  std::size_t slot = home_slot(hash, mask);
  while (index[slot] != kFree) slot = (slot + 1) & mask;
  index[slot] = id;
}

}  // namespace

Network::Network(std::string gateway_name) {
  node_names_.push_back(std::move(gateway_name));
  rehash_names(index_capacity(1));
  rehash_pairs(index_capacity(0));
}

void Network::reserve(std::size_t nodes, std::size_t links) {
  node_names_.reserve(nodes);
  links_.reserve(links);
  if (index_capacity(nodes) > name_index_.size())
    rehash_names(index_capacity(nodes));
  if (index_capacity(links) > pair_index_.size())
    rehash_pairs(index_capacity(links));
}

NodeId Network::add_node(std::string name) {
  expects(!name.empty(), "node name is non-empty");
  const NodeId id{static_cast<std::uint32_t>(node_names_.size())};
  const std::size_t slot = name_slot(name);
  expects(id_at(name_index_, slot) == kFree, "node name is unique");
  node_names_.push_back(std::move(name));
  if (2 * node_names_.size() > name_index_.size())
    rehash_names(index_capacity(node_names_.size()));
  else
    name_index_[slot] = id.value;
  return id;
}

LinkId Network::add_link(NodeId a, NodeId b, link::LinkModel model) {
  check_node(a);
  check_node(b);
  expects(a != b, "link endpoints differ");
  const LinkId id{static_cast<std::uint32_t>(links_.size())};
  const std::size_t slot = pair_slot(pair_key(a, b));
  expects(id_at(pair_index_, slot) == kFree, "nodes not already linked");
  links_.push_back(Link{a, b, model});
  if (2 * links_.size() > pair_index_.size())
    rehash_pairs(index_capacity(links_.size()));
  else
    pair_index_[slot] = id.value;
  return id;
}

const std::string& Network::node_name(NodeId node) const {
  check_node(node);
  return node_names_[node.value];
}

std::optional<NodeId> Network::find_node(std::string_view name) const {
  const std::uint32_t id = id_at(name_index_, name_slot(name));
  if (id == kFree) return std::nullopt;
  return NodeId{id};
}

const Link& Network::link(LinkId id) const {
  expects(id.value < links_.size(), "link id in range");
  return links_[id.value];
}

std::optional<LinkId> Network::link_between(NodeId a, NodeId b) const {
  const std::uint32_t id = id_at(pair_index_, pair_slot(pair_key(a, b)));
  if (id == kFree) return std::nullopt;
  return LinkId{id};
}

void Network::set_link_model(LinkId id, link::LinkModel model) {
  expects(id.value < links_.size(), "link id in range");
  links_[id.value].model = model;
}

std::vector<NodeId> Network::neighbors(NodeId node) const {
  check_node(node);
  std::vector<NodeId> result;
  for (const Link& l : links_) {
    if (l.a == node) result.push_back(l.b);
    if (l.b == node) result.push_back(l.a);
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<LinkId> Network::links() const {
  std::vector<LinkId> result(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i)
    result[i] = LinkId{static_cast<std::uint32_t>(i)};
  return result;
}

void Network::check_node(NodeId node) const {
  expects(node.value < node_names_.size(), "node id in range");
}

std::uint64_t Network::pair_key(NodeId a, NodeId b) noexcept {
  const auto [low, high] = std::minmax(a.value, b.value);
  return (std::uint64_t{low} << 32) | high;
}

// Both probes return slot 0 of an index with no slots, as a moved-from
// Network's is; id_at reads that slot as free.
std::size_t Network::name_slot(std::string_view name) const noexcept {
  if (name_index_.empty()) return 0;
  const std::size_t mask = name_index_.size() - 1;
  std::size_t slot = home_slot(name_hash(name), mask);
  while (name_index_[slot] != kFree && node_names_[name_index_[slot]] != name)
    slot = (slot + 1) & mask;
  return slot;
}

std::size_t Network::pair_slot(std::uint64_t key) const noexcept {
  if (pair_index_.empty()) return 0;
  const std::size_t mask = pair_index_.size() - 1;
  std::size_t slot = home_slot(key, mask);
  while (pair_index_[slot] != kFree) {
    const Link& link = links_[pair_index_[slot]];
    if (pair_key(link.a, link.b) == key) break;
    slot = (slot + 1) & mask;
  }
  return slot;
}

void Network::rehash_names(std::size_t capacity) {
  name_index_.assign(capacity, kFree);
  for (std::uint32_t id = 0; id < node_names_.size(); ++id)
    place(name_index_, name_hash(node_names_[id]), id);
}

void Network::rehash_pairs(std::size_t capacity) {
  pair_index_.assign(capacity, kFree);
  for (std::uint32_t id = 0; id < links_.size(); ++id)
    place(pair_index_, pair_key(links_[id].a, links_[id].b), id);
}

}  // namespace whart::net
