#include "whart/net/topology.hpp"

#include <algorithm>

#include "whart/common/contracts.hpp"

namespace whart::net {

Network::Network(std::string gateway_name) {
  node_by_name_.emplace(gateway_name, kGateway);
  node_names_.push_back(std::move(gateway_name));
}

NodeId Network::add_node(std::string name) {
  expects(!name.empty(), "node name is non-empty");
  const NodeId id{static_cast<std::uint32_t>(node_names_.size())};
  expects(node_by_name_.try_emplace(name, id).second, "node name is unique");
  node_names_.push_back(std::move(name));
  return id;
}

LinkId Network::add_link(NodeId a, NodeId b, link::LinkModel model) {
  check_node(a);
  check_node(b);
  expects(a != b, "link endpoints differ");
  const LinkId id{static_cast<std::uint32_t>(links_.size())};
  expects(link_by_pair_.try_emplace(pair_key(a, b), id).second,
          "nodes not already linked");
  links_.push_back(Link{a, b, model});
  return id;
}

const std::string& Network::node_name(NodeId node) const {
  check_node(node);
  return node_names_[node.value];
}

std::optional<NodeId> Network::find_node(std::string_view name) const {
  const auto it = node_by_name_.find(name);
  if (it == node_by_name_.end()) return std::nullopt;
  return it->second;
}

const Link& Network::link(LinkId id) const {
  expects(id.value < links_.size(), "link id in range");
  return links_[id.value];
}

std::optional<LinkId> Network::link_between(NodeId a, NodeId b) const {
  const auto it = link_by_pair_.find(pair_key(a, b));
  if (it == link_by_pair_.end()) return std::nullopt;
  return it->second;
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

}  // namespace whart::net
