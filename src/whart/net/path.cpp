#include "whart/net/path.hpp"

#include "whart/common/contracts.hpp"

namespace whart::net {

Path::Path(std::vector<NodeId> nodes) : nodes_(std::move(nodes)) {
  expects(nodes_.size() >= 2, "path has at least two nodes");
  for (std::size_t i = 1; i < nodes_.size(); ++i)
    expects(nodes_[i] != nodes_[i - 1], "consecutive nodes are distinct");
}

std::pair<NodeId, NodeId> Path::hop(std::size_t hop) const {
  expects(hop < hop_count(), "hop in range");
  return {nodes_[hop], nodes_[hop + 1]};
}

LinkId Path::hop_link(const Network& net, std::size_t hop) const {
  const auto [from, to] = this->hop(hop);
  const auto id = net.link_between(from, to);
  // The message is built only on failure: this runs once per hop of
  // every analysed path.
  if (!id.has_value())
    expects(false, "every hop has a link in the network",
            "missing link " + net.node_name(from) + " -- " +
                net.node_name(to));
  return *id;
}

std::vector<LinkId> Path::resolve_links(const Network& net) const {
  std::vector<LinkId> result;
  result.reserve(hop_count());
  for (std::size_t h = 0; h < hop_count(); ++h)
    result.push_back(hop_link(net, h));
  return result;
}

std::vector<link::LinkModel> Path::hop_models(const Network& net) const {
  std::vector<link::LinkModel> result;
  result.reserve(hop_count());
  for (LinkId id : resolve_links(net)) result.push_back(net.link(id).model);
  return result;
}

bool Path::uses_link(const Network& net, LinkId link) const {
  for (LinkId id : resolve_links(net))
    if (id == link) return true;
  return false;
}

std::string Path::to_string(const Network& net) const {
  constexpr std::string_view kArrow = " -> ";
  std::size_t length = kArrow.size() * (nodes_.size() - 1);
  for (NodeId node : nodes_) length += net.node_name(node).size();
  std::string result;
  result.reserve(length);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (i > 0) result += kArrow;
    result += net.node_name(nodes_[i]);
  }
  return result;
}

}  // namespace whart::net
