#include "whart/net/routing.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "whart/common/contracts.hpp"

namespace whart::net {

namespace {

/// BFS from the gateway over links not in `excluded`; returns, per node,
/// the best next hop toward the gateway (availability-weighted among
/// minimal-distance parents) and the hop distance.
struct RoutingTable {
  std::vector<std::optional<NodeId>> next_hop;
  std::vector<std::optional<std::uint32_t>> distance;
  /// Product of stationary link availabilities along the chosen route to
  /// the gateway; used to break hop-count ties.
  std::vector<double> quality;
};

bool is_excluded(LinkId id, const std::vector<LinkId>& excluded) {
  return std::find(excluded.begin(), excluded.end(), id) != excluded.end();
}

RoutingTable build_routing_table(const Network& net,
                                 const std::vector<LinkId>& excluded) {
  const std::size_t n = net.node_count();
  RoutingTable table;
  table.next_hop.resize(n);
  table.distance.resize(n);
  table.quality.assign(n, 0.0);
  table.distance[kGateway.value] = 0;
  table.quality[kGateway.value] = 1.0;

  // BFS by layers: every distance-d node is dequeued after all tie
  // updates from distance-(d-1) parents have been applied to it.
  std::deque<NodeId> frontier{kGateway};
  while (!frontier.empty()) {
    const NodeId current = frontier.front();
    frontier.pop_front();
    const std::uint32_t next_distance = *table.distance[current.value] + 1;
    for (NodeId neighbor : net.neighbors(current)) {
      const auto link_id = net.link_between(current, neighbor);
      if (!link_id || is_excluded(*link_id, excluded)) continue;
      const double quality =
          table.quality[current.value] *
          net.link(*link_id).model.steady_state_availability();
      auto& dist = table.distance[neighbor.value];
      if (!dist.has_value()) {
        dist = next_distance;
        table.next_hop[neighbor.value] = current;
        table.quality[neighbor.value] = quality;
        frontier.push_back(neighbor);
      } else if (*dist == next_distance &&
                 quality > table.quality[neighbor.value]) {
        // Tie in hop count: prefer the route with the higher product of
        // link availabilities (end-to-end first-cycle success).
        table.next_hop[neighbor.value] = current;
        table.quality[neighbor.value] = quality;
      }
    }
  }
  return table;
}

std::optional<Path> extract_path(const Network& net, const RoutingTable& table,
                                 NodeId source) {
  if (!table.distance[source.value].has_value() || source == kGateway)
    return std::nullopt;
  std::vector<NodeId> nodes{source};
  NodeId current = source;
  while (current != kGateway) {
    current = *table.next_hop[current.value];
    nodes.push_back(current);
    ensures(nodes.size() <= net.node_count(), "no routing loop");
  }
  return Path(std::move(nodes));
}

}  // namespace

std::optional<Path> shortest_uplink_path(const Network& net, NodeId source) {
  return shortest_uplink_path_avoiding(net, source, {});
}

std::optional<Path> shortest_uplink_path_avoiding(
    const Network& net, NodeId source, const std::vector<LinkId>& excluded) {
  expects(source.value < net.node_count(), "source in range");
  expects(source != kGateway, "source is a field device");
  const RoutingTable table = build_routing_table(net, excluded);
  return extract_path(net, table, source);
}

std::vector<Path> uplink_paths(const Network& net) {
  const RoutingTable table = build_routing_table(net, {});
  std::vector<Path> result;
  result.reserve(net.node_count() - 1);
  for (std::uint32_t i = 1; i < net.node_count(); ++i) {
    auto path = extract_path(net, table, NodeId{i});
    // The message is built only on failure: this runs once per device.
    if (!path.has_value())
      expects(false, "every device reaches the gateway",
              "node " + net.node_name(NodeId{i}) + " is disconnected");
    result.push_back(std::move(*path));
  }
  return result;
}

std::vector<std::optional<std::uint32_t>> hop_distances(const Network& net) {
  return build_routing_table(net, {}).distance;
}

}  // namespace whart::net
