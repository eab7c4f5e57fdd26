#include "whart/net/path.hpp"

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"

namespace whart::net {
namespace {

const link::LinkModel kModel{0.2, 0.9};

Network three_hop_network(NodeId out[3]) {
  Network network;
  out[0] = network.add_node("n1");
  out[1] = network.add_node("n2");
  out[2] = network.add_node("n3");
  network.add_link(out[0], out[1], kModel);
  network.add_link(out[1], out[2], kModel);
  network.add_link(out[2], kGateway, {0.1, 0.9});
  return network;
}

TEST(Path, BasicProperties) {
  NodeId n[3];
  const Network network = three_hop_network(n);
  const Path path({n[0], n[1], n[2], kGateway});
  EXPECT_EQ(path.hop_count(), 3u);
  EXPECT_EQ(path.source(), n[0]);
  EXPECT_EQ(path.destination(), kGateway);
  EXPECT_TRUE(path.is_uplink());
  EXPECT_EQ(path.hop(0), std::make_pair(n[0], n[1]));
  EXPECT_EQ(path.hop(2), std::make_pair(n[2], kGateway));
  EXPECT_THROW((void)path.hop(3), precondition_error);
}

TEST(Path, PeerPathIsNotUplink) {
  NodeId n[3];
  three_hop_network(n);
  const Path peer({n[0], n[1]});
  EXPECT_FALSE(peer.is_uplink());
}

TEST(Path, TooShortOrRepeatedThrows) {
  EXPECT_THROW(Path({kGateway}), precondition_error);
  EXPECT_THROW(Path({NodeId{1}, NodeId{1}}), precondition_error);
}

TEST(Path, ResolveLinksInHopOrder) {
  NodeId n[3];
  const Network network = three_hop_network(n);
  const Path path({n[0], n[1], n[2], kGateway});
  const std::vector<LinkId> links = path.resolve_links(network);
  ASSERT_EQ(links.size(), 3u);
  EXPECT_EQ(links[0], network.link_between(n[0], n[1]));
  EXPECT_EQ(links[2], network.link_between(n[2], kGateway));
}

TEST(Path, ResolveMissingLinkThrows) {
  NodeId n[3];
  const Network network = three_hop_network(n);
  const Path path({n[0], n[2], kGateway});  // n1 -- n3 does not exist
  EXPECT_THROW(path.resolve_links(network), precondition_error);
}

TEST(Path, HopModels) {
  NodeId n[3];
  const Network network = three_hop_network(n);
  const Path path({n[0], n[1], n[2], kGateway});
  const auto models = path.hop_models(network);
  ASSERT_EQ(models.size(), 3u);
  EXPECT_EQ(models[0], kModel);
  EXPECT_EQ(models[2], (link::LinkModel{0.1, 0.9}));
}

TEST(Path, UsesLink) {
  NodeId n[3];
  const Network network = three_hop_network(n);
  const Path path({n[1], n[2], kGateway});
  EXPECT_TRUE(path.uses_link(network, *network.link_between(n[1], n[2])));
  EXPECT_FALSE(path.uses_link(network, *network.link_between(n[0], n[1])));
}

TEST(Path, ToString) {
  NodeId n[3];
  const Network network = three_hop_network(n);
  const Path path({n[0], n[1], kGateway});
  EXPECT_EQ(path.to_string(network), "n1 -> n2 -> G");
}

}  // namespace
}  // namespace whart::net
