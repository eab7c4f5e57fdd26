#include "whart/net/topology.hpp"

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"

namespace whart::net {
namespace {

const link::LinkModel kModel{0.2, 0.9};

TEST(Network, StartsWithGatewayOnly) {
  const Network network;
  EXPECT_EQ(network.node_count(), 1u);
  EXPECT_EQ(network.node_name(kGateway), "G");
  EXPECT_EQ(network.find_node("G"), kGateway);
}

TEST(Network, CustomGatewayName) {
  const Network network("gateway-1");
  EXPECT_EQ(network.node_name(kGateway), "gateway-1");
}

TEST(Network, AddNodesAssignsSequentialIds) {
  Network network;
  const NodeId n1 = network.add_node("n1");
  const NodeId n2 = network.add_node("n2");
  EXPECT_EQ(n1.value, 1u);
  EXPECT_EQ(n2.value, 2u);
  EXPECT_EQ(network.node_count(), 3u);
  EXPECT_EQ(network.find_node("n2"), n2);
}

TEST(Network, DuplicateOrEmptyNameThrows) {
  Network network;
  network.add_node("n1");
  EXPECT_THROW(network.add_node("n1"), precondition_error);
  EXPECT_THROW(network.add_node(""), precondition_error);
  EXPECT_THROW(network.add_node("G"), precondition_error);
}

TEST(Network, AddAndQueryLinks) {
  Network network;
  const NodeId n1 = network.add_node("n1");
  const LinkId link = network.add_link(n1, kGateway, kModel);
  EXPECT_EQ(network.link_count(), 1u);
  EXPECT_EQ(network.link_between(n1, kGateway), link);
  EXPECT_EQ(network.link_between(kGateway, n1), link);
  EXPECT_TRUE(network.link(link).connects(n1, kGateway));
  EXPECT_EQ(network.link(link).model, kModel);
}

TEST(Network, InvalidLinksThrow) {
  Network network;
  const NodeId n1 = network.add_node("n1");
  EXPECT_THROW(network.add_link(n1, n1, kModel), precondition_error);
  EXPECT_THROW(network.add_link(n1, NodeId{9}, kModel), precondition_error);
  network.add_link(n1, kGateway, kModel);
  EXPECT_THROW(network.add_link(kGateway, n1, kModel), precondition_error);
}

TEST(Network, Neighbors) {
  Network network;
  const NodeId n1 = network.add_node("n1");
  const NodeId n2 = network.add_node("n2");
  const NodeId n3 = network.add_node("n3");
  network.add_link(n2, kGateway, kModel);
  network.add_link(n1, kGateway, kModel);
  network.add_link(n3, n1, kModel);
  EXPECT_EQ(network.neighbors(kGateway), (std::vector<NodeId>{n1, n2}));
  EXPECT_EQ(network.neighbors(n1), (std::vector<NodeId>{kGateway, n3}));
  EXPECT_TRUE(network.neighbors(n2).size() == 1);
}

TEST(Network, SetLinkModels) {
  Network network;
  const NodeId n1 = network.add_node("n1");
  const NodeId n2 = network.add_node("n2");
  const LinkId l1 = network.add_link(n1, kGateway, kModel);
  const LinkId l2 = network.add_link(n2, kGateway, kModel);

  const link::LinkModel better{0.05, 0.95};
  network.set_link_model(l1, better);
  EXPECT_EQ(network.link(l1).model, better);
  EXPECT_EQ(network.link(l2).model, kModel);
}

TEST(Network, LinkIdOutOfRangeThrows) {
  const Network network;
  EXPECT_THROW((void)network.link(LinkId{0}), precondition_error);
}

}  // namespace
}  // namespace whart::net
