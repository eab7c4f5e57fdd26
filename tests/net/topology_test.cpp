#include "whart/net/topology.hpp"

#include <initializer_list>
#include <memory>
#include <string>

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

// The name and node-pair indexes.

TEST(NetworkIndex, AbsentNamesAreNotFound) {
  Network network;
  network.add_node("n1");
  network.add_node("n12");
  for (const char* absent : {"", "n", "n2", "n1 ", " n1", "N1", "g", "G\n",
                             "n121"})
    EXPECT_FALSE(network.find_node(absent).has_value()) << absent;
  EXPECT_FALSE(network.find_node(std::string_view("n1\0", 3)).has_value());
}

TEST(NetworkIndex, TenThousandNodesGrowTheIndex) {
  constexpr std::uint32_t kNodes = 10'000;
  Network network;
  for (std::uint32_t i = 1; i <= kNodes; ++i)
    EXPECT_EQ(network.add_node("d" + std::to_string(i)).value, i);
  // A chain d1 - G, d(i+1) - d(i), added in no particular order.
  network.add_link(NodeId{1}, kGateway, kModel);
  for (std::uint32_t i = kNodes; i >= 2; --i)
    network.add_link(NodeId{i}, NodeId{i - 1}, kModel);
  ASSERT_EQ(network.node_count(), kNodes + 1);
  ASSERT_EQ(network.link_count(), std::size_t{kNodes});
  EXPECT_EQ(network.find_node("G"), kGateway);
  for (std::uint32_t i = 1; i <= kNodes; ++i) {
    const std::string name = "d" + std::to_string(i);
    ASSERT_EQ(network.find_node(name), NodeId{i}) << name;
    const NodeId next = i == 1 ? kGateway : NodeId{i - 1};
    const auto link = network.link_between(NodeId{i}, next);
    ASSERT_TRUE(link.has_value()) << name;
    EXPECT_TRUE(network.link(*link).connects(NodeId{i}, next));
    EXPECT_EQ(network.link_between(next, NodeId{i}), link);
  }
  EXPECT_FALSE(network.find_node("d0").has_value());
  EXPECT_FALSE(network.find_node("d10001").has_value());
  EXPECT_FALSE(network.link_between(NodeId{3}, NodeId{1}).has_value());
  EXPECT_FALSE(network.link_between(NodeId{kNodes}, kGateway).has_value());
}

TEST(NetworkIndex, LinkBetweenAnswersInBothOrders) {
  Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  const NodeId c = network.add_node("c");
  const LinkId ab = network.add_link(b, a, kModel);
  const LinkId cg = network.add_link(kGateway, c, kModel);
  EXPECT_EQ(network.link_between(a, b), ab);
  EXPECT_EQ(network.link_between(b, a), ab);
  EXPECT_EQ(network.link_between(c, kGateway), cg);
  EXPECT_EQ(network.link_between(kGateway, c), cg);
  EXPECT_FALSE(network.link_between(a, c).has_value());
  EXPECT_FALSE(network.link_between(c, a).has_value());
  EXPECT_FALSE(network.link_between(a, a).has_value());
  EXPECT_FALSE(network.link_between(a, NodeId{99}).has_value());
}

TEST(NetworkIndex, CopyAnswersAfterTheOriginalIsDestroyed) {
  // Short names live inside their std::string; a long one on the heap.
  const std::string long_name(100, 'x');
  auto original = std::make_unique<Network>();
  for (int i = 0; i < 50; ++i) original->add_node("s" + std::to_string(i));
  const NodeId long_node = original->add_node(long_name);
  const LinkId link = original->add_link(long_node, NodeId{7}, kModel);
  const Network copy = *original;
  Network assigned;
  assigned = *original;
  Network moved = std::move(*original);
  original.reset();
  for (const Network* network :
       std::initializer_list<const Network*>{&copy, &assigned, &moved}) {
    for (int i = 0; i < 50; ++i)
      EXPECT_EQ(network->find_node("s" + std::to_string(i)),
                NodeId{static_cast<std::uint32_t>(i + 1)});
    EXPECT_EQ(network->find_node(long_name), long_node);
    EXPECT_EQ(network->link_between(NodeId{7}, long_node), link);
    EXPECT_FALSE(network->find_node("s50").has_value());
  }
  // A copy grows its own index: the names it adds are not the source's.
  Network grown = copy;
  for (int i = 50; i < 200; ++i) grown.add_node("s" + std::to_string(i));
  EXPECT_EQ(grown.find_node("s199"), NodeId{201});
  EXPECT_FALSE(copy.find_node("s199").has_value());
  EXPECT_EQ(grown.find_node(long_name), long_node);
}

TEST(NetworkIndex, DuplicatesStillThrowPreconditionErrors) {
  Network network;
  network.reserve(4, 2);
  const NodeId n1 = network.add_node("n1");
  const NodeId n2 = network.add_node("n2");
  network.add_link(n1, n2, kModel);
  EXPECT_THROW(network.add_node("n1"), precondition_error);
  EXPECT_THROW(network.add_node("G"), precondition_error);
  EXPECT_THROW(network.add_link(n1, n2, kModel), precondition_error);
  EXPECT_THROW(network.add_link(n2, n1, kModel), precondition_error);
  // A refused add changes nothing.
  EXPECT_EQ(network.node_count(), 3u);
  EXPECT_EQ(network.link_count(), 1u);
  EXPECT_EQ(network.find_node("n2"), n2);
  EXPECT_EQ(network.add_node("n3").value, 3u);
}

TEST(NetworkIndex, ReserveKeepsWhatIsIndexed) {
  Network network;
  const NodeId n1 = network.add_node("n1");
  const LinkId link = network.add_link(n1, kGateway, kModel);
  network.reserve(1000, 1000);
  network.reserve(2, 0);  // never shrinks
  EXPECT_EQ(network.find_node("n1"), n1);
  EXPECT_EQ(network.link_between(kGateway, n1), link);
  for (int i = 2; i < 1000; ++i) network.add_node("n" + std::to_string(i));
  EXPECT_EQ(network.find_node("n999"), NodeId{999});
}

}  // namespace
}  // namespace whart::net
