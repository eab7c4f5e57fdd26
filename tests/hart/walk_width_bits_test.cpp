// The walk's bits at every block width (DESIGN.md §11).  PathModel::walk
// instantiates its passes for one-state hops (K = 1), two-state channels
// (K = 2) and the runtime width of mixed paths and k >= 3 chains; each
// must add in the runtime width's order.  The other bitwise tests compare
// the walk with itself (what-if against analyze, warm against cold), so
// a width that dispatches wrong or reorders an addition passes them.
// These expectations were printed as hex floats by the one-width walk
// that preceded the instantiations, and every value is compared bit for
// bit: g(i), the discard mass, the expected transmissions (total,
// delivered, per hop), every delivery record and the sensitivity.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/hart/sensitivity.hpp"
#include "whart/link/channel_model.hpp"

namespace whart::hart {
namespace {

struct Pinned {
  std::vector<double> cycle_probabilities;
  double discard = 0.0;
  double transmissions = 0.0;
  double delivered = 0.0;
  std::vector<double> per_hop;
  std::vector<Delivery> deliveries;
  std::vector<double> sensitivity;
};

std::string hex(double value) {
  char text[32];
  std::snprintf(text, sizeof text, "%a", value);
  return text;
}

void expect_bits(const std::string& what, double got, double want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": " << hex(got) << " vs pinned " << hex(want);
}

void expect_bits(const std::string& what, const std::vector<double>& got,
                 const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_bits(what + "[" + std::to_string(i) + "]", got[i], want[i]);
}

void expect_pinned(const PathModel& model,
                   const LinkProbabilityProvider& links, const Pinned& want) {
  const PathTransientResult got = model.analyze(links);
  expect_bits("g", got.cycle_probabilities, want.cycle_probabilities);
  expect_bits("discard", got.discard_probability, want.discard);
  expect_bits("transmissions", got.expected_transmissions,
              want.transmissions);
  expect_bits("delivered", got.expected_transmissions_delivered,
              want.delivered);
  expect_bits("per hop", got.expected_transmissions_per_hop, want.per_hop);
  ASSERT_EQ(got.deliveries.size(), want.deliveries.size());
  for (std::size_t i = 0; i < got.deliveries.size(); ++i) {
    const std::string record = "delivery " + std::to_string(i);
    EXPECT_EQ(got.deliveries[i].slot, want.deliveries[i].slot) << record;
    EXPECT_EQ(got.deliveries[i].cycle, want.deliveries[i].cycle) << record;
    expect_bits(record, got.deliveries[i].mass, want.deliveries[i].mass);
  }
  expect_bits("sensitivity", reachability_sensitivity(model, links),
              want.sensitivity);
}

PathModelConfig in_order(std::uint32_t hops, std::uint32_t fup,
                         std::uint32_t is) {
  PathModelConfig config;
  for (std::uint32_t h = 0; h < hops; ++h) config.hop_slots.push_back(h + 1);
  config.superframe = net::SuperframeConfig::symmetric(fup);
  config.reporting_interval = is;
  return config;
}

/// bench_channel's channels: a Gilbert-Elliott chain and a three-state
/// fading chain.
link::ChannelModel gilbert_elliott() {
  return link::ChannelModel::gilbert_elliott(0.1, 0.25, 0.02, 0.7);
}

link::ChannelModel three_state() {
  return link::ChannelModel::chain({0.8, 0.15, 0.05,  //
                                    0.2, 0.7, 0.1,    //
                                    0.1, 0.3, 0.6},
                                   {0.01, 0.3, 0.9});
}

/// bench_channel's path: four in-order hops, Fup = Fdown = 20, Is = 4.
PathModel bench_path() { return PathModel(in_order(4, 20, 4)); }

TEST(WalkWidthBits, IidThreeHopsOnTheSectionSixFrame) {
  expect_pinned(
      PathModel(in_order(3, 390, 4)), SteadyStateLinks({0.83, 0.9, 0.75}),
      {
          .cycle_probabilities = {0x1.1ed916872b021p-1, 0x1.2a5269595fedap-2,
                                  0x1.aa99b03fce4c4p-4, 0x1.058120b8179a4p-5},
          .discard = 0x1.949b2e2a70fe4p-7,
          .transmissions = 0x1.d0a079ffedadfp+1,
          .delivered = 0x1.c778242d4aaadp+1,
          .per_hop = {0x1.342d16b97fe8ep+0, 0x1.1bf57b16cca03p+0,
                      0x1.511e622f8ed2bp+0},
          .deliveries = {{3, 0, 0x1.1ed916872b021p-1},
                         {393, 1, 0x1.2a5269595fedap-2},
                         {783, 2, 0x1.aa99b03fce4c4p-4},
                         {1173, 3, 0x1.058120b8179a4p-5}},
          .sensitivity = {0x1.2c0aa7f9aeacep-4, 0x1.a0fa40ce515bcp-5,
                          0x1.cfc8f76efba53p-4},
      });
}

TEST(WalkWidthBits, IidRetrySlotsMidCycleTtlAndTransientLinks) {
  // Out-of-order hops with retries on hops 0 and 2; the TTL (21 of a
  // 32-slot interval) cuts the third cycle after its slot 5.
  PathModelConfig config;
  config.hop_slots = {3, 1, 4};
  config.retry_slots = {6, 0, 7};
  config.superframe = net::SuperframeConfig{8, 5};
  config.reporting_interval = 4;
  config.ttl = 21;
  expect_pinned(
      PathModel(config),
      TransientLinks({link::LinkModel(0.1, 0.3), link::LinkModel(0.2, 0.5),
                      link::LinkModel(0.05, 0.2)},
                     {0.0, 1.0, 0.5}),
      {
          .cycle_probabilities = {0x0p+0, 0x1.26889f740008fp-1,
                                  0x1.f0bf05147fcb9p-3, 0x0p+0},
          .discard = 0x1.751e7d1b8010bp-3,
          .transmissions = 0x1.fe1824620e1fcp+1,
          .delivered = 0x1.9d5e568882c3p+1,
          .per_hop = {0x1.bb0230017a0bfp+0, 0x1.3ad8b3c28923ap+0,
                      0x1.06556500191p+0},
          .deliveries = {{4, 0, 0x0p+0},
                         {7, 0, 0x0p+0},
                         {12, 1, 0x1.e97b7e2520403p-2},
                         {15, 1, 0x1.8e57030b7f46cp-4},
                         {20, 2, 0x1.f0bf05147fcb9p-3}},
          .sensitivity = {0x1.4c042a1a03e7fp-2, 0x1.5490d3067d1a6p-1,
                          0x1.682b7c1036a7fp-2},
      });
}

TEST(WalkWidthBits, OneGilbertElliottChannelSharedByFourHops) {
  expect_pinned(
      bench_path(), ChannelLinks(4, gilbert_elliott()),
      {
          .cycle_probabilities = {0x1.864399375641fp-2, 0x1.4e831535d0aedp-2,
                                  0x1.6667e03e2e3a4p-3, 0x1.333477bb89d1fp-4},
          .discard = 0x1.59c21c26fc06dp-5,
          .transmissions = 0x1.3fb9a598aafb1p+2,
          .delivered = 0x1.2ee71412d284ap+2,
          .per_hop = {0x1.452196177f9adp+0, 0x1.42f8db44a4479p+0,
                      0x1.3ebb232968104p+0, 0x1.381101dd1ff94p+0},
          .deliveries = {{4, 0, 0x1.864399375641fp-2},
                         {24, 1, 0x1.4e831535d0aedp-2},
                         {44, 2, 0x1.6667e03e2e3a4p-3},
                         {64, 3, 0x1.333477bb89d1fp-4}},
          .sensitivity = {0x1.561d56df2920ap-3, 0x1.561d56df2920fp-3,
                          0x1.561d56df29213p-3, 0x1.561d56df2921cp-3},
      });
}

TEST(WalkWidthBits, GilbertElliottRescaledPerHop) {
  const link::ChannelModel ge = gilbert_elliott();
  expect_pinned(
      bench_path(),
      ChannelLinks({ge.with_marginal_success(0.83),
                    ge.with_marginal_success(0.9),
                    ge.with_marginal_success(0.7),
                    ge.with_marginal_success(0.95)}),
      {
          .cycle_probabilities = {0x1.fcad57bc7f77cp-2, 0x1.3b613b1e2c9aep-2,
                                  0x1.06602b4097cb1p-3, 0x1.7438b0e87fd82p-5},
          .discard = 0x1.63a4167f80f72p-6,
          .transmissions = 0x1.2f9a3a7a31f21p+2,
          .delivered = 0x1.2746da316141dp+2,
          .per_hop = {0x1.342d16c4ba798p+0, 0x1.1bf57b19004cap+0,
                      0x1.66a6843322aedp+0, 0x1.079fd3d7ea536p+0},
          .deliveries = {{4, 0, 0x1.fcad57bc7f77cp-2},
                         {24, 1, 0x1.3b613b1e2c9aep-2},
                         {44, 2, 0x1.06602b4097cb1p-3},
                         {64, 3, 0x1.7438b0e87fd82p-5}},
          .sensitivity = {0x1.83ad9cbac5f49p-4, 0x1.195f813c07782p-4,
                          0x1.6db8afc8bfcbdp-3, 0x1.c6395be29ea84p-5},
      });
}

TEST(WalkWidthBits, ThreeStateChainOfTheChannelBenchmark) {
  expect_pinned(
      bench_path(), ChannelLinks(4, three_state().with_marginal_success(0.83)),
      {
          .cycle_probabilities = {0x1.e5f92418b9093p-2, 0x1.4a763731c6217p-2,
                                  0x1.18e47bcc14c0dp-3, 0x1.7e0389da3ca63p-5},
          .discard = 0x1.35df5942ee1acp-6,
          .transmissions = 0x1.31e92f5096835p+2,
          .delivered = 0x1.2a524305ef61ep+2,
          .per_hop = {0x1.342d16bc2bc13p+0, 0x1.335224bd1c7aap+0,
                      0x1.318bd4ff561c2p+0, 0x1.2e99acc9bbb54p+0},
          .deliveries = {{4, 0, 0x1.e5f92418b9093p-2},
                         {24, 1, 0x1.4a763731c6217p-2},
                         {44, 2, 0x1.18e47bcc14c0dp-3},
                         {64, 3, 0x1.7e0389da3ca63p-5}},
          .sensitivity = {0x1.92b9b4cc39c17p-4, 0x1.92b9b4cc39c1fp-4,
                          0x1.92b9b4cc39c26p-4, 0x1.92b9b4cc39c24p-4},
      });
}

TEST(WalkWidthBits, GilbertElliottMixedWithOneStateHops) {
  const link::ChannelModel ge = gilbert_elliott();
  expect_pinned(
      bench_path(),
      ChannelLinks({ge.with_marginal_success(0.83),
                    link::ChannelModel::iid(0.9),
                    ge.with_marginal_success(0.7),
                    link::ChannelModel::iid(0.8)}),
      {
          .cycle_probabilities = {0x1.ac5c13fd0d068p-2, 0x1.49d642480e60ep-2,
                                  0x1.46530c21080c7p-3, 0x1.0928e7f3eb3ebp-4},
          .discard = 0x1.22cf4d6b2e20fp-5,
          .transmissions = 0x1.3adb3f4205ab5p+2,
          .delivered = 0x1.2c5a055aa6fdp+2,
          .per_hop = {0x1.342d16c4ba798p+0, 0x1.1bf57b15b43fap+0,
                      0x1.66a68433d7c0ap+0, 0x1.34a3e6f9d0332p+0},
          .deliveries = {{4, 0, 0x1.ac5c13fd0d068p-2},
                         {24, 1, 0x1.49d642480e60ep-2},
                         {44, 2, 0x1.46530c21080c7p-3},
                         {64, 3, 0x1.0928e7f3eb3ebp-4}},
          .sensitivity = {0x1.fd39ca6a2e524p-4, 0x1.7fb3a6be874c5p-4,
                          0x1.bf1d00730bca1p-3, 0x1.20db5b07da942p-3},
      });
}

}  // namespace
}  // namespace whart::hart
