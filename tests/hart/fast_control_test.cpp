#include "whart/hart/fast_control.hpp"

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"
#include "whart/hart/sweep.hpp"

namespace whart::hart {
namespace {

// The path's measures at each reporting interval, steady-state links
// with per-attempt success `ps`.
std::vector<SweepPoint> interval_sweep(
    const PathModelConfig& config, double ps,
    const std::vector<std::uint32_t>& intervals) {
  return sweep_reporting_interval_series(config, ps, intervals).points;
}

PathModelConfig three_hop_config() {
  PathModelConfig config;
  config.hop_slots = {1, 2, 3};
  config.superframe = net::SuperframeConfig::symmetric(20);
  config.reporting_interval = 4;
  return config;
}

TEST(FastControl, ReachabilityIncreasesWithReportingInterval) {
  const auto points =
      interval_sweep(three_hop_config(), 0.83, {1, 2, 4, 8});
  ASSERT_EQ(points.size(), 4u);
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_GT(points[i].measures.reachability,
              points[i - 1].measures.reachability);
}

TEST(FastControl, DeliveredPerCycleDecreasesWithReportingInterval) {
  // The flip side of the trade-off: fewer (but surer) messages per cycle.
  const auto points =
      interval_sweep(three_hop_config(), 0.83, {1, 2, 4});
  // Messages delivered per superframe cycle: R / Is.
  const auto delivered_per_cycle = [&](std::size_t i) {
    return points[i].measures.reachability / points[i].parameter;
  };
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_LT(delivered_per_cycle(i), delivered_per_cycle(i - 1));
}

TEST(FastControl, GapGrowsWithHops) {
  // Paper Fig. 19: the Is = 2 vs Is = 4 reachability gap is larger for
  // longer paths.
  const auto gap_for = [](std::uint32_t hops) {
    PathModelConfig config;
    for (std::uint32_t h = 0; h < hops; ++h)
      config.hop_slots.push_back(h + 1);
    config.superframe = net::SuperframeConfig::symmetric(20);
    const auto points = interval_sweep(config, 0.774, {2, 4});
    return points[1].measures.reachability -
           points[0].measures.reachability;
  };
  EXPECT_GT(gap_for(3), gap_for(2));
  EXPECT_GT(gap_for(2), gap_for(1));
}

TEST(FastControl, OneHopValuesMatchPaperFig18) {
  // pi(up) = 0.903: Is = 1 -> 0.903, Is = 2 -> 0.99, Is = 4 -> 0.999.
  PathModelConfig config;
  config.hop_slots = {1};
  config.superframe = net::SuperframeConfig::symmetric(20);
  const auto points = interval_sweep(config, 0.903, {1, 2, 4});
  EXPECT_NEAR(points[0].measures.reachability, 0.903, 1e-12);
  EXPECT_NEAR(points[1].measures.reachability, 0.9906, 1e-4);
  EXPECT_NEAR(points[2].measures.reachability, 0.99991, 1e-5);
}

TEST(FastControl, SweepValidation) {
  EXPECT_THROW(interval_sweep(three_hop_config(), 0.9, {}),
               precondition_error);
  EXPECT_THROW(interval_sweep(three_hop_config(), 0.9, {0}),
               precondition_error);
}

TEST(MessageBlocks, OneMessageEveryIsCycles) {
  const auto blocks = one_hop_message_blocks(0.903, 4, 2);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].born_cycle, 0u);
  EXPECT_EQ(blocks[1].born_cycle, 2u);
  for (const auto& b : blocks) {
    EXPECT_EQ(b.reporting_interval, 2u);
    EXPECT_NEAR(b.reachability, 1.0 - 0.097 * 0.097, 1e-10);
  }
}

TEST(MessageBlocks, PaperFig18Window) {
  // Four consecutive cycles: Is = 1 gives four messages at 0.903 each;
  // Is = 4 gives one message at 0.999.
  const auto is1 = one_hop_message_blocks(0.903, 4, 1);
  ASSERT_EQ(is1.size(), 4u);
  EXPECT_NEAR(is1[0].reachability, 0.903, 1e-12);
  const auto is4 = one_hop_message_blocks(0.903, 4, 4);
  ASSERT_EQ(is4.size(), 1u);
  EXPECT_NEAR(is4[0].reachability, 0.99991, 1e-5);
}

TEST(MinimumReportingInterval, FindsSmallestSufficientIs) {
  // 1-hop at 0.903: Is = 1 gives 0.903, Is = 2 gives 0.9906 — the
  // smallest interval reaching 99% is 2.
  EXPECT_EQ(minimum_reporting_interval(1, 0.903, 0.99), 2u);
  EXPECT_EQ(minimum_reporting_interval(1, 0.903, 0.90), 1u);
  // 3-hop at 0.83: cumulative reachability 0.9626 after 3 cycles,
  // 0.9906 after 4, 0.9978 after 5.
  EXPECT_EQ(minimum_reporting_interval(3, 0.83, 0.96), 3u);
  EXPECT_EQ(minimum_reporting_interval(3, 0.83, 0.99), 4u);
  EXPECT_EQ(minimum_reporting_interval(3, 0.83, 0.995), 5u);
}

TEST(MinimumReportingInterval, UnreachableTargetGivesNullopt) {
  EXPECT_FALSE(minimum_reporting_interval(2, 0.5, 0.9999999, 4).has_value());
  EXPECT_FALSE(minimum_reporting_interval(1, 0.0, 0.5, 8).has_value());
}

TEST(MinimumReportingInterval, PerfectLinkNeedsOneCycle) {
  EXPECT_EQ(minimum_reporting_interval(4, 1.0, 1.0), 1u);
}

TEST(MinimumReportingInterval, InvalidArgumentsThrow) {
  EXPECT_THROW(minimum_reporting_interval(0, 0.9, 0.9), precondition_error);
  EXPECT_THROW(minimum_reporting_interval(1, 1.5, 0.9), precondition_error);
  EXPECT_THROW(minimum_reporting_interval(1, 0.9, 1.5), precondition_error);
  EXPECT_THROW(minimum_reporting_interval(1, 0.9, 0.9, 0),
               precondition_error);
}

TEST(MessageBlocks, WindowMustBeMultipleOfIs) {
  EXPECT_THROW(one_hop_message_blocks(0.9, 5, 2), precondition_error);
  EXPECT_THROW(one_hop_message_blocks(0.9, 4, 0), precondition_error);
  EXPECT_THROW(one_hop_message_blocks(1.5, 4, 2), precondition_error);
}

}  // namespace
}  // namespace whart::hart
