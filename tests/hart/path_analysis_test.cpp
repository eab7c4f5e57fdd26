#include "whart/hart/path_analysis.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"

namespace whart::hart {
namespace {

PathModelConfig example_config(std::uint32_t is) {
  PathModelConfig config;
  config.hop_slots = {3, 6, 7};
  config.superframe = net::SuperframeConfig::symmetric(7);
  config.reporting_interval = is;
  return config;
}

TEST(PathMeasures, PaperExamplePath) {
  // Paper Section V-A: Is = 4, pi(up) = 0.75: R = 0.9624,
  // E[tau] = 190.8 ms, delays 70/210/350/490 ms.
  const PathModel model(example_config(4));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  const PathMeasures m = compute_path_measures(model, links);

  EXPECT_NEAR(m.reachability, 0.9624, 5e-5);
  EXPECT_NEAR(m.discard_probability, 0.0376, 5e-5);
  ASSERT_EQ(m.cycle_probabilities.size(), 4u);
  EXPECT_DOUBLE_EQ(m.delay_ms(0), 70.0);
  EXPECT_DOUBLE_EQ(m.delay_ms(1), 210.0);
  EXPECT_DOUBLE_EQ(m.delay_ms(2), 350.0);
  EXPECT_DOUBLE_EQ(m.delay_ms(3), 490.0);
  EXPECT_NEAR(m.expected_delay_ms, 190.8, 0.05);
  // E[N] = 1 / (1 - R) ~ 26.6 reporting intervals to the first loss.
  EXPECT_NEAR(m.expected_intervals_to_first_loss, 26.6, 0.05);
}

TEST(PathMeasures, DelayDistributionNormalizedOverReceived) {
  const PathModel model(example_config(4));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  const PathMeasures m = compute_path_measures(model, links);
  double mass = 0.0;
  for (std::size_t i = 0; i < m.cycle_probabilities.size(); ++i)
    mass += m.delay_probability(i);
  EXPECT_NEAR(mass, 1.0, 1e-12);
  // First-cycle share: g(1)/R = 0.4219/0.9624.
  EXPECT_NEAR(m.delay_probability(0), 0.4219 / 0.9624, 1e-4);
}

TEST(PathMeasures, PerfectLinkOneHop) {
  PathModelConfig config;
  config.hop_slots = {1};
  config.superframe = net::SuperframeConfig::symmetric(1);
  config.reporting_interval = 2;
  const PathModel model(config);
  const SteadyStateLinks links(1, link::LinkModel::from_availability(1.0));
  const PathMeasures m = compute_path_measures(model, links);
  EXPECT_DOUBLE_EQ(m.reachability, 1.0);
  EXPECT_DOUBLE_EQ(m.expected_delay_ms, 10.0);
  EXPECT_TRUE(std::isinf(m.expected_intervals_to_first_loss));
  EXPECT_DOUBLE_EQ(m.utilization, 0.5);  // 1 attempt in 2 slots
}

TEST(PathMeasures, DeadLinksGiveZeroReachability) {
  PathModelConfig config;
  config.hop_slots = {1};
  config.superframe = net::SuperframeConfig::symmetric(1);
  config.reporting_interval = 3;
  const PathModel model(config);
  const SteadyStateLinks links(
      1, link::LinkModel(1.0, 0.0));  // pi(up) = 0
  const PathMeasures m = compute_path_measures(model, links);
  EXPECT_DOUBLE_EQ(m.reachability, 0.0);
  for (std::size_t i = 0; i < m.cycle_probabilities.size(); ++i)
    EXPECT_DOUBLE_EQ(m.delay_probability(i), 0.0);
  EXPECT_DOUBLE_EQ(m.expected_delay_ms, 0.0);
}

TEST(PathMeasures, UtilizationExampleLowBecauseFewSlotsOwned) {
  // Paper Section V-A: Up = 0.14 (3 slots of the 7-slot schedule).
  const PathModel model(example_config(4));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  const PathMeasures m = compute_path_measures(model, links);
  EXPECT_NEAR(m.utilization, 0.14, 0.015);
}

TEST(PathMeasures, DelayPercentilesAndCdf) {
  const PathModel model(example_config(4));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  const PathMeasures m = compute_path_measures(model, links);
  // tau = (0.4384, 0.3288, 0.1644, 0.0685): the median is the first
  // delay, the 90th percentile the third.
  EXPECT_DOUBLE_EQ(m.delay_percentile_ms(0.0), 70.0);
  EXPECT_DOUBLE_EQ(m.delay_percentile_ms(0.5), 210.0);
  EXPECT_DOUBLE_EQ(m.delay_percentile_ms(0.9), 350.0);
  EXPECT_DOUBLE_EQ(m.delay_percentile_ms(1.0), 490.0);
  EXPECT_THROW((void)m.delay_percentile_ms(1.5), precondition_error);

  EXPECT_DOUBLE_EQ(m.delay_cdf(0.0), 0.0);
  EXPECT_NEAR(m.delay_cdf(70.0), m.delay_probability(0), 1e-12);
  EXPECT_NEAR(m.delay_cdf(10000.0), 1.0, 1e-12);
  // CDF is right-continuous at the atoms.
  EXPECT_NEAR(m.delay_cdf(209.0), m.delay_probability(0), 1e-12);
}

TEST(PathMeasures, JitterIsZeroForDegenerateDelay) {
  PathModelConfig config;
  config.hop_slots = {1};
  config.superframe = net::SuperframeConfig::symmetric(1);
  config.reporting_interval = 1;
  const PathModel model(config);
  const SteadyStateLinks links(1, link::LinkModel::from_availability(0.9));
  const PathMeasures m = compute_path_measures(model, links);
  EXPECT_DOUBLE_EQ(m.delay_jitter_ms, 0.0);  // single possible delay
}

TEST(PathMeasures, JitterGrowsWithWorseLinks) {
  const PathModel model(example_config(4));
  const auto jitter = [&](double pi) {
    const SteadyStateLinks links(3,
                                 link::LinkModel::from_availability(pi));
    return compute_path_measures(model, links).delay_jitter_ms;
  };
  EXPECT_GT(jitter(0.7), jitter(0.9));
  EXPECT_GT(jitter(0.9), jitter(0.99));
}

TEST(MeasuresFromCycles, SizeMismatchThrows) {
  const PathModelConfig config = example_config(4);
  EXPECT_THROW(measures_from_cycles(config, {0.5, 0.5}, 1.0),
               precondition_error);
}

TEST(ClosedFormTransmissions, OneHopMatchesDirectSum) {
  // 1 hop, cycles g = (ps, pf ps, pf^2 ps, ...): attempts = i per cycle i.
  const std::vector<double> cycles{0.8, 0.16, 0.032, 0.0064};
  const double expected =
      0.8 * 1 + 0.16 * 2 + 0.032 * 3 + 0.0064 * 4 + (1 - 0.9984) * 4;
  EXPECT_NEAR(closed_form_transmissions(cycles, 1, 4), expected, 1e-12);
}

TEST(ClosedFormTransmissions, CycleCountMismatchThrows) {
  EXPECT_THROW(closed_form_transmissions({0.5}, 1, 2), precondition_error);
}

}  // namespace
}  // namespace whart::hart
