#include "whart/hart/path_model.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/markov/transient.hpp"
#include "whart/numeric/rng.hpp"

namespace whart::hart {
namespace {

/// The paper's Section V-A example: 3-hop path, Fup = 7, schedule
/// (*, *, <n1,n2>, *, *, <n2,n3>, <n3,G>), i.e. hop slots 3, 6, 7.
PathModelConfig example_config(std::uint32_t is) {
  PathModelConfig config;
  config.hop_slots = {3, 6, 7};
  config.superframe = net::SuperframeConfig::symmetric(7);
  config.reporting_interval = is;
  return config;
}

TEST(PathModelConfig, Derived) {
  const PathModelConfig config = example_config(4);
  EXPECT_EQ(config.hop_count(), 3u);
  EXPECT_EQ(config.horizon(), 28u);
  EXPECT_EQ(config.effective_ttl(), 28u);
  EXPECT_EQ(config.gateway_slot(), 7u);
}

TEST(PathModel, InvalidConfigsThrow) {
  PathModelConfig config = example_config(1);
  config.hop_slots = {};
  EXPECT_THROW(PathModel{config}, precondition_error);
  config = example_config(1);
  config.hop_slots = {3, 8, 7};  // beyond Fup
  EXPECT_THROW(PathModel{config}, precondition_error);
  config = example_config(1);
  config.hop_slots = {3, 3, 7};  // duplicate slot
  EXPECT_THROW(PathModel{config}, precondition_error);
  config = example_config(0);
  EXPECT_THROW(PathModel{config}, precondition_error);
  config = example_config(100000);
  config.superframe = net::SuperframeConfig::symmetric(100000);
  EXPECT_THROW(PathModel{config}, precondition_error);  // Is * Fup wraps
}

TEST(PathModel, CycleThatWraps32BitsIsRefused) {
  // 429,496,729 slots of 10 ms is the longest cycle whose length in ms
  // fits in 32 bits.
  PathModelConfig config = example_config(1);
  config.superframe.downlink_slots = 429496729 - 7;
  EXPECT_NO_THROW(PathModel{config});
  config.superframe.downlink_slots += 1;
  EXPECT_THROW(PathModel{config}, precondition_error);
  config.superframe.downlink_slots = std::numeric_limits<std::uint32_t>::max();
  EXPECT_THROW(PathModel{config}, precondition_error);  // Fup + Fdown wraps
}

TEST(PathModel, SingleCycleGoalProbabilityIsProductOfAvailabilities) {
  const PathModel model(example_config(1));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  const PathTransientResult result = model.analyze(links);
  ASSERT_EQ(result.cycle_probabilities.size(), 1u);
  EXPECT_NEAR(result.cycle_probabilities[0], 0.75 * 0.75 * 0.75, 1e-12);
  EXPECT_NEAR(result.discard_probability,
              1.0 - result.cycle_probabilities[0], 1e-12);
}

TEST(PathModel, MassIsConservedAtHorizon) {
  const PathModel model(example_config(4));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  const PathTransientResult result = model.analyze(links);
  const double mass =
      std::accumulate(result.cycle_probabilities.begin(),
                      result.cycle_probabilities.end(),
                      result.discard_probability);
  EXPECT_NEAR(mass, 1.0, 1e-12);
}

TEST(PathModel, GoalTrajectoryIsMonotoneStepFunction) {
  const PathModel model(example_config(4));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  const PathTransientResult result = model.analyze(links);
  // One delivery record per firing of the last hop: slot 7 of each cycle.
  ASSERT_EQ(result.deliveries.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.deliveries[i].slot, 7 * (i + 1));
    EXPECT_EQ(result.deliveries[i].cycle, i);
    EXPECT_EQ(result.deliveries[i].mass, result.cycle_probabilities[i]);
  }
  const std::vector<std::vector<double>> trajectory =
      goal_trajectory(result, model.config().horizon());
  ASSERT_EQ(trajectory.size(), 29u);  // t = 0..28
  for (std::size_t t = 1; t < trajectory.size(); ++t)
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_GE(trajectory[t][i], trajectory[t - 1][i]);
  // Goal i can only fill at its cycle's gateway slot: t = 7, 14, 21, 28.
  EXPECT_DOUBLE_EQ(trajectory[6][0], 0.0);
  EXPECT_GT(trajectory[7][0], 0.0);
  EXPECT_DOUBLE_EQ(trajectory[13][1], 0.0);
  EXPECT_GT(trajectory[14][1], 0.0);
  EXPECT_EQ(trajectory.back(), result.cycle_probabilities);
}

TEST(PathModel, GoalStateNamesFollowPaper) {
  const PathModel model(example_config(4));
  EXPECT_EQ(model.goal_state_name(1), "R7");
  EXPECT_EQ(model.goal_state_name(2), "R14");
  EXPECT_EQ(model.goal_state_name(4), "R28");
  EXPECT_THROW((void)model.goal_state_name(0), precondition_error);
  EXPECT_THROW((void)model.goal_state_name(5), precondition_error);
}

TEST(PathModel, ExplicitDtmcMatchesForwardAnalysis) {
  const PathModel model(example_config(2));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.83));
  const markov::Dtmc dtmc = model.to_dtmc(links);

  const linalg::Vector final = markov::distribution_after(
      dtmc, markov::point_distribution(dtmc.num_states(), 0),
      model.config().horizon());

  const PathTransientResult forward = model.analyze(links);
  const auto r7 = dtmc.find_state("R7");
  const auto r14 = dtmc.find_state("R14");
  const auto discard = dtmc.find_state("Discard");
  ASSERT_TRUE(r7 && r14 && discard);
  EXPECT_NEAR(final[*r7], forward.cycle_probabilities[0], 1e-12);
  EXPECT_NEAR(final[*r14], forward.cycle_probabilities[1], 1e-12);
  EXPECT_NEAR(final[*discard], forward.discard_probability, 1e-12);
}

TEST(PathModel, DtmcHasPaperStateNames) {
  const PathModel model(example_config(1));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  const markov::Dtmc dtmc = model.to_dtmc(links);
  // The initial state is the fresh message at the source: "(1,-,-)".
  EXPECT_EQ(dtmc.state_name(model.initial_state()), "(1,-,-)");
  EXPECT_TRUE(dtmc.find_state("Discard").has_value());
  EXPECT_TRUE(dtmc.find_state("R7").has_value());
}

TEST(PathModel, StateCountGrowsLinearlyInReportingInterval) {
  // Paper Section IV: complexity O(Is * Fup * n).
  const std::size_t s1 = PathModel(example_config(1)).state_count();
  const std::size_t s2 = PathModel(example_config(2)).state_count();
  const std::size_t s4 = PathModel(example_config(4)).state_count();
  EXPECT_LT(s1, s2);
  EXPECT_LT(s2, s4);
  EXPECT_LE(s4, 4 * 7 * 3 + 4 + 1);
}

/// Reference enumeration of the layered state space: a TTL x hops
/// reachability sweep, where state (t, h) exists when the chain can
/// occupy it before the TTL.
std::size_t enumerated_state_count(const PathModelConfig& config) {
  const std::uint32_t frame = config.superframe.uplink_slots;
  const std::uint32_t ttl = config.effective_ttl();
  const std::size_t hops = config.hop_count();
  const auto hop_in_slot =
      [&](std::uint32_t slot) -> std::optional<std::size_t> {
    const std::uint32_t in_frame = (slot - 1) % frame + 1;
    for (std::size_t h = 0; h < hops; ++h)
      if (config.hop_slots[h] == in_frame) return h;
    for (std::size_t h = 0; h < config.retry_slots.size(); ++h)
      if (config.retry_slots[h] == in_frame) return h;
    return std::nullopt;
  };
  std::vector<std::vector<bool>> reachable(ttl,
                                           std::vector<bool>(hops, false));
  reachable[0][0] = true;
  for (std::uint32_t t = 0; t + 1 < ttl; ++t) {
    const std::optional<std::size_t> firing = hop_in_slot(t + 1);
    for (std::size_t h = 0; h < hops; ++h) {
      if (!reachable[t][h]) continue;
      reachable[t + 1][h] = true;
      if (firing == h && h + 1 < hops) reachable[t + 1][h + 1] = true;
    }
  }
  std::size_t transient = 0;
  for (const std::vector<bool>& layer : reachable)
    transient += static_cast<std::size_t>(
        std::count(layer.begin(), layer.end(), true));
  return transient + config.reporting_interval + 1;
}

void expect_state_count_matches_enumeration(const PathModelConfig& config) {
  const PathModel model(config);
  const std::size_t expected = enumerated_state_count(config);
  EXPECT_EQ(model.state_count(), expected);
  const SteadyStateLinks links(config.hop_count(),
                               link::LinkModel::from_availability(0.8));
  EXPECT_EQ(model.to_dtmc(links).num_states(), expected);
}

TEST(PathModel, ClosedFormStateCountMatchesLayerEnumeration) {
  PathModelConfig config;
  {
    SCOPED_TRACE("retry slots and out-of-order hops");
    config.hop_slots = {6, 2, 4};
    config.retry_slots = {3, 0, 7};
    config.superframe = net::SuperframeConfig::symmetric(8);
    config.reporting_interval = 3;
    expect_state_count_matches_enumeration(config);
  }
  {
    SCOPED_TRACE("TTL cuts mid-cycle and on a cycle boundary");
    config = PathModelConfig{};
    config.hop_slots = {2, 5, 7};
    config.retry_slots = {0, 6, 0};
    config.superframe = net::SuperframeConfig::symmetric(9);
    config.reporting_interval = 4;
    for (const std::uint32_t ttl : {2u * 9u + 5u, 2u * 9u, 6u, 1u}) {
      SCOPED_TRACE("ttl " + std::to_string(ttl));
      config.ttl = ttl;
      expect_state_count_matches_enumeration(config);
    }
  }
  {
    SCOPED_TRACE("Fup = 1");
    config = PathModelConfig{};
    config.hop_slots = {1};
    config.superframe = net::SuperframeConfig::symmetric(1);
    config.reporting_interval = 5;
    expect_state_count_matches_enumeration(config);
  }

  // Seeded random shapes: distinct slots drawn from a shuffled frame,
  // optional retries, Is up to 5 and any TTL up to past the horizon.
  numeric::Xoshiro256 rng(18);
  for (int trial = 0; trial < 2000; ++trial) {
    config = PathModelConfig{};
    const auto frame = static_cast<std::uint32_t>(1 + rng.below(10));
    std::vector<net::SlotNumber> slots(frame);
    std::iota(slots.begin(), slots.end(), 1u);
    for (std::size_t i = slots.size(); i > 1; --i)
      std::swap(slots[i - 1], slots[rng.below(i)]);
    const std::size_t hops = 1 + rng.below(std::min<std::uint32_t>(frame, 5));
    config.hop_slots.assign(slots.begin(), slots.begin() + hops);
    if (rng.below(2) == 1) {
      std::size_t next = hops;
      for (std::size_t h = 0; h < hops; ++h)
        config.retry_slots.push_back(
            next < frame && rng.below(2) == 1 ? slots[next++] : 0);
    }
    config.superframe = net::SuperframeConfig::symmetric(frame);
    config.reporting_interval = static_cast<std::uint32_t>(1 + rng.below(5));
    if (rng.below(2) == 1)
      config.ttl = static_cast<std::uint32_t>(
          1 + rng.below(config.horizon() + 2));
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_EQ(PathModel(config).state_count(),
              enumerated_state_count(config));
  }
}

TEST(PathModel, TtlShorterThanHorizonDiscardsEarly) {
  PathModelConfig config = example_config(4);
  config.ttl = 7;  // only the first cycle is allowed
  const PathModel model(config);
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  const PathTransientResult result = model.analyze(links);
  EXPECT_NEAR(result.cycle_probabilities[0], 0.421875, 1e-12);
  EXPECT_DOUBLE_EQ(result.cycle_probabilities[1], 0.0);
  EXPECT_NEAR(result.discard_probability, 1.0 - 0.421875, 1e-12);
}

TEST(PathModel, OutOfOrderScheduleNeedsExtraCycle) {
  // Hop 2's slot precedes hop 1's: the message always waits one cycle.
  PathModelConfig config;
  config.hop_slots = {5, 2};
  config.superframe = net::SuperframeConfig::symmetric(6);
  config.reporting_interval = 2;
  const PathModel model(config);
  const SteadyStateLinks links(2, link::LinkModel::from_availability(1.0));
  const PathTransientResult result = model.analyze(links);
  EXPECT_DOUBLE_EQ(result.cycle_probabilities[0], 0.0);
  EXPECT_DOUBLE_EQ(result.cycle_probabilities[1], 1.0);
}

TEST(PathModel, PerfectLinksGiveDegenerateChain) {
  const PathModel model(example_config(3));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(1.0));
  const PathTransientResult result = model.analyze(links);
  EXPECT_DOUBLE_EQ(result.cycle_probabilities[0], 1.0);
  EXPECT_DOUBLE_EQ(result.discard_probability, 0.0);
  // The frozen DTMC stays stochastic even with ps = 1 transitions.
  EXPECT_NO_THROW(model.to_dtmc(links));
}

TEST(PathModel, ExpectedTransmissionsSingleCycle) {
  // Is = 1: the message attempts hop 1 always, hop 2 w.p. ps, hop 3 w.p.
  // ps^2 => E[attempts] = 1 + ps + ps^2.
  const PathModel model(example_config(1));
  const double ps = 0.75;
  const SteadyStateLinks links(3, link::LinkModel::from_availability(ps));
  const PathTransientResult result = model.analyze(links);
  EXPECT_NEAR(result.expected_transmissions, 1.0 + ps + ps * ps, 1e-12);
}

TEST(PathModel, PerHopAttemptsSumToTotalAndDecreaseAlongPath) {
  const PathModel model(example_config(4));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  const PathTransientResult result = model.analyze(links);
  ASSERT_EQ(result.expected_transmissions_per_hop.size(), 3u);
  double total = 0.0;
  for (double a : result.expected_transmissions_per_hop) total += a;
  EXPECT_NEAR(total, result.expected_transmissions, 1e-12);
  // Later hops see the message only after earlier hops succeeded, so
  // their attempt counts cannot exceed the first hop's.
  EXPECT_GE(result.expected_transmissions_per_hop[0],
            result.expected_transmissions_per_hop[1]);
  EXPECT_GE(result.expected_transmissions_per_hop[1],
            result.expected_transmissions_per_hop[2]);
}

TEST(PathModel, ProviderWithTooFewHopsThrows) {
  const PathModel model(example_config(1));
  const SteadyStateLinks links(2, link::LinkModel::from_availability(0.9));
  EXPECT_THROW(model.analyze(links), precondition_error);
}

TEST(PathModel, SolveDoneEventCarriesTheSolveTime) {
  // The flight recorder's solve_done event reports the solve's own
  // wall-clock (p1) next to its state count (p0), for the walk and for
  // the superframe collapse.
  namespace obs = common::obs;
  const bool metrics = obs::metrics_enabled();
  const bool events = obs::events_enabled();
  obs::set_metrics_enabled(true);
  obs::set_events_enabled(true);
  const PathModel model(example_config(4));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  for (const TransientKernel kernel :
       {TransientKernel::kPerSlot, TransientKernel::kSuperframeProduct}) {
    obs::EventLog& log = obs::EventLog::instance();
    log.clear();
    PathAnalysisOptions options;
    options.kernel = kernel;
    const PathTransientResult result = model.analyze(links, options);
    ASSERT_EQ(result.diagnostics.kernel, kernel);
    std::vector<obs::EventRecord> solves;
    for (const obs::EventRecord& event : log.events())
      if (event.kind == obs::EventKind::kSolveDone) solves.push_back(event);
    ASSERT_EQ(solves.size(), 1u);
    EXPECT_EQ(solves[0].payload0, result.diagnostics.dtmc_states);
    EXPECT_EQ(solves[0].payload1, result.diagnostics.solve_ns);
    EXPECT_GT(solves[0].payload1, 0u);
  }
  obs::set_metrics_enabled(metrics);
  obs::set_events_enabled(events);
}

}  // namespace
}  // namespace whart::hart
