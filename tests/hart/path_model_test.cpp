#include "whart/hart/path_model.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/hart/network_analysis.hpp"
#include "whart/hart/sweep.hpp"
#include "whart/hart/what_if.hpp"
#include "whart/markov/transient.hpp"
#include "whart/net/typical_network.hpp"
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

/// Records every (hop, absolute slot) the walk asks about; hop h
/// succeeds with 0.6 + 0.1 h.
class RecordingLinks final : public LinkProbabilityProvider {
 public:
  explicit RecordingLinks(std::size_t hops) : hops_(hops) {}
  double up_probability(std::size_t hop,
                        std::uint64_t absolute_slot) const override {
    asked.emplace_back(hop, absolute_slot);
    return 0.6 + 0.1 * static_cast<double>(hop);
  }
  std::size_t hop_count() const override { return hops_; }

  mutable std::vector<std::pair<std::size_t, std::uint64_t>> asked;

 private:
  std::size_t hops_;
};

struct Firing {
  std::size_t hop = 0;
  std::uint32_t slot = 0;  // uplink slot, counted across cycles
  std::uint32_t cycle = 0;
};

/// The firings up to the TTL as the j / count, j % count enumeration
/// over opportunities() finds them.
std::vector<Firing> enumerate_firings(const PathModel& model) {
  const std::span<const PathModel::Opportunity> opportunities =
      model.opportunities();
  const std::size_t count = opportunities.size();
  const std::uint32_t frame = model.config().superframe.uplink_slots;
  std::vector<Firing> firings;
  for (std::size_t j = 0;; ++j) {
    const auto cycle = static_cast<std::uint32_t>(j / count);
    const PathModel::Opportunity& o = opportunities[j % count];
    const std::uint32_t slot = cycle * frame + o.slot;
    if (slot > model.config().effective_ttl()) return firings;
    firings.push_back({o.hop, slot, cycle});
  }
}

/// The walk's deliveries are the last hop's firings in order, and it
/// reads each firing of an i.i.d. hop at that firing's absolute slot.
void expect_walk_enumerates(const PathModelConfig& config,
                            const link::ChannelModel* channel = nullptr) {
  const PathModel model(config);
  const std::size_t hops = config.hop_count();
  const std::vector<Firing> firings = enumerate_firings(model);
  RecordingLinks iid(hops);
  const PathTransientResult result =
      channel != nullptr ? model.analyze(ChannelLinks(hops, *channel))
                         : model.analyze(iid);
  std::vector<Firing> delivered;
  std::vector<std::pair<std::size_t, std::uint64_t>> reads;
  for (const Firing& f : firings) {
    if (f.hop + 1 == hops) delivered.push_back(f);
    reads.emplace_back(f.hop,
                       config.superframe.absolute_slot_of_uplink(f.slot));
  }
  ASSERT_EQ(result.deliveries.size(), delivered.size());
  for (std::size_t d = 0; d < delivered.size(); ++d) {
    EXPECT_EQ(result.deliveries[d].slot, delivered[d].slot) << d;
    EXPECT_EQ(result.deliveries[d].cycle, delivered[d].cycle) << d;
  }
  if (channel != nullptr) return;
  std::sort(reads.begin(), reads.end());
  std::sort(iid.asked.begin(), iid.asked.end());
  EXPECT_EQ(iid.asked, reads);
}

TEST(PathModelWalk, TtlCutMidCycle) {
  PathModelConfig config = example_config(4);
  config.ttl = 17;  // cycle 2 keeps its slot-3 firing only
  expect_walk_enumerates(config);
}

TEST(PathModelWalk, TtlAtACycleBoundary) {
  PathModelConfig config = example_config(4);
  config.ttl = 14;
  expect_walk_enumerates(config);
  expect_walk_enumerates(example_config(4));  // the horizon, Is x Fup
}

TEST(PathModelWalk, TtlOfOneSlot) {
  PathModelConfig config = example_config(2);
  config.ttl = 1;  // before the first firing
  expect_walk_enumerates(config);
  config.hop_slots = {1, 4};
  expect_walk_enumerates(config);  // hop 0's slot-1 firing only
}

TEST(PathModelWalk, RetrySlots) {
  PathModelConfig config = example_config(3);
  config.retry_slots = {1, 4, 2};
  expect_walk_enumerates(config);
  config.ttl = 16;
  expect_walk_enumerates(config);
}

TEST(PathModelWalk, OutOfOrderHops) {
  PathModelConfig config = example_config(4);
  config.hop_slots = {6, 2, 4};
  expect_walk_enumerates(config);
  config.ttl = 23;
  expect_walk_enumerates(config);
}

TEST(PathModelWalk, OneSlotFrame) {
  PathModelConfig config;
  config.hop_slots = {1};
  config.superframe = net::SuperframeConfig{1, 3};
  config.reporting_interval = 5;
  expect_walk_enumerates(config);
  config.ttl = 3;
  expect_walk_enumerates(config);
}

TEST(PathModelWalk, GilbertElliottPath) {
  const link::ChannelModel channel =
      link::ChannelModel::gilbert_elliott(0.05, 0.3, 0.02, 0.6);
  PathModelConfig config = example_config(4);
  config.retry_slots = {1, 0, 2};
  expect_walk_enumerates(config, &channel);
  config.ttl = 17;
  expect_walk_enumerates(config, &channel);
}

TEST(PathModel, SolveDoneEventTimesEachPathLoop) {
  // A loop of walks — analyze_network's paths, a sweep's grid points, a
  // what-if query's affected paths — records one solve_done event (p0 =
  // its walks, p1 = its ns) and one hart.stage.walk.ns sample.  Each
  // walk still bumps hart.path_solve.count, and reads no clock, so two
  // identical walks report equal diagnostics.
  namespace obs = common::obs;
  const bool metrics = obs::metrics_enabled();
  const bool events = obs::events_enabled();
  obs::set_metrics_enabled(true);
  obs::set_events_enabled(true);
  struct Loops {
    std::vector<obs::EventRecord> solve_done;
    std::uint64_t walk_samples = 0;
    std::uint64_t walks = 0;
  };
  const auto observe = [](const auto& run) {
    const auto read = [](std::uint64_t& samples, std::uint64_t& walks) {
      const obs::MetricsSnapshot s = obs::Registry::instance().snapshot();
      const auto h = s.histograms.find("hart.stage.walk.ns");
      const auto c = s.counters.find("hart.path_solve.count");
      samples = h == s.histograms.end() ? 0 : h->second.count;
      walks = c == s.counters.end() ? 0 : c->second;
    };
    obs::EventLog::instance().clear();
    std::uint64_t samples = 0;
    std::uint64_t walks = 0;
    read(samples, walks);
    run();
    Loops loops;
    read(loops.walk_samples, loops.walks);
    loops.walk_samples -= samples;
    loops.walks -= walks;
    for (const obs::EventRecord& event : obs::EventLog::instance().events())
      if (event.kind == obs::EventKind::kSolveDone)
        loops.solve_done.push_back(event);
    return loops;
  };

  const net::TypicalNetwork t = net::make_typical_network();
  Loops loops = observe([&] {
    (void)analyze_network(t.network, t.paths, t.eta_a, t.superframe,
                          net::kTypicalReportingInterval);
  });
  ASSERT_EQ(loops.solve_done.size(), 1u);
  EXPECT_EQ(loops.solve_done[0].payload0, 10u);
  EXPECT_GT(loops.solve_done[0].payload1, 0u);
  EXPECT_EQ(loops.walk_samples, 1u);
  EXPECT_EQ(loops.walks, 10u);

  loops = observe([] {
    (void)sweep_availability(example_config(4), linspace(0.7, 0.95, 8));
  });
  ASSERT_EQ(loops.solve_done.size(), 1u);
  EXPECT_EQ(loops.solve_done[0].payload0, 8u);
  EXPECT_EQ(loops.walk_samples, 1u);
  EXPECT_EQ(loops.walks, 8u);

  WhatIfEngine engine(t.network, t.paths, t.eta_a, t.superframe,
                      net::kTypicalReportingInterval);
  const net::LinkId link = t.paths[9].resolve_links(t.network).back();
  const std::size_t affected = engine.paths_using(link);
  ASSERT_GT(affected, 1u);
  loops = observe([&] { (void)engine.what_if(link, 0.9); });
  ASSERT_EQ(loops.solve_done.size(), 1u);
  EXPECT_EQ(loops.solve_done[0].payload0, affected);
  EXPECT_EQ(loops.walk_samples, 1u);
  EXPECT_EQ(loops.walks, affected);

  loops = observe([] { const WalkLoopTimer idle(0); });
  EXPECT_TRUE(loops.solve_done.empty()) << "a loop of no walks";
  EXPECT_EQ(loops.walk_samples, 0u);

  const PathModel model(example_config(4));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(0.75));
  EXPECT_EQ(model.analyze(links).diagnostics,
            model.analyze(links).diagnostics);
  obs::set_metrics_enabled(metrics);
  obs::set_events_enabled(events);
}

}  // namespace
}  // namespace whart::hart
