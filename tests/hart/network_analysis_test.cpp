#include "whart/hart/network_analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "whart/common/contracts.hpp"
#include "whart/hart/analytic.hpp"
#include "whart/link/channel_model.hpp"
#include "whart/net/plant_generator.hpp"
#include "whart/net/typical_network.hpp"
#include "whart/phy/frame.hpp"

namespace whart::hart {
namespace {

NetworkMeasures typical_measures(double availability,
                                 bool use_eta_b = false) {
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(availability));
  return analyze_network(t.network, t.paths,
                         use_eta_b ? t.eta_b : t.eta_a, t.superframe,
                         net::kTypicalReportingInterval);
}

TEST(NetworkAnalysis, TenPathMeasures) {
  const NetworkMeasures m = typical_measures(0.83);
  EXPECT_EQ(m.per_path.size(), 10u);
}

TEST(NetworkAnalysis, ReachabilityDecreasesWithHopCount) {
  const NetworkMeasures m = typical_measures(0.83);
  // Paths 1-3 (one hop) > paths 4-8 (two hops) > paths 9-10 (three hops).
  EXPECT_GT(m.per_path[0].reachability, m.per_path[4].reachability);
  EXPECT_GT(m.per_path[4].reachability, m.per_path[9].reachability);
}

TEST(NetworkAnalysis, MeanDelayMatchesPaperFig15) {
  // Paper: E[Gamma] = 235 ms for eta_a at pi(up) = 0.83.
  const NetworkMeasures m = typical_measures(0.83);
  EXPECT_NEAR(m.mean_delay_ms, 235.0, 1.5);
}

TEST(NetworkAnalysis, BottleneckIsPathTen) {
  // Paper: path 10 has E[tau] ~ 421 ms under eta_a.
  const NetworkMeasures m = typical_measures(0.83);
  EXPECT_EQ(m.bottleneck_by_delay, 9u);
  EXPECT_NEAR(m.per_path[9].expected_delay_ms, 421.4, 1.0);
  EXPECT_EQ(m.bottleneck_by_reachability, 8u);  // first 3-hop path
}

TEST(NetworkAnalysis, OverallDelayDistributionSumsToMeanReachShare) {
  const NetworkMeasures m = typical_measures(0.83);
  double mass = 0.0;
  for (const auto& point : m.overall_delay_distribution)
    mass += point.probability;
  // Each path's tau sums to 1, so the average sums to 1.
  EXPECT_NEAR(mass, 1.0, 1e-12);
  // Sorted ascending by delay.
  for (std::size_t i = 1; i < m.overall_delay_distribution.size(); ++i)
    EXPECT_LT(m.overall_delay_distribution[i - 1].delay_ms,
              m.overall_delay_distribution[i].delay_ms);
}

TEST(NetworkAnalysis, OverallDelayFirstCycleShareMatchesPaperFig14) {
  // Paper: 70.8% of the messages reach the gateway in the first cycle and
  // 21.7% in the second.
  const NetworkMeasures m = typical_measures(0.83);
  double first_cycle = 0.0;
  double second_cycle = 0.0;
  for (const auto& point : m.overall_delay_distribution) {
    if (point.delay_ms < 400.0)
      first_cycle += point.probability;
    else if (point.delay_ms < 800.0)
      second_cycle += point.probability;
  }
  EXPECT_NEAR(first_cycle, 0.708, 0.005);
  EXPECT_NEAR(second_cycle, 0.217, 0.005);
}

TEST(NetworkAnalysis, UtilizationDecreasesWithAvailability) {
  // Paper Table II: utilization falls from 0.313 at 0.693 to 0.24 at
  // 0.989.
  double previous = 1.0;
  for (double pi : {0.693, 0.774, 0.83, 0.903, 0.948, 0.989}) {
    const NetworkMeasures m = typical_measures(pi);
    EXPECT_LT(m.network_utilization, previous) << "pi=" << pi;
    previous = m.network_utilization;
  }
}

TEST(NetworkAnalysis, UtilizationMatchesPaperTable2Anchors) {
  // Table II uses delivered-only accounting; at these availabilities the
  // discard mass is tiny, so the exact count is close as well.
  EXPECT_NEAR(typical_measures(0.903).network_utilization_delivered, 0.263,
              0.002);
  EXPECT_NEAR(typical_measures(0.948).network_utilization_delivered, 0.250,
              0.002);
  EXPECT_NEAR(typical_measures(0.989).network_utilization_delivered, 0.240,
              0.002);
  EXPECT_NEAR(typical_measures(0.948).network_utilization, 0.250, 0.005);
}

TEST(NetworkAnalysis, EtaBBalancesDelays) {
  const NetworkMeasures a = typical_measures(0.83, false);
  const NetworkMeasures b = typical_measures(0.83, true);
  // Paper Fig. 16: path 10 drops from ~421 to ~291 ms...
  EXPECT_NEAR(b.per_path[9].expected_delay_ms, 291.9, 1.0);
  // ... the spread narrows ...
  const auto spread = [](const NetworkMeasures& m) {
    double lo = 1e18;
    double hi = 0.0;
    for (const auto& p : m.per_path) {
      lo = std::min(lo, p.expected_delay_ms);
      hi = std::max(hi, p.expected_delay_ms);
    }
    return hi - lo;
  };
  EXPECT_LT(spread(b), spread(a));
  // ... and the overall mean rises slightly (paper: 235 -> 272 ms).
  EXPECT_NEAR(b.mean_delay_ms, 272.0, 1.5);
  EXPECT_GT(b.mean_delay_ms, a.mean_delay_ms);
}

TEST(NetworkAnalysis, ReachabilityUnaffectedBySchedulePolicy) {
  const NetworkMeasures a = typical_measures(0.83, false);
  const NetworkMeasures b = typical_measures(0.83, true);
  for (std::size_t p = 0; p < 10; ++p)
    EXPECT_NEAR(a.per_path[p].reachability, b.per_path[p].reachability,
                1e-12);
}

TEST(NetworkAnalysis, DiagnosticsAccountForEveryPath) {
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));

  // Every path is a walk with per-path diagnostics.
  const NetworkMeasures direct =
      analyze_network(t.network, t.paths, t.eta_a, t.superframe,
                      net::kTypicalReportingInterval);
  EXPECT_EQ(direct.diagnostics.dtmc_solves, t.paths.size());
  EXPECT_GT(direct.diagnostics.states_solved, 0u);
  EXPECT_LT(direct.diagnostics.max_mass_residual, 1e-9);
  for (const PathMeasures& m : direct.per_path) {
    ASSERT_TRUE(m.diagnostics.has_value());
    EXPECT_GT(m.diagnostics->dtmc_states, 0u);
    EXPECT_EQ(m.diagnostics->dtmc_states,
              m.diagnostics->transient_states +
                  m.diagnostics->absorbing_states);
    EXPECT_EQ(m.diagnostics->forward_steps,
              std::uint64_t{net::kTypicalReportingInterval} *
                  t.superframe.uplink_slots);
  }
}

/// Gamma must equal an ordered map keyed by slot, filled in path order:
/// the very same bins, doubles and (ascending) order.  The map takes
/// each delay's slot from the schedule, a0 + i (Fup + Fdown) with a0 the
/// path's gateway slot, not from the measures.
void expect_gamma_matches_slot_map(const NetworkMeasures& m,
                                   const net::Schedule& schedule,
                                   net::SuperframeConfig superframe) {
  const double path_count = static_cast<double>(m.per_path.size());
  std::map<std::uint64_t, double> reference;
  for (std::size_t p = 0; p < m.per_path.size(); ++p) {
    const PathMeasures& path = m.per_path[p];
    const std::uint64_t a0 = schedule.path_slots(p).hop_slots.back();
    for (std::size_t i = 0; i < path.cycle_probabilities.size(); ++i)
      reference[a0 + i * superframe.cycle_slots()] +=
          path.delay_probability(i) / path_count;
  }
  ASSERT_EQ(m.overall_delay_distribution.size(), reference.size());
  std::size_t k = 0;
  for (const auto& [slot, probability] : reference) {
    EXPECT_EQ(m.overall_delay_distribution[k].delay_ms,
              static_cast<double>(slot) * phy::kSlotMilliseconds);
    EXPECT_EQ(m.overall_delay_distribution[k].probability, probability);
    ++k;
  }
}

TEST(NetworkAnalysis, AggregateMatchesAnOrderedMapReferenceBitwise) {
  net::PlantProfile profile;
  profile.device_count = 200;
  profile.seed = 2;
  const net::GeneratedPlant plant = net::generate_plant(profile);
  expect_gamma_matches_slot_map(
      analyze_network(plant.network, plant.paths, plant.schedule,
                      plant.superframe, 4),
      plant.schedule, plant.superframe);

  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  for (const std::uint32_t is : {2u, 4u}) {
    SCOPED_TRACE("eta_a, Is = " + std::to_string(is));
    expect_gamma_matches_slot_map(
        analyze_network(t.network, t.paths, t.eta_a, t.superframe, is),
        t.eta_a, t.superframe);
  }
}

/// Measures of one path built by hand: gateway slot a0 in a 6-slot
/// cycle, cycle probabilities g.
PathMeasures hand_built(std::uint32_t a0, std::vector<double> g) {
  PathMeasures m;
  m.gateway_slot = a0;
  m.cycle_slots = 6;
  m.reachability = std::accumulate(g.begin(), g.end(), 0.0);
  m.cycle_probabilities = std::move(g);
  return m;
}

TEST(NetworkAnalysis, AggregateKeepsTouchedZeroMassBins) {
  // A bin some path reaches with zero mass still appears in Gamma.
  const PathMeasures a = hand_built(3, {1.0, 0.0});  // 30 and 90 ms
  const PathMeasures b = hand_built(5, {1.0});       // 50 ms
  const NetworkMeasures m = aggregate_measures({a, b});
  ASSERT_EQ(m.overall_delay_distribution.size(), 3u);
  EXPECT_EQ(m.overall_delay_distribution[0].delay_ms, 30.0);
  EXPECT_EQ(m.overall_delay_distribution[1].delay_ms, 50.0);
  EXPECT_EQ(m.overall_delay_distribution[2].delay_ms, 90.0);
  EXPECT_EQ(m.overall_delay_distribution[2].probability, 0.0);

  // A third path on a's gateway slot lands in a's bins, its mass added
  // after a's.
  const PathMeasures c = hand_built(3, {0.25, 0.5});
  const NetworkMeasures shared = aggregate_measures({a, b, c});
  const std::vector<DelayProbability> want{
      {30.0, 1.0 / 3.0 + c.delay_probability(0) / 3.0},
      {50.0, 1.0 / 3.0},
      {90.0, 0.0 / 3.0 + c.delay_probability(1) / 3.0}};
  EXPECT_EQ(shared.overall_delay_distribution, want);
}

TEST(NetworkAnalysis, AggregateRejectsPathsOutsideOneFrame) {
  // Gamma's slot order needs one cycle length and 1 <= a0 <= it.
  PathMeasures other_frame = hand_built(3, {1.0});
  other_frame.cycle_slots = 8;
  EXPECT_THROW(aggregate_measures({hand_built(3, {1.0}), other_frame}),
               precondition_error);
  EXPECT_THROW(aggregate_measures({hand_built(7, {1.0})}), precondition_error);
  EXPECT_THROW(aggregate_measures({hand_built(0, {1.0})}), precondition_error);
}

TEST(NetworkAnalysis, AggregateRejectsEmptyInput) {
  EXPECT_THROW(aggregate_measures({}), precondition_error);
}

/// The typical network (eta_a, Is = 4) analysed under `options`.
NetworkMeasures analyze_typical(const AnalysisOptions& options) {
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  return analyze_network(t.network, t.paths, t.eta_a, t.superframe,
                         net::kTypicalReportingInterval, options);
}

AnalysisOptions bursty_options() {
  AnalysisOptions options;
  options.channel =
      link::ChannelModel::gilbert_elliott(0.005, 0.0125, 0.0, 1.0);
  return options;
}

TEST(NetworkAnalysis, DefaultKernelIsPickedPerPathKind) {
  // Every path walks its firing table, i.i.d. and channel-enlarged paths
  // alike (a two-state channel doubles each hop's block), and the
  // e2e-only use_cache, reuse_skeleton and kernel fields change no bit.
  const net::TypicalNetwork t = net::make_typical_network();
  for (const bool bursty : {false, true}) {
    SCOPED_TRACE(bursty ? "bursty" : "iid");
    const AnalysisOptions defaults =
        bursty ? bursty_options() : AnalysisOptions{};
    AnalysisOptions inert = defaults;
    inert.use_cache = false;
    inert.reuse_skeleton = false;
    inert.kernel = TransientKernel::kPerSlot;
    const NetworkMeasures want = analyze_typical(defaults);
    const NetworkMeasures got = analyze_typical(inert);
    ASSERT_EQ(got.per_path.size(), t.paths.size());
    for (std::size_t p = 0; p < t.paths.size(); ++p) {
      ASSERT_TRUE(got.per_path[p].diagnostics.has_value());
      EXPECT_EQ(got.per_path[p].diagnostics, want.per_path[p].diagnostics);
      EXPECT_EQ(got.per_path[p].cycle_probabilities,
                want.per_path[p].cycle_probabilities);
      if (bursty) {
        EXPECT_EQ(got.per_path[p].diagnostics->transient_states,
                  2 * t.paths[p].hop_count());
      }
    }
    EXPECT_EQ(got.mean_delay_ms, want.mean_delay_ms);
  }
}

TEST(NetworkAnalysis, DefaultKernelMatchesPerSlotOnGeneratedPlants) {
  // The default answer on 200-device plants stays within 1e-12
  // (relative) of the closed-form analytic model, an independent
  // reference, on every in-order path and every measure it derives
  // exactly (its utilization charges each lost message a full
  // hops + Is - 1 attempts, so it is left out).
  const auto close = [](double a, double b) {
    return std::abs(a - b) <=
           1e-12 * std::max({std::abs(a), std::abs(b), 1.0});
  };
  for (const std::uint64_t seed : {3u, 5u}) {
    net::PlantProfile profile;
    profile.device_count = 200;
    profile.seed = seed;
    const net::GeneratedPlant plant = net::generate_plant(profile);
    const NetworkMeasures m = analyze_network(
        plant.network, plant.paths, plant.schedule, plant.superframe, 4);
    ASSERT_EQ(m.per_path.size(), plant.paths.size());
    std::size_t compared = 0;
    for (std::size_t p = 0; p < m.per_path.size(); ++p) {
      const PathModelConfig config = PathModelConfig::from_schedule(
          plant.schedule, p, plant.superframe, 4);
      if (!std::is_sorted(config.hop_slots.begin(), config.hop_slots.end()))
        continue;  // the closed form needs hops in slot order
      std::vector<double> availability;
      for (const link::LinkModel& link :
           plant.paths[p].hop_models(plant.network))
        availability.push_back(link.steady_state_availability());
      const PathMeasures want = analytic_path_measures(config, availability);
      const PathMeasures& got = m.per_path[p];
      ++compared;
      EXPECT_TRUE(close(got.reachability, want.reachability)) << p;
      EXPECT_TRUE(close(got.expected_delay_ms, want.expected_delay_ms)) << p;
      EXPECT_TRUE(close(got.delay_jitter_ms, want.delay_jitter_ms)) << p;
      EXPECT_EQ(got.cycle_probabilities.size(),
                want.cycle_probabilities.size());
    }
    EXPECT_GT(compared, m.per_path.size() / 2) << "seed " << seed;
  }
}

}  // namespace
}  // namespace whart::hart
