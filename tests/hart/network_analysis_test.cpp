#include "whart/hart/network_analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
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

TEST(NetworkAnalysis, AggregateMatchesAnOrderedMapReferenceBitwise) {
  // Gamma accumulates in a flat array over the slot bins; an ordered map
  // keyed by slot bin, filled in the same path order, must give the very
  // same bins, doubles and (ascending) order.
  net::PlantProfile profile;
  profile.device_count = 200;
  profile.seed = 2;
  const net::GeneratedPlant plant = net::generate_plant(profile);
  AnalysisOptions options;
  options.kernel = TransientKernel::kSuperframeProduct;
  const NetworkMeasures m = analyze_network(
      plant.network, plant.paths, plant.schedule, plant.superframe, 4, options);

  const double path_count = static_cast<double>(m.per_path.size());
  std::map<std::int64_t, double> reference;
  for (const PathMeasures& path : m.per_path)
    for (std::size_t i = 0; i < path.delays_ms.size(); ++i)
      reference[static_cast<std::int64_t>(
          std::llround(path.delays_ms[i] / phy::kSlotMilliseconds))] +=
          path.delay_distribution[i] / path_count;
  ASSERT_EQ(m.overall_delay_distribution.size(), reference.size());
  std::size_t k = 0;
  for (const auto& [slot, probability] : reference) {
    EXPECT_EQ(m.overall_delay_distribution[k].delay_ms,
              static_cast<double>(slot) * phy::kSlotMilliseconds);
    EXPECT_EQ(m.overall_delay_distribution[k].probability, probability);
    ++k;
  }
}

TEST(NetworkAnalysis, AggregateKeepsTouchedZeroMassBins) {
  // A bin some path reaches with zero mass still appears in Gamma.
  PathMeasures a;
  a.delays_ms = {30.0, 90.0};
  a.delay_distribution = {1.0, 0.0};
  PathMeasures b;
  b.delays_ms = {50.0};
  b.delay_distribution = {1.0};
  const NetworkMeasures m = aggregate_measures({a, b});
  ASSERT_EQ(m.overall_delay_distribution.size(), 3u);
  EXPECT_EQ(m.overall_delay_distribution[0].delay_ms, 30.0);
  EXPECT_EQ(m.overall_delay_distribution[1].delay_ms, 50.0);
  EXPECT_EQ(m.overall_delay_distribution[2].delay_ms, 90.0);
  EXPECT_EQ(m.overall_delay_distribution[2].probability, 0.0);
}

TEST(NetworkAnalysis, AggregateRejectsEmptyInput) {
  EXPECT_THROW(aggregate_measures({}), precondition_error);
}

/// Analyse the typical network (eta_a, Is = 4) under `options` and
/// require every path to report `kernel` as the solver that ran.
void expect_every_path_solved_by(const AnalysisOptions& options,
                                 TransientKernel kernel) {
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  const NetworkMeasures m =
      analyze_network(t.network, t.paths, t.eta_a, t.superframe,
                      net::kTypicalReportingInterval, options);
  ASSERT_EQ(m.per_path.size(), t.paths.size());
  for (const PathMeasures& path : m.per_path) {
    ASSERT_TRUE(path.diagnostics.has_value());
    EXPECT_EQ(path.diagnostics->kernel, kernel);
  }
}

AnalysisOptions bursty_options() {
  AnalysisOptions options;
  options.channel =
      link::ChannelModel::gilbert_elliott(0.005, 0.0125, 0.0, 1.0);
  return options;
}

TEST(NetworkAnalysis, DefaultKernelIsPickedPerPathKind) {
  // The default picks the same solver for each path kind: i.i.d.
  // steady-state and channel-enlarged paths both walk their firing
  // tables, and the e2e-only use_cache/reuse_skeleton fields change
  // nothing.
  AnalysisOptions iid;
  expect_every_path_solved_by(iid, TransientKernel::kPerSlot);
  iid.use_cache = false;
  iid.reuse_skeleton = false;
  expect_every_path_solved_by(iid, TransientKernel::kPerSlot);
  expect_every_path_solved_by(bursty_options(), TransientKernel::kPerSlot);
}

TEST(NetworkAnalysis, ExplicitKernelIsHonouredOnBothPathKinds) {
  // i.i.d. paths run whichever kernel is forced.  Channel paths have one
  // solver, the firing-table walk: a forced superframe product walks
  // them too, reports kPerSlot and counts one kernel fallback per path.
  common::obs::set_metrics_enabled(true);
  const auto fallbacks = [] {
    const auto counters = common::obs::Registry::instance().snapshot().counters;
    const auto it = counters.find("hart.path_solve.kernel_fallback");
    return it == counters.end() ? std::uint64_t{0} : it->second;
  };
  for (const TransientKernel kernel :
       {TransientKernel::kPerSlot, TransientKernel::kSuperframeProduct}) {
    AnalysisOptions iid;
    iid.kernel = kernel;
    expect_every_path_solved_by(iid, kernel);
    AnalysisOptions bursty = bursty_options();
    bursty.kernel = kernel;
    const std::uint64_t before = fallbacks();
    expect_every_path_solved_by(bursty, TransientKernel::kPerSlot);
    const std::uint64_t expected =
        kernel == TransientKernel::kSuperframeProduct
            ? net::make_typical_network().paths.size()
            : 0;
    EXPECT_EQ(fallbacks() - before, expected);
  }
}

TEST(NetworkAnalysis, DefaultKernelMatchesPerSlotOnGeneratedPlants) {
  // The default answer on 200-device plants is the forced per-slot walk,
  // bit for bit, and stays within 1e-12 (relative) of the superframe
  // collapse, the independent reference, on every measure a user reads.
  const auto close = [](double a, double b) {
    return std::abs(a - b) <=
           1e-12 * std::max({std::abs(a), std::abs(b), 1.0});
  };
  for (const std::uint64_t seed : {3u, 5u}) {
    net::PlantProfile profile;
    profile.device_count = 200;
    profile.seed = seed;
    const net::GeneratedPlant plant = net::generate_plant(profile);
    AnalysisOptions per_slot;
    per_slot.kernel = TransientKernel::kPerSlot;
    const NetworkMeasures walked =
        analyze_network(plant.network, plant.paths, plant.schedule,
                        plant.superframe, 4, per_slot);
    AnalysisOptions collapse;
    collapse.kernel = TransientKernel::kSuperframeProduct;
    const NetworkMeasures reference =
        analyze_network(plant.network, plant.paths, plant.schedule,
                        plant.superframe, 4, collapse);
    const NetworkMeasures m = analyze_network(
        plant.network, plant.paths, plant.schedule, plant.superframe, 4);
    EXPECT_EQ(m.mean_delay_ms, walked.mean_delay_ms);
    ASSERT_EQ(m.per_path.size(), reference.per_path.size());
    EXPECT_TRUE(close(m.mean_delay_ms, reference.mean_delay_ms));
    EXPECT_TRUE(close(m.network_utilization, reference.network_utilization));
    EXPECT_TRUE(close(m.network_utilization_delivered,
                      reference.network_utilization_delivered));
    for (std::size_t p = 0; p < m.per_path.size(); ++p) {
      const PathMeasures& got = m.per_path[p];
      const PathMeasures& want = reference.per_path[p];
      ASSERT_EQ(got.diagnostics->kernel, TransientKernel::kPerSlot);
      ASSERT_EQ(want.diagnostics->kernel,
                TransientKernel::kSuperframeProduct);
      EXPECT_EQ(got.cycle_probabilities,
                walked.per_path[p].cycle_probabilities);
      EXPECT_EQ(got.utilization_delivered,
                walked.per_path[p].utilization_delivered);
      EXPECT_TRUE(close(got.reachability, want.reachability)) << p;
      EXPECT_TRUE(close(got.expected_delay_ms, want.expected_delay_ms)) << p;
      EXPECT_TRUE(close(got.delay_jitter_ms, want.delay_jitter_ms)) << p;
      EXPECT_TRUE(close(got.utilization, want.utilization)) << p;
      EXPECT_TRUE(
          close(got.utilization_delivered, want.utilization_delivered))
          << p;
    }
  }
}

}  // namespace
}  // namespace whart::hart
