// Golden tests of the parallel engine: every fan-out path must produce
// results identical (==, not approximately) to its serial counterpart,
// whatever the thread count.
#include <vector>

#include <gtest/gtest.h>

#include "whart/hart/network_analysis.hpp"
#include "whart/hart/schedule_optimizer.hpp"
#include "whart/hart/sensitivity.hpp"
#include "whart/hart/sweep.hpp"
#include "whart/net/plant_generator.hpp"
#include "whart/net/typical_network.hpp"
#include "whart/sim/simulator.hpp"

namespace whart::hart {
namespace {

void expect_identical(const PathMeasures& a, const PathMeasures& b) {
  EXPECT_EQ(a.cycle_probabilities, b.cycle_probabilities);
  EXPECT_EQ(a.reachability, b.reachability);
  EXPECT_EQ(a.discard_probability, b.discard_probability);
  EXPECT_EQ(a.gateway_slot, b.gateway_slot);
  EXPECT_EQ(a.cycle_slots, b.cycle_slots);
  EXPECT_EQ(a.expected_delay_ms, b.expected_delay_ms);
  EXPECT_EQ(a.expected_transmissions, b.expected_transmissions);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.utilization_delivered, b.utilization_delivered);
  EXPECT_EQ(a.expected_intervals_to_first_loss,
            b.expected_intervals_to_first_loss);
  EXPECT_EQ(a.delay_jitter_ms, b.delay_jitter_ms);
}

void expect_identical(const NetworkMeasures& a, const NetworkMeasures& b) {
  ASSERT_EQ(a.per_path.size(), b.per_path.size());
  for (std::size_t p = 0; p < a.per_path.size(); ++p)
    expect_identical(a.per_path[p], b.per_path[p]);
  ASSERT_EQ(a.overall_delay_distribution.size(),
            b.overall_delay_distribution.size());
  for (std::size_t i = 0; i < a.overall_delay_distribution.size(); ++i) {
    EXPECT_EQ(a.overall_delay_distribution[i].delay_ms,
              b.overall_delay_distribution[i].delay_ms);
    EXPECT_EQ(a.overall_delay_distribution[i].probability,
              b.overall_delay_distribution[i].probability);
  }
  EXPECT_EQ(a.mean_delay_ms, b.mean_delay_ms);
  EXPECT_EQ(a.network_utilization, b.network_utilization);
  EXPECT_EQ(a.network_utilization_delivered,
            b.network_utilization_delivered);
  EXPECT_EQ(a.bottleneck_by_delay, b.bottleneck_by_delay);
  EXPECT_EQ(a.bottleneck_by_reachability, b.bottleneck_by_reachability);
}

void expect_identical(const SweepSeries& a, const SweepSeries& b) {
  EXPECT_EQ(a.parameter_name, b.parameter_name);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].parameter, b.points[i].parameter);
    expect_identical(a.points[i].measures, b.points[i].measures);
  }
}

AnalysisOptions serial_options() {
  AnalysisOptions options;
  options.threads = 1;
  return options;
}

TEST(ParallelGolden, NetworkAnalysisTypical) {
  const net::TypicalNetwork t = net::make_typical_network();
  const NetworkMeasures serial =
      analyze_network(t.network, t.paths, t.eta_a, t.superframe, 4,
                      serial_options());
  for (unsigned threads : {2u, 4u, 8u}) {
    AnalysisOptions options;
    options.threads = threads;
    expect_identical(analyze_network(t.network, t.paths, t.eta_a,
                                     t.superframe, 4, options),
                     serial);
  }
}

TEST(ParallelGolden, NetworkAnalysisGeneratedPlantCachedAndThreaded) {
  // use_cache is read by nothing (it stays because e2ebench sets it):
  // set or not, every thread count reproduces the serial result.
  net::PlantProfile profile;
  profile.device_count = 60;
  profile.seed = 11;
  const net::GeneratedPlant plant = net::generate_plant(profile);
  AnalysisOptions serial = serial_options();
  serial.use_cache = false;
  const NetworkMeasures serial_measures =
      analyze_network(plant.network, plant.paths, plant.schedule,
                      plant.superframe, 4, serial);
  for (const bool use_cache : {false, true}) {
    for (unsigned threads : {1u, 2u, 4u}) {
      AnalysisOptions options;
      options.threads = threads;
      options.use_cache = use_cache;
      expect_identical(
          analyze_network(plant.network, plant.paths, plant.schedule,
                          plant.superframe, 4, options),
          serial_measures);
    }
  }
}

TEST(ParallelGolden, SweepAvailability) {
  PathModelConfig config;
  config.hop_slots = {1, 2, 3};
  config.superframe = net::SuperframeConfig::symmetric(20);
  config.reporting_interval = 4;
  const std::vector<double> grid = linspace(0.5, 0.99, 25);
  expect_identical(sweep_availability(config, grid, 4),
                   sweep_availability(config, grid, 1));
}

TEST(ParallelGolden, SweepBer) {
  PathModelConfig config;
  config.hop_slots = {1, 2};
  config.superframe = net::SuperframeConfig::symmetric(10);
  config.reporting_interval = 4;
  const std::vector<double> grid{1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2};
  expect_identical(sweep_ber(config, grid, 4), sweep_ber(config, grid, 1));
}

TEST(ParallelGolden, SweepHopCount) {
  const net::SuperframeConfig superframe =
      net::SuperframeConfig::symmetric(20);
  expect_identical(sweep_hop_count(12, 0.83, superframe, 4, 4),
                   sweep_hop_count(12, 0.83, superframe, 4, 1));
}

TEST(ParallelGolden, SweepReportingInterval) {
  PathModelConfig config;
  config.hop_slots = {1, 2, 3};
  config.superframe = net::SuperframeConfig::symmetric(20);
  config.reporting_interval = 4;
  const std::vector<std::uint32_t> intervals{1, 2, 4, 8, 16, 32};
  expect_identical(
      sweep_reporting_interval_series(config, 0.83, intervals, 4),
      sweep_reporting_interval_series(config, 0.83, intervals, 1));
}

TEST(ParallelGolden, RankLinkUpgrades) {
  const net::TypicalNetwork t = net::make_typical_network();
  const std::vector<LinkSensitivity> serial = rank_link_upgrades(
      t.network, t.paths, t.eta_a, t.superframe, 4, 1);
  const std::vector<LinkSensitivity> parallel = rank_link_upgrades(
      t.network, t.paths, t.eta_a, t.superframe, 4, 4);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].link.value, serial[i].link.value);
    EXPECT_EQ(parallel[i].total_dR_dpi, serial[i].total_dR_dpi);
    EXPECT_EQ(parallel[i].paths_using, serial[i].paths_using);
  }
}

TEST(ParallelGolden, ExpectedExtraCycles) {
  const net::TypicalNetwork t = net::make_typical_network();
  EXPECT_EQ(expected_extra_cycles(t.network, t.paths, 4, 4),
            expected_extra_cycles(t.network, t.paths, 4, 1));
}

void expect_identical(const sim::SimulationReport& a,
                      const sim::SimulationReport& b) {
  EXPECT_EQ(a.total_slots_simulated, b.total_slots_simulated);
  ASSERT_EQ(a.per_path.size(), b.per_path.size());
  for (std::size_t p = 0; p < a.per_path.size(); ++p) {
    const sim::PathStatistics& x = a.per_path[p];
    const sim::PathStatistics& y = b.per_path[p];
    EXPECT_EQ(x.messages, y.messages);
    EXPECT_EQ(x.delivered_per_cycle, y.delivered_per_cycle);
    EXPECT_EQ(x.discarded, y.discarded);
    EXPECT_EQ(x.transmissions, y.transmissions);
    EXPECT_EQ(x.delay_ms.count(), y.delay_ms.count());
    EXPECT_EQ(x.delay_ms.mean(), y.delay_ms.mean());
    EXPECT_EQ(x.delay_ms.variance(), y.delay_ms.variance());
  }
}

sim::SimulationReport run_sim(std::uint32_t shards, unsigned threads) {
  const net::TypicalNetwork t = net::make_typical_network();
  sim::SimulatorConfig config;
  config.superframe = t.superframe;
  config.intervals = 500;
  config.seed = 99;
  config.shards = shards;
  config.threads = threads;
  const sim::NetworkSimulator simulator(t.network, t.paths, t.eta_a,
                                        config);
  return simulator.run();
}

TEST(ParallelGolden, ShardedSimulationIsIndependentOfThreadCount) {
  const sim::SimulationReport serial = run_sim(4, 1);
  expect_identical(run_sim(4, 2), serial);
  expect_identical(run_sim(4, 8), serial);
}

TEST(ParallelGolden, ShardedSimulationIsRepeatable) {
  const net::TypicalNetwork t = net::make_typical_network();
  sim::SimulatorConfig config;
  config.superframe = t.superframe;
  config.intervals = 500;
  config.seed = 99;
  config.shards = 4;
  config.threads = 4;
  const sim::NetworkSimulator simulator(t.network, t.paths, t.eta_a,
                                        config);
  const sim::SimulationReport first = simulator.run();
  expect_identical(simulator.run(), first);
}

TEST(ParallelGolden, ShardedSimulationAccountsForEveryMessage) {
  for (const std::uint32_t shards : {1u, 3u, 4u, 7u}) {
    const sim::SimulationReport report = run_sim(shards, 2);
    for (const sim::PathStatistics& stats : report.per_path) {
      EXPECT_EQ(stats.messages, 500u);
      std::uint64_t delivered = 0;
      for (const std::uint64_t d : stats.delivered_per_cycle) delivered += d;
      EXPECT_EQ(delivered + stats.discarded, stats.messages);
      EXPECT_EQ(stats.delay_ms.count(), delivered);
    }
  }
}

TEST(ParallelGolden, MoreShardsThanIntervalsClamps) {
  const sim::SimulationReport report = run_sim(4096, 4);
  for (const sim::PathStatistics& stats : report.per_path)
    EXPECT_EQ(stats.messages, 500u);
}

}  // namespace
}  // namespace whart::hart
