// The kChannel regime: each link runs its own k-state ChannelModel,
// stepped once per 10 ms slot and redrawn from the stationary
// distribution at every interval start — exactly the regime of
// hart::ChannelLinks, so empirical frequencies must converge to the
// channel-enlarged analytics.  Burst structure is validated directly:
// the empirical mean bad-burst length of the simulated chain must land
// on 1 / p_bad->good.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_analysis.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/numeric/rng.hpp"
#include "whart/sim/simulator.hpp"
#include "whart/verify/scenario.hpp"

namespace whart::sim {
namespace {

verify::Scenario bursty_scenario() {
  verify::Scenario scenario;
  scenario.seed = 1;
  scenario.superframe = {3, 2};
  scenario.reporting_interval = 4;
  scenario.paths.resize(1);
  scenario.paths[0].hop_slots = {1, 3};
  scenario.paths[0].links = {link::LinkModel(0.3, 0.7),
                             link::LinkModel(0.2, 0.8)};
  scenario.channel = link::ChannelModel::gilbert_elliott(0.15, 0.4,
                                                         0.03, 0.7);
  return scenario;
}

SimulationReport simulate(const verify::Scenario& scenario,
                          SimulatorConfig config) {
  const verify::BuiltScenario built = verify::build_network(scenario);
  config.superframe = {scenario.superframe.uplink_slots,
                       scenario.superframe.downlink_slots};
  config.reporting_interval = scenario.reporting_interval;
  if (scenario.ttl.has_value()) config.ttl = *scenario.ttl;
  config.regime = LinkRegime::kChannel;
  config.channel = scenario.channel;
  const NetworkSimulator simulator(built.network, built.paths, built.schedule,
                                   config);
  return simulator.run();
}

hart::PathMeasures analytic_measures(const verify::Scenario& scenario,
                                     std::size_t path) {
  const hart::PathModel model(scenario.path_config(path));
  const hart::ChannelLinks links(scenario.hop_channels(path));
  return compute_path_measures(model, links);
}

TEST(ChannelRegime, ConvergesToTheChannelEnlargedAnalytics) {
  const verify::Scenario scenario = bursty_scenario();
  SimulatorConfig config;
  config.intervals = 60000;
  config.seed = 7;
  config.shards = 4;
  const SimulationReport report = simulate(scenario, config);
  const hart::PathMeasures analytic = analytic_measures(scenario, 0);

  const PathStatistics& stats = report.per_path[0];
  ASSERT_EQ(stats.messages, 60000u);
  EXPECT_NEAR(stats.reachability(), analytic.reachability, 0.005);
  const std::vector<double> frequencies = stats.cycle_frequencies();
  for (std::size_t i = 0; i < frequencies.size(); ++i)
    EXPECT_NEAR(frequencies[i], analytic.cycle_probabilities[i], 0.01)
        << "cycle " << i;
  EXPECT_NEAR(stats.delay_ms.mean(), analytic.expected_delay_ms,
              0.03 * analytic.expected_delay_ms);
}

TEST(ChannelRegime, DistinguishableFromIidAtEqualMarginals) {
  // Same per-attempt marginal success, but the bursty chain correlates
  // the retries of one interval: over a multi-cycle interval the
  // empirical reachability must separate from the i.i.d. analytic value
  // by far more than the Monte-Carlo noise — the cross-validation has
  // teeth only if the two hypotheses are statistically distinguishable.
  verify::Scenario scenario = bursty_scenario();
  scenario.channel = link::ChannelModel::gilbert_elliott(0.05, 0.1,
                                                         0.0, 1.0);
  SimulatorConfig config;
  config.intervals = 60000;
  config.seed = 21;
  config.shards = 4;
  const SimulationReport report = simulate(scenario, config);

  const hart::PathModel model(scenario.path_config(0));
  const hart::PathMeasures channel = analytic_measures(scenario, 0);
  const hart::PathMeasures iid = compute_path_measures(
      model, hart::SteadyStateLinks(scenario.hop_availabilities(0)));

  const double empirical = report.per_path[0].reachability();
  EXPECT_NEAR(empirical, channel.reachability, 0.005);
  EXPECT_GT(std::abs(empirical - iid.reachability), 0.02);
}

TEST(ChannelRegime, DegenerateChannelReproducesIndependentStatistics) {
  // Equal error rates leave no observable memory: the kChannel regime
  // must land on the i.i.d. analytics (not bitwise on kIndependent —
  // the draw sequences differ — but statistically).
  verify::Scenario scenario = bursty_scenario();
  scenario.channel =
      link::ChannelModel::gilbert_elliott(0.3, 0.5, 0.25, 0.25);
  SimulatorConfig config;
  config.intervals = 40000;
  config.seed = 9;
  config.shards = 4;
  const SimulationReport report = simulate(scenario, config);

  const hart::PathModel model(scenario.path_config(0));
  const hart::PathMeasures iid = compute_path_measures(
      model, hart::SteadyStateLinks(scenario.hop_availabilities(0)));
  EXPECT_NEAR(report.per_path[0].reachability(), iid.reachability, 0.005);
}

TEST(ChannelRegime, IsDeterministicInSeedAndShards) {
  const verify::Scenario scenario = bursty_scenario();
  SimulatorConfig config;
  config.intervals = 5000;
  config.seed = 11;
  config.shards = 3;
  const SimulationReport a = simulate(scenario, config);
  const SimulationReport b = simulate(scenario, config);
  EXPECT_EQ(a.per_path[0].delivered_per_cycle,
            b.per_path[0].delivered_per_cycle);
  EXPECT_EQ(a.per_path[0].discarded, b.per_path[0].discarded);
  EXPECT_EQ(a.per_path[0].transmissions, b.per_path[0].transmissions);
}

TEST(ChannelRegime, TtlOneStillFiresExactlyOnce) {
  verify::Scenario scenario;
  scenario.seed = 5;
  scenario.superframe = {2, 0};
  scenario.reporting_interval = 3;
  scenario.ttl = 1;  // hop 1 fires in slot 1, then the message dies
  scenario.paths.resize(1);
  scenario.paths[0].hop_slots = {1, 2};
  scenario.paths[0].links = {link::LinkModel(0.0, 1.0),
                             link::LinkModel(0.0, 1.0)};
  scenario.channel = link::ChannelModel::gilbert_elliott(0.2, 0.4,
                                                         0.1, 0.9);
  SimulatorConfig config;
  config.intervals = 500;
  const SimulationReport report = simulate(scenario, config);
  EXPECT_DOUBLE_EQ(report.per_path[0].reachability(), 0.0);
  EXPECT_EQ(report.per_path[0].discarded, 500u);
  EXPECT_EQ(report.per_path[0].transmissions, 500u);
}

TEST(ChannelRegime, MeanBadBurstLengthMatchesTheChain) {
  // Burst-length sanity, straight from a simulated trajectory of the
  // channel chain itself: mean consecutive slots in Bad = 1 / p_bg.
  const double p_bg = 0.25;
  const link::ChannelModel channel =
      link::ChannelModel::gilbert_elliott(0.1, p_bg, 0.0, 1.0);
  numeric::Xoshiro256 rng(17);
  // Two-state sampler: stay Good (0) or return to it with the chain's
  // probability of a move to state 0, else go (or stay) Bad (1).
  std::vector<std::size_t> trajectory{0};
  for (int step = 0; step < 400000; ++step) {
    const std::size_t state = trajectory.back();
    trajectory.push_back(rng.uniform() < channel.transition(state, 0) ? 0 : 1);
  }

  std::uint64_t bursts = 0;
  std::uint64_t bad_slots = 0;
  bool in_burst = false;
  for (std::size_t state : trajectory) {
    if (state == 1) {
      ++bad_slots;
      if (!in_burst) ++bursts;
      in_burst = true;
    } else {
      in_burst = false;
    }
  }
  ASSERT_GT(bursts, 5000u);
  const double empirical = static_cast<double>(bad_slots) /
                           static_cast<double>(bursts);
  EXPECT_NEAR(empirical, channel.mean_bad_burst_length(),
              0.05 * channel.mean_bad_burst_length());
  EXPECT_NEAR(channel.mean_bad_burst_length(), 1.0 / p_bg, 1e-15);
}

}  // namespace
}  // namespace whart::sim
