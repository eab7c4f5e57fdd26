// Integration: the DTMC analytics and the Monte-Carlo simulator must agree
// on reachability, cycle distribution, delay and utilization — two fully
// independent implementations of the same protocol semantics.  The main
// suite runs parameterized over link regimes: kIndependent (exactly the
// analytic steady-state link model) and kChannel (every link runs a
// Gilbert-Elliott chain, matched by the channel-enlarged analytics), so
// every comparison uses a computed confidence bound from verify::bounds
// at a fixed per-check failure probability instead of a hand-tuned
// epsilon — and the structural invariants (row-stochastic transitions,
// mass conservation, R + discard = 1) are inherited for free by both
// regimes through the shared solver checks.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <tuple>

#include "whart/hart/failure.hpp"
#include "whart/hart/network_analysis.hpp"
#include "whart/link/channel_model.hpp"
#include "whart/net/typical_network.hpp"
#include "whart/sim/simulator.hpp"
#include "whart/verify/bounds.hpp"

namespace whart {
namespace {

// Per-statistical-check failure probability; a few hundred checks run in
// this file, so the whole-file false-alarm rate stays below 1e-5.
constexpr double kPerCheckDelta = 1e-8;

// The Gilbert-Elliott template of the kChannel rows: mean bad burst of
// 1 / 0.35 ~ 2.9 slots, rescaled per link to its availability.
std::optional<link::ChannelModel> regime_channel(sim::LinkRegime regime) {
  if (regime != sim::LinkRegime::kChannel) return std::nullopt;
  return link::ChannelModel::gilbert_elliott(0.12, 0.35, 0.03, 0.75);
}

sim::SimulationReport simulate(const net::TypicalNetwork& t,
                               const net::Schedule& schedule,
                               std::uint64_t intervals, std::uint64_t seed,
                               sim::LinkRegime regime) {
  sim::SimulatorConfig config;
  config.superframe = t.superframe;
  config.reporting_interval = 4;
  config.intervals = intervals;
  config.seed = seed;
  config.regime = regime;
  config.channel = regime_channel(regime);
  const sim::NetworkSimulator simulator(t.network, t.paths, schedule, config);
  return simulator.run();
}

class ModelVsSimulation
    : public ::testing::TestWithParam<std::tuple<double, sim::LinkRegime>> {
};

TEST_P(ModelVsSimulation, TypicalNetworkReachabilityWithinConfidence) {
  const auto [availability, regime] = GetParam();
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(availability));

  hart::AnalysisOptions options;
  options.channel = regime_channel(regime);
  const hart::NetworkMeasures model = hart::analyze_network(
      t.network, t.paths, t.eta_a, t.superframe, 4, options);
  const sim::SimulationReport report =
      simulate(t, t.eta_a, 20000, 4242, regime);

  const double z = verify::z_for_delta(kPerCheckDelta);
  for (std::size_t p = 0; p < t.paths.size(); ++p) {
    // R + discard = 1 holds in every regime (the channel-enlarged chain
    // conserves mass exactly like the i.i.d. one).
    EXPECT_NEAR(model.per_path[p].reachability +
                    model.per_path[p].discard_probability,
                1.0, 1e-12);
    const auto ci = report.per_path[p].reachability_interval(z);
    EXPECT_TRUE(ci.contains(model.per_path[p].reachability))
        << "pi=" << availability << " regime "
        << static_cast<int>(regime) << " path " << p + 1 << ": model "
        << model.per_path[p].reachability << " not in [" << ci.low << ", "
        << ci.high << "] (empirical "
        << report.per_path[p].reachability() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AvailabilitiesAndRegimes, ModelVsSimulation,
    ::testing::Combine(::testing::Values(0.693, 0.83, 0.948),
                       ::testing::Values(sim::LinkRegime::kIndependent,
                                         sim::LinkRegime::kChannel)));

TEST(ModelVsSimulationDetail, CycleDistributionOfExamplePath) {
  // The Section V-A example path as a standalone network.
  net::Network network;
  const auto n1 = network.add_node("n1");
  const auto n2 = network.add_node("n2");
  const auto n3 = network.add_node("n3");
  const auto model = link::LinkModel::from_availability(0.75);
  network.add_link(n1, n2, model);
  network.add_link(n2, n3, model);
  network.add_link(n3, net::kGateway, model);
  const std::vector<net::Path> paths{
      net::Path({n1, n2, n3, net::kGateway})};

  // Paper slots 3, 6, 7 in a 7-slot frame.
  net::Schedule schedule(7, 1);
  schedule.assign(3, 0, 0, n1, n2);
  schedule.assign(6, 0, 1, n2, n3);
  schedule.assign(7, 0, 2, n3, net::kGateway);

  const auto superframe = net::SuperframeConfig::symmetric(7);
  const hart::NetworkMeasures analytic =
      hart::analyze_network(network, paths, schedule, superframe, 4);
  const hart::PathMeasures& path = analytic.per_path[0];

  sim::SimulatorConfig config;
  config.superframe = superframe;
  config.reporting_interval = 4;
  config.intervals = 50000;
  config.seed = 31337;
  config.regime = sim::LinkRegime::kIndependent;
  const sim::NetworkSimulator simulator(network, paths, schedule, config);
  const auto report = simulator.run();
  const sim::PathStatistics& stats = report.per_path[0];

  const double z = verify::z_for_delta(kPerCheckDelta);
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    delivered += stats.delivered_per_cycle[i];
    const sim::Interval ci = sim::wilson_interval(
        stats.delivered_per_cycle[i], stats.messages, z);
    EXPECT_TRUE(ci.contains(path.cycle_probabilities[i]))
        << "cycle " << i + 1 << ": analytic " << path.cycle_probabilities[i]
        << " not in [" << ci.low << ", " << ci.high << "]";
  }

  // Utilization = attempts per (Is * Fup slots); attempts per message lie
  // in [0, hops * Is], so a Hoeffding bound applies to the mean.
  const double attempt_radius = verify::hoeffding_radius(
      stats.messages, kPerCheckDelta, 3.0 * 4.0);
  EXPECT_NEAR(stats.utilization(7, 4), path.utilization,
              attempt_radius / (7.0 * 4.0));

  // Mean delay over delivered messages: range bounded by the delay
  // spread of the four possible delivery cycles.
  const double delay_range =
      path.delay_ms(path.cycle_probabilities.size() - 1) - path.delay_ms(0);
  EXPECT_NEAR(stats.delay_ms.mean(), path.expected_delay_ms,
              verify::hoeffding_radius(delivered, kPerCheckDelta,
                                       delay_range));
}

TEST(ModelVsSimulationDetail, EtaBDelaysMatch) {
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  const hart::NetworkMeasures model = hart::analyze_network(
      t.network, t.paths, t.eta_b, t.superframe, 4);
  const sim::SimulationReport report =
      simulate(t, t.eta_b, 20000, 99, sim::LinkRegime::kIndependent);

  for (std::size_t p = 0; p < t.paths.size(); ++p) {
    const hart::PathMeasures& path = model.per_path[p];
    std::uint64_t delivered = 0;
    for (std::uint64_t d : report.per_path[p].delivered_per_cycle)
      delivered += d;
    ASSERT_GT(delivered, 0u) << "path " << p + 1;
    const double range =
        path.delay_ms(path.cycle_probabilities.size() - 1) - path.delay_ms(0);
    EXPECT_NEAR(report.per_path[p].delay_ms.mean(), path.expected_delay_ms,
                verify::hoeffding_radius(delivered, kPerCheckDelta, range))
        << "path " << p + 1;
  }
}

TEST(ModelVsSimulationDetail, ScriptedLinkFailureMatchesExactDtmc) {
  // Table III's exact refinement: e3 forced DOWN during cycle 1 of every
  // interval.  The simulator with the same scripted window must land on
  // the exact DTMC's reachability, not the paper's cycle-shift value.
  // Scripted windows exist only in the Gilbert regime, so this test
  // keeps it (with availability 0.83 the retry-correlation bias is far
  // inside the interval).
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  const auto e3 =
      t.network.link_between(*t.network.find_node("n3"), net::kGateway);
  ASSERT_TRUE(e3.has_value());

  const auto impacts = hart::one_cycle_link_failure(
      t.network, t.paths, t.eta_a, t.superframe, 4, *e3);

  sim::SimulatorConfig config;
  config.superframe = t.superframe;
  config.reporting_interval = 4;
  config.intervals = 30000;
  config.seed = 555;
  config.scripted_failures.push_back(sim::ScriptedLinkFailure{
      *e3, link::cycle_window(0, 1, t.superframe.cycle_slots())});
  sim::NetworkSimulator simulator(t.network, t.paths, t.eta_a, config);
  const sim::SimulationReport report = simulator.run();

  for (std::size_t p = 0; p < t.paths.size(); ++p) {
    const auto ci = report.per_path[p].reachability_interval(3.89);
    EXPECT_TRUE(ci.contains(impacts[p].reachability_exact))
        << "path " << p + 1 << ": exact DTMC "
        << impacts[p].reachability_exact << " not in [" << ci.low << ", "
        << ci.high << "] (empirical "
        << report.per_path[p].reachability() << ")";
  }
  // And the empirical value for an affected multi-hop path is visibly
  // above the cycle-shift approximation.
  EXPECT_GT(report.per_path[9].reachability(),
            impacts[9].reachability_cycle_shift + 0.005);
}

}  // namespace
}  // namespace whart
