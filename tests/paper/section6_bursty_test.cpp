// Golden regression values for the Section VI typical network re-solved
// under a bursty correlated-channel regime: every link runs a slow
// Gilbert-Elliott chain (p_good->bad = 0.005, p_bad->good = 0.0125 —
// mean bad burst 80 slots, two full superframe cycles) rescaled to the
// paper's pi(up) = 0.83 operating point.  Attempts a cycle apart stay
// correlated, so the expected delivery ratios drop well below the
// i.i.d. goldens of section6_golden_test.cpp (three-hop paths:
// 0.9906 -> 0.9538) — pinning these values guards the channel-enlarged
// walk end to end (per-hop channel blocks, lazy mixing, Eq. 6-11
// aggregation over the enlarged chain), and the dense channel reference
// must land on the same rows.
//
// Tolerances as in section6_golden_test.cpp: 1e-9 absolute for
// probabilities, 1e-6 ms for delays.  If a deliberate change moves
// these values, re-derive them with full precision from
// hart::analyze_network (AnalysisOptions::channel set) and update the
// table in the same commit.
#include <gtest/gtest.h>

#include <vector>

#include "whart/hart/network_analysis.hpp"
#include "whart/net/typical_network.hpp"
#include "whart/sim/simulator.hpp"
#include "whart/verify/reference_solver.hpp"

namespace whart {
namespace {

struct PathGolden {
  std::size_t hop_count;
  double reachability;
  double expected_delay_ms;
};

constexpr double kProbabilityTolerance = 1e-9;
constexpr double kDelayToleranceMs = 1e-6;

link::ChannelModel bursty_channel() {
  // Mean bad burst 1 / 0.0125 = 80 slots; error rates 0/1 before the
  // per-link rescale to availability 0.83.
  return link::ChannelModel::gilbert_elliott(0.005, 0.0125, 0.0, 1.0);
}

void expect_golden(const net::Schedule& schedule,
                   const net::TypicalNetwork& t,
                   const std::vector<PathGolden>& golden,
                   double mean_delay_ms, std::size_t bottleneck) {
  hart::AnalysisOptions options;
  options.channel = bursty_channel();
  const hart::NetworkMeasures m = hart::analyze_network(
      t.network, t.paths, schedule, t.superframe, 4, options);
  ASSERT_EQ(m.per_path.size(), golden.size());
  // The same rows through a second, independent solver: the dense
  // channel reference of verify/ over every absolute slot, on the
  // per-hop channels rescaled as analyze_network rescales them, with
  // E[Gamma] (Eq. 13) as the mean of its per-path delays.
  double reference_delay_sum = 0.0;
  for (std::size_t p = 0; p < golden.size(); ++p) {
    EXPECT_EQ(t.paths[p].hop_count(), golden[p].hop_count)
        << "path " << p + 1;
    EXPECT_NEAR(m.per_path[p].reachability, golden[p].reachability,
                kProbabilityTolerance)
        << "path " << p + 1;
    EXPECT_NEAR(m.per_path[p].expected_delay_ms,
                golden[p].expected_delay_ms, kDelayToleranceMs)
        << "path " << p + 1;
    std::vector<link::ChannelModel> channels;
    for (const link::LinkModel& link : t.paths[p].hop_models(t.network))
      channels.push_back(bursty_channel().with_marginal_success(
          link.steady_state_availability()));
    const verify::ReferenceResult reference = verify::reference_solve_channel(
        hart::PathModelConfig::from_schedule(schedule, p, t.superframe, 4),
        channels);
    EXPECT_NEAR(reference.reachability, golden[p].reachability,
                kProbabilityTolerance)
        << "reference, path " << p + 1;
    EXPECT_NEAR(reference.expected_delay_ms, golden[p].expected_delay_ms,
                kDelayToleranceMs)
        << "reference, path " << p + 1;
    reference_delay_sum += reference.expected_delay_ms;
  }
  EXPECT_NEAR(m.mean_delay_ms, mean_delay_ms, kDelayToleranceMs);
  EXPECT_NEAR(reference_delay_sum / static_cast<double>(golden.size()),
              mean_delay_ms, kDelayToleranceMs);
  EXPECT_EQ(m.bottleneck_by_delay, bottleneck);
  // More attempts per delivery than i.i.d. (0.28536 / 0.28286): bursts
  // waste retries while every delivery still charges its n + i - 1.
  EXPECT_NEAR(m.network_utilization, 0.29584239293112324,
              kProbabilityTolerance);
  EXPECT_NEAR(m.network_utilization_delivered, 0.28119847563711081,
              kProbabilityTolerance);
}

TEST(PaperSection6Bursty, EtaASchedule) {
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  expect_golden(t.eta_a, t,
                {{1, 0.99069053815610497, 103.32612908107455},
                 {1, 0.99069053815610497, 113.32612908107455},
                 {1, 0.99069053815610497, 123.32612908107455},
                 {2, 0.97520883751623033, 226.89223451969994},
                 {2, 0.97520883751623033, 246.89223451969997},
                 {2, 0.97520883751623033, 266.89223451969997},
                 {2, 0.97520883751623033, 286.89223451969997},
                 {2, 0.97520883751623033, 306.89223451969997},
                 {3, 0.95376922190210001, 411.49417168517556},
                 {3, 0.95376922190210001, 441.49417168517562}},
                252.74279032120751, 9);
}

TEST(PaperSection6Bursty, EtaBSchedule) {
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  expect_golden(t.eta_b, t,
                {{1, 0.99069053815610497, 263.32612908107461},
                 {1, 0.99069053815610497, 273.32612908107455},
                 {1, 0.99069053815610497, 283.32612908107455},
                 {2, 0.97520883751623033, 256.89223451969997},
                 {2, 0.97520883751623033, 276.89223451969997},
                 {2, 0.97520883751623033, 296.89223451969991},
                 {2, 0.97520883751623033, 316.89223451969997},
                 {2, 0.97520883751623033, 336.89223451969997},
                 {3, 0.95376922190210001, 281.49417168517562},
                 {3, 0.95376922190210001, 311.49417168517556}},
                289.74279032120751, 7);
}

TEST(PaperSection6Bursty, BurstsStrictlyDegradeTheIidGoldens) {
  // Same marginal availability; the only difference is memory.  Every
  // multi-hop delivery ratio must sit strictly below its i.i.d. golden
  // (0.99916479 / 0.9963919 / 0.9906381) and the mean delay above it.
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  hart::AnalysisOptions options;
  options.channel = bursty_channel();
  const hart::NetworkMeasures bursty = hart::analyze_network(
      t.network, t.paths, t.eta_a, t.superframe, 4, options);
  const hart::NetworkMeasures iid = hart::analyze_network(
      t.network, t.paths, t.eta_a, t.superframe, 4);
  for (std::size_t p = 0; p < t.paths.size(); ++p)
    EXPECT_LT(bursty.per_path[p].reachability,
              iid.per_path[p].reachability - 1e-3)
        << "path " << p + 1;
  EXPECT_GT(bursty.mean_delay_ms, iid.mean_delay_ms + 1.0);
}

TEST(PaperSection6Bursty, SimulatorConfirmsTheBurstyDeliveryRatios) {
  // Cross-validation against the kChannel Monte-Carlo: the pinned
  // analytic delivery ratios — including the mean-burst-80 correlation
  // structure — must sit inside the empirical confidence band.
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  hart::AnalysisOptions options;
  options.channel = bursty_channel();
  const hart::NetworkMeasures model = hart::analyze_network(
      t.network, t.paths, t.eta_a, t.superframe, 4, options);

  sim::SimulatorConfig config;
  config.superframe = t.superframe;
  config.reporting_interval = 4;
  config.intervals = 20000;
  config.seed = 1234;
  config.shards = 4;
  config.regime = sim::LinkRegime::kChannel;
  config.channel = bursty_channel();
  const sim::NetworkSimulator simulator(t.network, t.paths, t.eta_a, config);
  const sim::SimulationReport report = simulator.run();

  for (std::size_t p = 0; p < t.paths.size(); ++p) {
    const auto ci = report.per_path[p].reachability_interval(4.0);
    EXPECT_TRUE(ci.contains(model.per_path[p].reachability))
        << "path " << p + 1 << ": analytic "
        << model.per_path[p].reachability << " not in [" << ci.low << ", "
        << ci.high << "] (empirical "
        << report.per_path[p].reachability() << ")";
  }
}

}  // namespace
}  // namespace whart
