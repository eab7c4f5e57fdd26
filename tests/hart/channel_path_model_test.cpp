// The channel-enlarged path solver (DESIGN.md §14) against its
// degeneracy anchors: a Gilbert-Elliott channel with equal per-state
// error rates carries no usable memory and must reproduce the i.i.d.
// solve to 1e-12 — for the firing-table walk and for the dense
// reference solvers it is checked against, and at every sweep lane
// count — while a k = 2 general chain must match the dedicated
// Gilbert-Elliott construction exactly, and a real burst channel must
// land the walk on the channel reference.  Both injected walk faults
// must actually move the answer (a fault the oracle is supposed to
// catch had better exist) while conserving mass.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "whart/hart/path_analysis.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/hart/sweep.hpp"
#include "whart/link/channel_model.hpp"
#include "whart/verify/reference_solver.hpp"

namespace whart::hart {
namespace {

constexpr double kCollapseTolerance = 1e-12;

PathModelConfig retry_config() {
  PathModelConfig config;
  config.hop_slots = {2, 5, 7};
  config.retry_slots = {3, 0, 8};
  config.superframe = net::SuperframeConfig{9, 4};
  config.reporting_interval = 3;
  return config;
}

/// The production walk, or the dense reference solvers of verify/ (the
/// oracle's second opinion), as measures.
enum class Solver { kWalk, kReference };

PathMeasures reference_measures(const PathModelConfig& config,
                                const verify::ReferenceResult& reference) {
  PathMeasures m = measures_from_cycles(config, reference.cycle_probabilities,
                                        reference.expected_transmissions);
  m.utilization_delivered =
      reference.expected_transmissions_delivered /
      (static_cast<double>(config.reporting_interval) *
       config.superframe.uplink_slots);
  return m;
}

/// Every hop on `channel`.
PathMeasures solve(const PathModelConfig& config,
                   const link::ChannelModel& channel,
                   Solver solver = Solver::kWalk) {
  if (solver == Solver::kReference)
    return reference_measures(
        config, verify::reference_solve_channel(
                    config, std::vector<link::ChannelModel>(
                                config.hop_count(), channel)));
  return compute_path_measures(PathModel(config),
                               ChannelLinks(config.hop_count(), channel));
}

/// Every hop i.i.d. with success probability `availability`.
PathMeasures solve(const PathModelConfig& config, double availability,
                   Solver solver = Solver::kWalk) {
  const std::vector<double> availabilities(config.hop_count(), availability);
  if (solver == Solver::kReference)
    return reference_measures(config,
                              verify::reference_solve(config, availabilities));
  return compute_path_measures(PathModel(config),
                               SteadyStateLinks(availabilities));
}

void expect_measures_close(const PathMeasures& a, const PathMeasures& b,
                           double tolerance, const std::string& label) {
  EXPECT_NEAR(a.reachability, b.reachability, tolerance) << label;
  EXPECT_NEAR(a.discard_probability, b.discard_probability, tolerance)
      << label;
  EXPECT_NEAR(a.expected_delay_ms, b.expected_delay_ms, 1e3 * tolerance)
      << label;
  EXPECT_NEAR(a.expected_transmissions, b.expected_transmissions,
              1e3 * tolerance)
      << label;
  EXPECT_NEAR(a.utilization, b.utilization, tolerance) << label;
  EXPECT_NEAR(a.utilization_delivered, b.utilization_delivered, tolerance)
      << label;
  ASSERT_EQ(a.cycle_probabilities.size(), b.cycle_probabilities.size())
      << label;
  for (std::size_t i = 0; i < a.cycle_probabilities.size(); ++i)
    EXPECT_NEAR(a.cycle_probabilities[i], b.cycle_probabilities[i],
                tolerance)
        << label << " cycle " << i + 1;
}

class DegenerateChannel : public ::testing::TestWithParam<Solver> {};

TEST_P(DegenerateChannel, EqualErrorRatesCollapseToIid) {
  // Equal error rates in both states: the chain still mixes, but every
  // state succeeds with the same probability — observationally i.i.d.
  const PathModelConfig config = retry_config();
  for (double availability : {0.95, 0.75, 0.45}) {
    const double error = 1.0 - availability;
    expect_measures_close(
        solve(config,
              link::ChannelModel::gilbert_elliott(0.3, 0.5, error, error),
              GetParam()),
        solve(config, availability, GetParam()), kCollapseTolerance,
        "availability " + std::to_string(availability));
  }
}

TEST_P(DegenerateChannel, OneStateChannelCollapsesToIid) {
  const PathModelConfig config = retry_config();
  expect_measures_close(
      solve(config, link::ChannelModel::iid(0.83), GetParam()),
      solve(config, 0.83, GetParam()), kCollapseTolerance, "one-state");
}

TEST_P(DegenerateChannel, SingleHopAndTtlOneEdgeCases) {
  // Single hop, and a TTL that expires the message inside cycle 1:
  // the enlarged chain's smallest shapes.
  PathModelConfig single;
  single.hop_slots = {2};
  single.superframe = net::SuperframeConfig{3, 1};
  single.reporting_interval = 4;
  const double error = 0.25;
  const link::ChannelModel channel =
      link::ChannelModel::gilbert_elliott(0.2, 0.6, error, error);
  expect_measures_close(solve(single, channel, GetParam()),
                        solve(single, 1.0 - error, GetParam()),
                        kCollapseTolerance, "single hop");

  PathModelConfig ttl_one = single;
  ttl_one.ttl = 1;
  expect_measures_close(solve(ttl_one, channel, GetParam()),
                        solve(ttl_one, 1.0 - error, GetParam()),
                        kCollapseTolerance, "ttl=1");
  const PathMeasures m = solve(ttl_one, channel, GetParam());
  EXPECT_NEAR(m.reachability + m.discard_probability, 1.0, 1e-12);
}

// The instance name and the parameter's 4-byte encoding keep the test
// ids the suite had when it ran over two transient kernels.
INSTANTIATE_TEST_SUITE_P(Kernels, DegenerateChannel,
                         ::testing::Values(Solver::kWalk,
                                           Solver::kReference));

TEST(ChannelPathModel, TwoStateChainMatchesDedicatedGilbertElliott) {
  // ChannelModel::chain with k = 2 must be the same model as the
  // gilbert_elliott factory — and the solver must not care which
  // constructor produced it.
  const PathModelConfig config = retry_config();
  const link::ChannelModel ge =
      link::ChannelModel::gilbert_elliott(0.15, 0.45, 0.03, 0.65);
  const link::ChannelModel chain = link::ChannelModel::chain(
      {0.85, 0.15, 0.45, 0.55}, {0.03, 0.65});
  EXPECT_EQ(ge, chain);
  expect_measures_close(solve(config, ge), solve(config, chain), 0.0,
                        "k=2 chain vs GE");
}

TEST(ChannelPathModel, KernelsAgreeOnABurstyChannel) {
  // Not degenerate: a real burst channel, solved by the walk and by the
  // dense channel reference over every absolute slot, must land on the
  // same measures.
  const PathModelConfig config = retry_config();
  const link::ChannelModel channel =
      link::ChannelModel::gilbert_elliott(0.1, 0.35, 0.02, 0.7);
  expect_measures_close(solve(config, channel),
                        solve(config, channel, Solver::kReference), 1e-12,
                        "walk vs channel reference");
}

TEST(ChannelPathModel, BurstinessLowersMultiHopReachability) {
  // Same marginal availability, bursty vs memoryless: retries inside a
  // burst keep failing, so the bursty reachability must be strictly
  // lower on a path with retry slots.
  const PathModelConfig config = retry_config();
  const double availability = 0.8;
  const link::ChannelModel bursty =
      link::ChannelModel::gilbert_elliott(0.05, 0.15, 0.0, 1.0)
          .with_marginal_success(availability);
  EXPECT_LT(solve(config, bursty).reachability,
            solve(config, availability).reachability - 1e-4);
}

TEST(ChannelPathModel, SweepCollapseAcrossScalarAndBatchedLanes) {
  // The degenerate-channel sweep against the i.i.d. sweep at lane counts
  // 1, 8 and 16: every grid point must agree to 1e-12, and the lane
  // count, which the sweeps no longer read, must not matter.
  const PathModelConfig config = retry_config();
  const std::vector<double> grid = linspace(0.5, 0.99, 33);
  // Error rates are equal after rescaling only if they start equal.
  const link::ChannelModel degenerate =
      link::ChannelModel::gilbert_elliott(0.3, 0.5, 0.4, 0.4);
  const SweepSeries channel_series = sweep_availability(
      config, grid, 1, TransientKernel::kPerSlot,
      /*reuse_skeleton=*/true, /*batch_lanes=*/1, &degenerate);
  for (std::size_t lanes : {1u, 8u, 16u}) {
    const SweepSeries iid_series = sweep_availability(
        config, grid, 1, TransientKernel::kPerSlot,
        /*reuse_skeleton=*/true, lanes);
    ASSERT_EQ(iid_series.points.size(), channel_series.points.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
      expect_measures_close(channel_series.points[i].measures,
                            iid_series.points[i].measures,
                            kCollapseTolerance,
                            "lanes " + std::to_string(lanes) + " point " +
                                std::to_string(i));
  }
}

TEST(ChannelPathModel, ChannelFaultsMoveTheAnswerAndConserveMass) {
  // Each injected walk fault must move some cycle probability visibly —
  // otherwise the oracle's channel-fault self-tests would be vacuous —
  // while every solve, faulty or not, still conserves probability mass.
  const PathModelConfig config = retry_config();
  const PathModel model(config);
  const ChannelLinks links(
      config.hop_count(),
      link::ChannelModel::gilbert_elliott(0.2, 0.35, 0.02, 0.65));
  const auto solve_with = [&](ChannelFault fault) {
    PathAnalysisOptions options;
    options.inject_channel_fault = fault;
    const PathTransientResult result = model.analyze(links, options);
    double reachability = 0.0;
    for (double g : result.cycle_probabilities) reachability += g;
    EXPECT_LE(std::abs(reachability + result.discard_probability - 1.0),
              1e-12);
    return result;
  };
  const PathTransientResult healthy = solve_with(ChannelFault::kNone);
  for (const ChannelFault fault :
       {ChannelFault::kStateLeak, ChannelFault::kGapShift}) {
    const PathTransientResult faulty = solve_with(fault);
    double max_delta = 0.0;
    for (std::size_t i = 0; i < healthy.cycle_probabilities.size(); ++i)
      max_delta = std::max(max_delta,
                           std::abs(healthy.cycle_probabilities[i] -
                                    faulty.cycle_probabilities[i]));
    EXPECT_GT(max_delta, 1e-3) << "fault " << static_cast<int>(fault);
  }
}

}  // namespace
}  // namespace whart::hart
