// The sweeps' batch_lanes parameter (DESIGN.md §13) is read by nothing:
// every grid point walks alone on a pooled workspace.  The parameter
// stays because e2ebench passes it, so any value must leave a sweep's
// output unchanged — same point order, same CSV, the same bits as the
// unbatched sweep and as one fresh walk per point — and the superframe
// collapse, reached through the sweeps' kernel parameter, must agree
// with the walk to well below reporting precision.  Plus the link
// ranking against the per-path sensitivities it sums.
#include "whart/hart/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_analysis.hpp"
#include "whart/hart/sensitivity.hpp"
#include "whart/net/typical_network.hpp"

namespace whart::hart {
namespace {

void expect_measures_identical(const PathMeasures& a, const PathMeasures& b,
                               const std::string& at) {
  EXPECT_EQ(a.cycle_probabilities, b.cycle_probabilities) << at;
  EXPECT_EQ(a.reachability, b.reachability) << at;
  EXPECT_EQ(a.discard_probability, b.discard_probability) << at;
  EXPECT_EQ(a.delays_ms, b.delays_ms) << at;
  EXPECT_EQ(a.expected_delay_ms, b.expected_delay_ms) << at;
  EXPECT_EQ(a.expected_transmissions, b.expected_transmissions) << at;
  EXPECT_EQ(a.utilization, b.utilization) << at;
  EXPECT_EQ(a.utilization_delivered, b.utilization_delivered) << at;
  EXPECT_EQ(a.delay_jitter_ms, b.delay_jitter_ms) << at;
}

void expect_series_identical(const SweepSeries& batched,
                             const SweepSeries& baseline) {
  EXPECT_EQ(batched.parameter_name, baseline.parameter_name);
  ASSERT_EQ(batched.points.size(), baseline.points.size());
  for (std::size_t i = 0; i < baseline.points.size(); ++i) {
    const std::string at = "point " + std::to_string(i);
    EXPECT_EQ(batched.points[i].parameter, baseline.points[i].parameter)
        << at;
    expect_measures_identical(batched.points[i].measures,
                              baseline.points[i].measures, at);
  }
}

// The collapse agrees with the walk to rounding; 1e-12 relative leaves
// three orders of magnitude of slack.
void expect_value_close(double collapsed, double walked,
                        const std::string& what) {
  const double scale =
      std::max({1.0, std::abs(collapsed), std::abs(walked)});
  EXPECT_LE(std::abs(collapsed - walked), 1e-12 * scale) << what;
}

void expect_series_close(const SweepSeries& collapsed,
                         const SweepSeries& walked) {
  ASSERT_EQ(collapsed.points.size(), walked.points.size());
  for (std::size_t i = 0; i < walked.points.size(); ++i) {
    const std::string at = "point " + std::to_string(i);
    const PathMeasures& c = collapsed.points[i].measures;
    const PathMeasures& w = walked.points[i].measures;
    expect_value_close(c.reachability, w.reachability, at + " R");
    expect_value_close(c.discard_probability, w.discard_probability,
                       at + " discard");
    expect_value_close(c.expected_delay_ms, w.expected_delay_ms,
                       at + " delay");
    expect_value_close(c.expected_transmissions, w.expected_transmissions,
                       at + " transmissions");
    expect_value_close(c.utilization_delivered, w.utilization_delivered,
                       at + " Ud");
  }
}

PathModelConfig section6_config() {
  // The Section VI single-path shape behind the availability sweep.
  PathModelConfig config;
  config.hop_slots = {1, 2, 3, 4};
  config.superframe = net::SuperframeConfig::symmetric(20);
  config.reporting_interval = 4;
  return config;
}

std::string csv(const SweepSeries& series) {
  std::ostringstream out;
  write_series_csv(out, series);
  return out.str();
}

TEST(SweepBatch, AvailabilitySweepMatchesUnbatchedGolden) {
  const PathModelConfig config = section6_config();
  const std::vector<double> grid = linspace(0.65, 0.99, 18);
  // The golden: one fresh walk per point.
  SweepSeries fresh;
  fresh.parameter_name = "availability";
  const PathModel model(config);
  for (const double a : grid)
    fresh.points.push_back(
        {a, compute_path_measures(
                model, SteadyStateLinks(config.hop_count(),
                                        link::LinkModel::from_availability(
                                            a)))});
  const SweepSeries unbatched = sweep_availability(
      config, grid, 1, TransientKernel::kPerSlot, false, 1);
  const SweepSeries batched = sweep_availability(
      config, grid, 1, TransientKernel::kPerSlot, true, 8);
  expect_series_identical(unbatched, fresh);
  expect_series_identical(batched, fresh);
  EXPECT_EQ(csv(batched), csv(fresh));
  expect_series_close(
      sweep_availability(config, grid, 1,
                         TransientKernel::kSuperframeProduct, true, 8),
      fresh);
}

TEST(SweepBatch, LaneCountBeyondGridStillWorks) {
  const PathModelConfig config = section6_config();
  const std::vector<double> grid = linspace(0.7, 0.9, 5);
  const SweepSeries baseline = sweep_availability(
      config, grid, 1, TransientKernel::kPerSlot, true, 1);
  // More lanes than points.
  expect_series_identical(
      sweep_availability(config, grid, 1, TransientKernel::kPerSlot, true,
                         64),
      baseline);
}

TEST(SweepBatch, NonContiguousSameShapePointsShareABatch) {
  // Repeated reporting intervals are interleaved with other shapes, so
  // same-shape points are NOT adjacent in the grid: the output keeps the
  // grid's order and every repeat of a shape gets the same answer.
  const PathModelConfig base = section6_config();
  const std::vector<std::uint32_t> intervals = {16, 8, 16, 4, 8, 16, 16};
  const SweepSeries baseline = sweep_reporting_interval_series(
      base, 0.85, intervals, 1, TransientKernel::kPerSlot, true, 1);
  const SweepSeries batched = sweep_reporting_interval_series(
      base, 0.85, intervals, 4, TransientKernel::kPerSlot, true, 4);
  ASSERT_EQ(batched.points.size(), intervals.size());
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    EXPECT_EQ(batched.points[i].parameter,
              static_cast<double>(intervals[i]));
    for (std::size_t j = 0; j < i; ++j)
      if (intervals[j] == intervals[i])
        expect_measures_identical(batched.points[i].measures,
                                  batched.points[j].measures,
                                  "points " + std::to_string(j) + " and " +
                                      std::to_string(i));
  }
  expect_series_identical(batched, baseline);
}

TEST(SweepBatch, HopSweepDegeneratesToShapeSingletons) {
  // Every hop count is its own shape; batch_lanes changes nothing.
  const SweepSeries baseline =
      sweep_hop_count(4, 0.85, net::SuperframeConfig::symmetric(10), 4, 1,
                      TransientKernel::kPerSlot, true, 1);
  const SweepSeries batched =
      sweep_hop_count(4, 0.85, net::SuperframeConfig::symmetric(10), 4, 1,
                      TransientKernel::kPerSlot, true, 8);
  ASSERT_EQ(batched.points.size(), 4u);
  for (std::size_t i = 0; i < batched.points.size(); ++i)
    EXPECT_EQ(batched.points[i].parameter, static_cast<double>(i + 1));
  expect_series_identical(batched, baseline);
}

TEST(SweepBatch, BerSweepBatchesMatchScalar) {
  const PathModelConfig config = section6_config();
  const std::vector<double> bers = {1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 2e-3};
  const SweepSeries baseline =
      sweep_ber(config, bers, 1, TransientKernel::kPerSlot, true, 1);
  const SweepSeries batched =
      sweep_ber(config, bers, 1, TransientKernel::kPerSlot, true, 3);
  expect_series_identical(batched, baseline);
  expect_series_close(
      sweep_ber(config, bers, 1, TransientKernel::kSuperframeProduct, true,
                3),
      baseline);
}

TEST(RankLinkUpgradesBatch, RankingMatchesScalarPath) {
  // The ranking is the per-path walk sensitivities summed per link, in
  // path order, then sorted: rebuild it path by path and compare bitwise.
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  const std::vector<LinkSensitivity> ranking =
      rank_link_upgrades(t.network, t.paths, t.eta_a, t.superframe, 4, 4);
  std::vector<double> total(t.network.links().size(), 0.0);
  std::vector<std::size_t> using_paths(t.network.links().size(), 0);
  for (std::size_t p = 0; p < t.paths.size(); ++p) {
    const PathModel model(
        PathModelConfig::from_schedule(t.eta_a, p, t.superframe, 4));
    const std::vector<double> per_hop = reachability_sensitivity(
        model, SteadyStateLinks(t.paths[p].hop_models(t.network)));
    const std::vector<net::LinkId> hops = t.paths[p].resolve_links(t.network);
    ASSERT_EQ(per_hop.size(), hops.size());
    for (std::size_t h = 0; h < hops.size(); ++h) {
      total[hops[h].value] += per_hop[h];
      ++using_paths[hops[h].value];
    }
  }
  ASSERT_EQ(ranking.size(), total.size());
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    SCOPED_TRACE("rank " + std::to_string(i));
    EXPECT_EQ(ranking[i].total_dR_dpi, total[ranking[i].link.value]);
    EXPECT_EQ(ranking[i].paths_using, using_paths[ranking[i].link.value]);
    if (i > 0) {
      EXPECT_GE(ranking[i - 1].total_dR_dpi, ranking[i].total_dR_dpi);
    }
  }
}

}  // namespace
}  // namespace whart::hart
