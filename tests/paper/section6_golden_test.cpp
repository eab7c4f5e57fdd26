// Golden regression values for the paper's Section VI evaluation: the
// 10-path typical network (hop mix 30% one-hop / 50% two-hop / 20%
// three-hop) under both schedules, eta_a (shortest-paths-first) and
// eta_b (longest-paths-first), at the paper's pi(up) = 0.83 operating
// point.
//
// Unlike tests/paper/paper_numbers_test.cpp — which checks the ROUNDED
// digits the paper prints — these pin the exact values this codebase
// computes, so any numerical drift in the solver pipeline (matrix
// assembly, transient stepping, Eq. 6-11 aggregation) shows up even
// when it stays inside the paper's rounding.
//
// Tolerances: 1e-9 absolute for probabilities and 1e-6 ms for delays
// (both ~1e-9 relative).  That is loose enough for a different
// compiler/FMA contraction to reassociate a few ulps, and tight enough
// that any algorithmic change trips it.  If a deliberate change moves
// these values, re-derive them with full precision from
// hart::analyze_network and update the table in the same commit.
#include <gtest/gtest.h>

#include <vector>

#include "whart/hart/network_analysis.hpp"
#include "whart/net/typical_network.hpp"
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

void expect_golden(const net::Schedule& schedule,
                   const net::TypicalNetwork& t,
                   const std::vector<PathGolden>& golden,
                   double mean_delay_ms, std::size_t bottleneck) {
  const hart::NetworkMeasures m =
      hart::analyze_network(t.network, t.paths, schedule, t.superframe, 4);
  ASSERT_EQ(m.per_path.size(), golden.size());
  // The same rows through a second, independent solver: the dense
  // reference of verify/, path by path, with E[Gamma] (Eq. 13) as the
  // mean of its per-path delays.
  double reference_delay_sum = 0.0;
  for (std::size_t p = 0; p < golden.size(); ++p) {
    EXPECT_EQ(t.paths[p].hop_count(), golden[p].hop_count) << "path " << p + 1;
    EXPECT_NEAR(m.per_path[p].reachability, golden[p].reachability,
                kProbabilityTolerance)
        << "path " << p + 1;
    EXPECT_NEAR(m.per_path[p].expected_delay_ms, golden[p].expected_delay_ms,
                kDelayToleranceMs)
        << "path " << p + 1;
    std::vector<double> availabilities;
    for (const link::LinkModel& link : t.paths[p].hop_models(t.network))
      availabilities.push_back(link.steady_state_availability());
    const verify::ReferenceResult reference = verify::reference_solve(
        hart::PathModelConfig::from_schedule(schedule, p, t.superframe, 4),
        availabilities);
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
  // Utilization is schedule-independent (same attempts, same frame).
  EXPECT_NEAR(m.network_utilization, 0.28535643692500007,
              kProbabilityTolerance);
  EXPECT_NEAR(m.network_utilization_delivered, 0.28286262514650007,
              kProbabilityTolerance);
}

TEST(PaperSection6Golden, HopMixIs30_50_20) {
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  std::size_t by_hops[4] = {0, 0, 0, 0};
  for (const net::Path& path : t.paths) ++by_hops[path.hop_count()];
  EXPECT_EQ(t.paths.size(), 10u);
  EXPECT_EQ(by_hops[1], 3u);
  EXPECT_EQ(by_hops[2], 5u);
  EXPECT_EQ(by_hops[3], 2u);
}

TEST(PaperSection6Golden, EtaASchedule) {
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  // Per-hop reachabilities depend only on hop count (identical links):
  // 0.99916479 / 0.9963918928 / 0.99063813111.  Under eta_a the
  // three-hop path 10 is the 421.8 ms bottleneck (paper Fig. 15).
  expect_golden(t.eta_a, t,
                {{1, 0.99916479000000002, 90.590257789208223},
                 {1, 0.99916479000000002, 100.59025778920822},
                 {1, 0.99916479000000002, 110.59025778920822},
                 {2, 0.99639189279999996, 208.28954500702474},
                 {2, 0.99639189279999996, 228.28954500702474},
                 {2, 0.99639189279999996, 248.28954500702477},
                 {2, 0.99639189279999996, 268.28954500702474},
                 {2, 0.99639189279999996, 288.28954500702480},
                 {3, 0.99063813111000010, 391.84360443975010},
                 {3, 0.99063813111000010, 421.84360443975015}},
                235.69057072822488, 9);
}

TEST(PaperSection6Golden, EtaBSchedule) {
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  // eta_b trades the one-hop paths' head start for the long paths:
  // path 10 drops to 291.8 ms and the bottleneck moves to the two-hop
  // path 8 at 318.3 ms; the mean rises to 272.7 ms (paper Fig. 16).
  expect_golden(t.eta_b, t,
                {{1, 0.99916479000000002, 250.59025778920821},
                 {1, 0.99916479000000002, 260.59025778920818},
                 {1, 0.99916479000000002, 270.59025778920818},
                 {2, 0.99639189279999996, 238.28954500702480},
                 {2, 0.99639189279999996, 258.28954500702474},
                 {2, 0.99639189279999996, 278.28954500702480},
                 {2, 0.99639189279999996, 298.28954500702480},
                 {2, 0.99639189279999996, 318.28954500702480},
                 {3, 0.99063813111000010, 261.84360443975015},
                 {3, 0.99063813111000010, 291.84360443975015}},
                272.69057072822488, 7);
}

TEST(PaperSection6Golden, SchedulesAgreeOnReachability) {
  // Reachability depends on slot ORDER within a path, not placement:
  // both schedules keep each path's hops in order, so R is identical
  // per path while the delays differ.
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  const auto a = hart::analyze_network(t.network, t.paths, t.eta_a,
                                       t.superframe, 4);
  const auto b = hart::analyze_network(t.network, t.paths, t.eta_b,
                                       t.superframe, 4);
  for (std::size_t p = 0; p < t.paths.size(); ++p)
    EXPECT_NEAR(a.per_path[p].reachability, b.per_path[p].reachability,
                kProbabilityTolerance)
        << "path " << p + 1;
}

}  // namespace
}  // namespace whart
