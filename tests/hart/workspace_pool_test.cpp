// Workspace pooling under the parallel engine (DESIGN.md §12): the
// WorkspacePool leases, and the sweeps and network analysis that walk
// on pooled workspaces, which must be thread-count invariant and bitwise
// equal to fresh PathModel::analyze walks.  Lives in test_parallel so the
// TSan CI job covers every lease/release.
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "whart/common/parallel.hpp"
#include "whart/hart/network_analysis.hpp"
#include "whart/hart/path_analysis.hpp"
#include "whart/hart/sweep.hpp"
#include "whart/net/typical_network.hpp"

namespace whart::hart {
namespace {

TEST(WorkspacePool, SequentialLeasesReuseOneWorkspace) {
  common::WorkspacePool<int> pool;
  EXPECT_EQ(pool.created(), 0u);
  int* first = nullptr;
  {
    auto lease = pool.acquire();
    *lease = 41;
    first = &*lease;
  }
  EXPECT_EQ(pool.created(), 1u);
  {
    auto lease = pool.acquire();
    // The idle workspace comes back, warm state intact.
    EXPECT_EQ(&*lease, first);
    EXPECT_EQ(*lease, 41);
  }
  EXPECT_EQ(pool.created(), 1u);
}

TEST(WorkspacePool, GrowsToPeakConcurrentLeases) {
  common::WorkspacePool<int> pool;
  {
    auto a = pool.acquire();
    auto b = pool.acquire();
    auto c = pool.acquire();
    EXPECT_EQ(pool.created(), 3u);
  }
  // All three returned; further sequential traffic creates nothing new.
  for (int i = 0; i < 8; ++i) auto lease = pool.acquire();
  EXPECT_EQ(pool.created(), 3u);
}

TEST(WorkspacePool, MovedLeaseReleasesExactlyOnce) {
  common::WorkspacePool<int> pool;
  {
    auto a = pool.acquire();
    auto b = std::move(a);
    *b = 7;
    auto c = pool.acquire();  // a must not have returned its workspace
    EXPECT_EQ(pool.created(), 2u);
    c = std::move(b);  // c's workspace goes back, b's transfers in
    EXPECT_EQ(*c, 7);
  }
  EXPECT_EQ(pool.created(), 2u);
}

PathModelConfig sweep_config() {
  PathModelConfig config;
  config.hop_slots = {1, 2, 3, 5};
  config.superframe = net::SuperframeConfig::symmetric(8);
  config.reporting_interval = 4;
  return config;
}

void expect_identical(const SweepSeries& a, const SweepSeries& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].parameter, b.points[i].parameter);
    EXPECT_EQ(a.points[i].measures.reachability,
              b.points[i].measures.reachability);
    EXPECT_EQ(a.points[i].measures.expected_delay_ms,
              b.points[i].measures.expected_delay_ms);
    EXPECT_EQ(a.points[i].measures.delay_jitter_ms,
              b.points[i].measures.delay_jitter_ms);
    EXPECT_EQ(a.points[i].measures.utilization,
              b.points[i].measures.utilization);
    EXPECT_EQ(a.points[i].measures.cycle_probabilities,
              b.points[i].measures.cycle_probabilities);
  }
}

/// The series a sweep must reproduce: one fresh walk per point, each on
/// its own PathModel and workspace.
SweepSeries fresh_series(const std::string& name,
                         const std::vector<double>& parameters,
                         const std::vector<PathModelConfig>& configs,
                         const std::vector<link::LinkModel>& links) {
  SweepSeries series;
  series.parameter_name = name;
  for (std::size_t i = 0; i < parameters.size(); ++i) {
    const PathModel model(configs[i]);
    series.points.push_back(
        {parameters[i],
         compute_path_measures(
             model, SteadyStateLinks(configs[i].hop_count(), links[i]))});
  }
  return series;
}

// The pooled-walk tests below keep the SkeletonPool suite name from when
// the pools also shared skeletons, so their test ids stay stable.
TEST(SkeletonPool, PooledSweepIsThreadCountInvariantAndMatchesFresh) {
  const PathModelConfig config = sweep_config();
  const std::vector<double> grid = linspace(0.6, 0.99, 33);
  std::vector<link::LinkModel> links;
  for (double a : grid) links.push_back(link::LinkModel::from_availability(a));
  const SweepSeries fresh = fresh_series(
      "availability", grid, std::vector<PathModelConfig>(grid.size(), config),
      links);
  for (const unsigned threads : {1u, 4u, 8u})
    expect_identical(sweep_availability(config, grid, threads), fresh);
}

TEST(SkeletonPool, PooledBerAndIntervalSweepsMatchFresh) {
  const PathModelConfig config = sweep_config();
  const std::vector<double> bers{1e-5, 1e-4, 5e-4, 1e-3};
  std::vector<link::LinkModel> ber_links;
  for (double ber : bers) ber_links.push_back(link::LinkModel::from_ber(ber));
  expect_identical(
      sweep_ber(config, bers, 4),
      fresh_series("ber", bers,
                   std::vector<PathModelConfig>(bers.size(), config),
                   ber_links));
  const std::vector<std::uint32_t> intervals{1, 2, 4, 8};
  std::vector<double> parameters;
  std::vector<PathModelConfig> configs;
  for (std::uint32_t is : intervals) {
    parameters.push_back(static_cast<double>(is));
    configs.push_back(config);
    configs.back().reporting_interval = is;
  }
  expect_identical(
      sweep_reporting_interval_series(config, 0.83, intervals, 4),
      fresh_series(
          "reporting_interval", parameters, configs,
          std::vector<link::LinkModel>(
              intervals.size(), link::LinkModel::from_availability(0.83))));
}

TEST(SkeletonPool, SharedSkeletonNetworkAnalysisMatchesFresh) {
  // reuse_skeleton is read by nothing (it stays because e2ebench sets
  // it); either way every path walks on a pooled workspace.
  const net::TypicalNetwork t = net::make_typical_network();
  std::vector<PathMeasures> fresh;
  for (std::size_t p = 0; p < t.paths.size(); ++p)
    fresh.push_back(compute_path_measures(
        PathModel(PathModelConfig::from_schedule(t.eta_a, p, t.superframe, 4)),
        SteadyStateLinks(t.paths[p].hop_models(t.network))));

  for (const bool reuse_skeleton : {false, true}) {
    for (const unsigned threads : {1u, 4u}) {
      AnalysisOptions options;
      options.threads = threads;
      options.reuse_skeleton = reuse_skeleton;
      const NetworkMeasures pooled = analyze_network(
          t.network, t.paths, t.eta_a, t.superframe, 4, options);
      ASSERT_EQ(pooled.per_path.size(), fresh.size());
      for (std::size_t p = 0; p < fresh.size(); ++p) {
        EXPECT_EQ(pooled.per_path[p].reachability, fresh[p].reachability);
        EXPECT_EQ(pooled.per_path[p].expected_delay_ms,
                  fresh[p].expected_delay_ms);
        EXPECT_EQ(pooled.per_path[p].utilization, fresh[p].utilization);
        EXPECT_EQ(pooled.per_path[p].cycle_probabilities,
                  fresh[p].cycle_probabilities);
      }
    }
  }
}

}  // namespace
}  // namespace whart::hart
