// SoA batch-solve benchmarks (google-benchmark): the lane-parallel
// refill of DESIGN.md §13 against one-point passes of the same code.
//
//   BM_SkeletonBuild          one symbolic phase — the calibration
//                             benchmark of the CI gate (machine-speed
//                             normalization only, same shape as
//                             bench_skeleton's)
//   BM_BatchAvailabilitySweep a 64-point availability sweep with the
//                             lane count as the LAST argument (1 = one
//                             point per pass, 8 = batches of eight
//                             lanes); skeleton reuse is on in both, so
//                             the ratio isolates the lane amortisation.
//                             tools/check_bench_regression.py
//                             pairs .../1 against .../16 and asserts the
//                             >= 4x speedup recorded in BENCH_simd.json
//   BM_LaneEquivalence        solves a batch and re-solves every lane
//                             alone, counting lanes that diverge
//                             beyond 1e-12 relative into the
//                             `lane_mismatches` user counter — pinned
//                             at 0 in CI via --require-counter-max
//
// All runs are single-threaded: the point is the per-solve cost of the
// batched numeric core, not the thread fan-out.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/hart/sweep.hpp"

namespace {

using namespace whart;

hart::PathModelConfig path_config(std::uint32_t hops, std::uint32_t fup,
                                  std::uint32_t is) {
  hart::PathModelConfig config;
  for (std::uint32_t h = 0; h < hops; ++h) config.hop_slots.push_back(h + 1);
  config.superframe = net::SuperframeConfig::symmetric(fup);
  config.reporting_interval = is;
  return config;
}

// Calibration benchmark: one symbolic phase, identical in shape to
// bench_skeleton's BM_SkeletonBuild so the same machine-speed anchor
// normalizes both JSON baselines.
void BM_SkeletonBuild(benchmark::State& state) {
  const auto hops = static_cast<std::uint32_t>(state.range(0));
  const hart::PathModelConfig config = path_config(hops, 20, 4);
  for (auto _ : state) {
    const hart::PathModelSkeleton skeleton(config);
    benchmark::DoNotOptimize(skeleton.config().hop_count());
  }
}
BENCHMARK(BM_SkeletonBuild)->Arg(4);

// The headline workload: the Section VI availability grid on one
// schedule shape, skeleton reuse on.  Args are (grid points, lanes):
// lanes 1 refills every point in its own pass, lanes 8 walks the shared
// patterns once per eight points.  Values agree to rounding (the batch arm of
// the differential oracle and the lane-equivalence battery enforce it);
// only the time differs.
void BM_BatchAvailabilitySweep(benchmark::State& state) {
  const auto points = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  const hart::PathModelConfig config = path_config(4, 20, 4);
  const std::vector<double> grid = hart::linspace(0.65, 0.99, points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hart::sweep_availability(config, grid, 1,
                                 hart::TransientKernel::kSuperframeProduct,
                                 true, lanes)
            .points.back()
            .measures.reachability);
  }
}
BENCHMARK(BM_BatchAvailabilitySweep)
    ->Args({64, 1})
    ->Args({64, 8})
    ->Args({64, 16});

// The solve core in isolation (no sweep scaffolding): per-point cost of
// a warm one-point solve vs one lane of a warm batched solve.
void BM_ScalarSolve(benchmark::State& state) {
  const hart::PathModelConfig config = path_config(4, 20, 4);
  const hart::PathModelSkeleton skeleton(config);
  const hart::SteadyStateLinks links(
      4, link::LinkModel::from_availability(0.83));
  hart::PathAnalysisOptions options;
  options.kernel = hart::TransientKernel::kSuperframeProduct;
  hart::SolveWorkspace workspace;
  skeleton.analyze_into(links, options, workspace, workspace.scratch_result);
  for (auto _ : state) {
    skeleton.analyze_into(links, options, workspace,
                          workspace.scratch_result);
    benchmark::DoNotOptimize(
        workspace.scratch_result.expected_transmissions);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScalarSolve);

void BM_BatchSolve(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const hart::PathModelConfig config = path_config(4, 20, 4);
  const hart::PathModelSkeleton skeleton(config);
  const std::vector<double> grid = hart::linspace(0.65, 0.99, lanes);
  std::vector<hart::SteadyStateLinks> links;
  links.reserve(lanes);
  for (const double availability : grid)
    links.emplace_back(std::vector<double>(4, availability));
  std::vector<const hart::LinkProbabilityProvider*> providers;
  providers.reserve(links.size());
  for (const hart::SteadyStateLinks& provider : links)
    providers.push_back(&provider);
  hart::PathAnalysisOptions options;
  options.kernel = hart::TransientKernel::kSuperframeProduct;
  hart::SolveWorkspace workspace;
  std::vector<hart::PathTransientResult> results(lanes);
  skeleton.analyze_batch_into(providers, options, workspace, results);
  for (auto _ : state) {
    skeleton.analyze_batch_into(providers, options, workspace, results);
    benchmark::DoNotOptimize(results.back().expected_transmissions);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * lanes));
}
BENCHMARK(BM_BatchSolve)->Arg(8)->Arg(16);

// Correctness-as-a-counter: solve one batch, re-solve every lane
// through a one-point solve, and count lanes whose availability-sweep
// measures drift beyond 1e-12 relative.  CI pins `lane_mismatches` at
// zero, so a lane-indexing regression fails the bench job even if no
// unit test happens to cover the offending shape.
void BM_LaneEquivalence(benchmark::State& state) {
  constexpr std::size_t kLanes = 8;
  constexpr double kTol = 1e-12;
  const hart::PathModelConfig config = path_config(4, 20, 4);
  const hart::PathModelSkeleton skeleton(config);
  const std::vector<double> grid = hart::linspace(0.65, 0.99, kLanes);

  std::vector<hart::SteadyStateLinks> links;
  links.reserve(kLanes);
  for (const double availability : grid)
    links.emplace_back(std::vector<double>(4, availability));
  std::vector<const hart::LinkProbabilityProvider*> providers;
  providers.reserve(links.size());
  for (const hart::SteadyStateLinks& provider : links)
    providers.push_back(&provider);

  hart::PathAnalysisOptions options;
  options.kernel = hart::TransientKernel::kSuperframeProduct;
  hart::SolveWorkspace workspace;
  std::vector<hart::PathTransientResult> batched(kLanes);
  hart::SolveWorkspace scalar_workspace;
  hart::PathTransientResult scalar;

  double mismatches = 0.0;
  const auto close = [&](double a, double b) {
    return std::abs(a - b) <=
           kTol * std::max({1.0, std::abs(a), std::abs(b)});
  };
  for (auto _ : state) {
    skeleton.analyze_batch_into(providers, options, workspace, batched);
    for (std::size_t l = 0; l < kLanes; ++l) {
      skeleton.analyze_into(links[l], options, scalar_workspace, scalar);
      bool ok = close(batched[l].discard_probability,
                      scalar.discard_probability) &&
                close(batched[l].expected_transmissions,
                      scalar.expected_transmissions);
      for (std::size_t i = 0; ok && i < scalar.cycle_probabilities.size();
           ++i)
        ok = close(batched[l].cycle_probabilities[i],
                   scalar.cycle_probabilities[i]);
      if (!ok) mismatches += 1.0;
    }
    benchmark::DoNotOptimize(batched.back().expected_transmissions);
  }
  state.counters["lane_mismatches"] = mismatches;
}
BENCHMARK(BM_LaneEquivalence);

}  // namespace

BENCHMARK_MAIN();
