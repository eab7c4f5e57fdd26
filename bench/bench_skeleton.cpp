// Symbolic/numeric split benchmarks (google-benchmark): the skeleton
// refill path of DESIGN.md §12 against per-point fresh builds.
//
//   BM_SkeletonBuild      cost of one symbolic phase (the calibration
//                         benchmark of the CI gate — machine-speed
//                         normalization only)
//   BM_AvailabilitySweep  a 64-point availability sweep with the reuse
//                         switch as the LAST argument (0 = fresh build
//                         per point, 1 = one skeleton + numeric refills);
//                         tools/check_bench_regression.py pairs .../0
//                         against .../1 and asserts the >= 5x speedup
//   BM_RefillSteadyState  a warm skeleton refill in isolation, with a
//                         binary-local operator-new override counting
//                         every heap byte — the `steady_state_bytes`
//                         user counter must be 0 (gated in CI via
//                         --require-counter-max)
//   BM_SkeletonBuildBytes one symbolic phase on a plant-sized frame
//                         (Fup = 390, 4 hops) at Is = 4 and 64, with the
//                         same meter: `build_bytes` must not grow with
//                         Is (gated in CI at a bound independent of Is)
//
// All runs are single-threaded: the point is the per-solve cost, not the
// fan-out.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "whart/common/obs.hpp"
#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/hart/sweep.hpp"

// GCC pairs the replaced operator new with the library free() at inlined
// call sites and reports a mismatch; the replacement below routes every
// new through malloc, so new/free pairing is correct by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

/// Heap bytes requested since process start.  Relaxed ordering: the
/// benchmark reads it on one thread around a serial loop.
std::atomic<std::size_t> g_alloc_bytes{0};

}  // namespace

// Binary-local global allocator override: counts every operator-new
// byte so the steady-state refill loop can prove it allocates nothing.
void* operator new(std::size_t size) {
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0)
    throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0)
    throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

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

// One symbolic phase: the firing table plus the sparsity-pattern capture.
// Doubles as the CI calibration benchmark.
void BM_SkeletonBuild(benchmark::State& state) {
  const auto hops = static_cast<std::uint32_t>(state.range(0));
  const hart::PathModelConfig config = path_config(hops, 20, 4);
  for (auto _ : state) {
    const hart::PathModelSkeleton skeleton(config);
    benchmark::DoNotOptimize(skeleton.config().hop_count());
  }
}
BENCHMARK(BM_SkeletonBuild)->Arg(4);

// Heap bytes of one symbolic phase on the 200-device plant's frame size.
// The skeleton holds a firing table and one pattern per transmission
// opportunity, nothing sized by the horizon Is * Fup, so the last
// iteration's byte count is the same at every Is.
void BM_SkeletonBuildBytes(benchmark::State& state) {
  const hart::PathModelConfig config =
      path_config(4, 390, static_cast<std::uint32_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::size_t before = g_alloc_bytes.load(std::memory_order_relaxed);
    const hart::PathModelSkeleton skeleton(config);
    bytes = g_alloc_bytes.load(std::memory_order_relaxed) - before;
    benchmark::DoNotOptimize(skeleton.config().hop_count());
  }
  state.counters["build_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SkeletonBuildBytes)->Arg(4)->Arg(64);

// The headline workload: a grid of availabilities on one schedule
// shape.  Args are (grid points, reuse): reuse 0 rebuilds the model at
// every point (the pre-split behaviour), reuse 1 builds one skeleton
// and refills values per point.  Results are bitwise identical (the
// refill leg of the differential oracle enforces this); only the time
// differs.
void BM_AvailabilitySweep(benchmark::State& state) {
  const auto points = static_cast<std::size_t>(state.range(0));
  const bool reuse = state.range(1) != 0;
  const hart::PathModelConfig config = path_config(4, 20, 4);
  const std::vector<double> grid = hart::linspace(0.65, 0.99, points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hart::sweep_availability(config, grid, 1,
                                 hart::TransientKernel::kSuperframeProduct,
                                 reuse)
            .points.back()
            .measures.reachability);
  }
}
BENCHMARK(BM_AvailabilitySweep)->Args({64, 0})->Args({64, 1});

// A warm refill in isolation, with the allocation meter around the
// timed loop: after the cold pass primes the workspace, the steady
// state must touch the heap zero times.
void BM_RefillSteadyState(benchmark::State& state) {
  const hart::PathModelConfig config = path_config(4, 20, 8);
  const hart::PathModelSkeleton skeleton(config);
  const hart::SteadyStateLinks links(
      4, link::LinkModel::from_availability(0.83));
  hart::PathAnalysisOptions options;
  options.kernel = hart::TransientKernel::kSuperframeProduct;
  hart::SolveWorkspace workspace;
  // Cold passes: prime the workspace, the result buffers and the obs
  // handle caches so the timed loop starts warm.
  skeleton.analyze_into(links, options, workspace, workspace.scratch_result);
  skeleton.analyze_into(links, options, workspace, workspace.scratch_result);

  const std::size_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  for (auto _ : state) {
    skeleton.analyze_into(links, options, workspace,
                          workspace.scratch_result);
    benchmark::DoNotOptimize(
        workspace.scratch_result.expected_transmissions);
  }
  const auto delta = static_cast<double>(
      g_alloc_bytes.load(std::memory_order_relaxed) - before);
  state.counters["steady_state_bytes"] = delta;
  WHART_GAUGE_SET("hart.skeleton.steady_bytes", delta);
}
BENCHMARK(BM_RefillSteadyState);

}  // namespace

BENCHMARK_MAIN();
