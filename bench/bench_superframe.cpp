// The firing-table walk vs the superframe-product collapse
// (google-benchmark).  Every workload runs under both kernels with the
// kernel selector as the LAST benchmark argument (0 = kPerSlot, the
// walk; 1 = kSuperframeProduct, the reference collapse), so
// tools/check_bench_regression.py can pair .../1 against .../0 and
// assert the walk's speedup, and compare runs against the committed
// BENCH_superframe.json baseline.  Network solves run on one thread.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "whart/hart/network_analysis.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/linalg/matrix.hpp"
#include "whart/markov/superframe_kernel.hpp"
#include "whart/markov/transient.hpp"
#include "whart/net/plant_generator.hpp"
#include "whart/net/typical_network.hpp"
#include "whart/verify/full_chain.hpp"

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

// One Section VI path solve: Args are (hops, Is, kernel).
void BM_PathSolve(benchmark::State& state) {
  const auto hops = static_cast<std::uint32_t>(state.range(0));
  const auto is = static_cast<std::uint32_t>(state.range(1));
  const hart::PathModel model(path_config(hops, 20, is));
  const hart::SteadyStateLinks links(
      hops, link::LinkModel::from_availability(0.83));
  hart::PathAnalysisOptions options;
  options.kernel = state.range(2) != 0
                       ? hart::TransientKernel::kSuperframeProduct
                       : hart::TransientKernel::kPerSlot;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.analyze(links, options).cycle_probabilities);
  }
}
BENCHMARK(BM_PathSolve)
    ->Args({3, 4, 0})
    ->Args({3, 4, 1})
    ->Args({4, 64, 0})
    ->Args({4, 64, 1})
    ->Args({8, 256, 0})
    ->Args({8, 256, 1});

// The paper's 10-path typical network at its Is = 4 operating point and
// at a long-horizon Is = 64: Args are (Is, kernel).
void BM_TypicalNetworkSolve(benchmark::State& state) {
  const auto is = static_cast<std::uint32_t>(state.range(0));
  const net::TypicalNetwork t = net::make_typical_network();
  hart::AnalysisOptions options;
  options.threads = 1;
  options.kernel = state.range(1) != 0
                       ? hart::TransientKernel::kSuperframeProduct
                       : hart::TransientKernel::kPerSlot;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hart::analyze_network(t.network, t.paths, t.eta_a, t.superframe, is,
                              options)
            .mean_delay_ms);
  }
}
BENCHMARK(BM_TypicalNetworkSolve)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({64, 0})
    ->Args({64, 1});

// 200-device generated plant: Args are (Is, kernel).
void BM_GeneratedPlantSolve(benchmark::State& state) {
  net::PlantProfile profile;
  profile.device_count = 200;
  profile.seed = 7;
  const net::GeneratedPlant plant = net::generate_plant(profile);
  hart::AnalysisOptions options;
  options.threads = 1;
  options.kernel = state.range(1) != 0
                       ? hart::TransientKernel::kSuperframeProduct
                       : hart::TransientKernel::kPerSlot;
  const auto is = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hart::analyze_network(plant.network, plant.paths, plant.schedule,
                              plant.superframe, is, options)
            .mean_delay_ms);
  }
}
BENCHMARK(BM_GeneratedPlantSolve)->Args({64, 0})->Args({64, 1});

// Product build cost in isolation: what the kernel amortizes.  Builds
// the full Fup + Fdown chain (identity slots included), the verify/
// reference, so this calibration stays independent of the production
// opportunity collapse.
void BM_KernelBuild(benchmark::State& state) {
  const auto hops = static_cast<std::uint32_t>(state.range(0));
  const hart::PathModel model(path_config(hops, 20, 4));
  const hart::SteadyStateLinks links(
      hops, link::LinkModel::from_availability(0.83));
  for (auto _ : state) {
    markov::SuperframeKernel kernel(
        verify::full_chain_slot_matrices(model, links));
    benchmark::DoNotOptimize(kernel.cycle_product().nonzeros());
  }
}
BENCHMARK(BM_KernelBuild)->Arg(3)->Arg(8);

// Batched multi-initial-state transient: Args are (batch rows, kernel
// 0 = row-by-row distribution_after, 1 = cache-blocked batch).
void BM_BatchedTransient(benchmark::State& state) {
  const hart::PathModel model(path_config(4, 20, 4));
  const hart::SteadyStateLinks links(
      4, link::LinkModel::from_availability(0.83));
  const markov::SuperframeKernel kernel(
      verify::full_chain_slot_matrices(model, links));
  const auto rows = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = kernel.dimension();
  linalg::Matrix initials(rows, dim);
  for (std::size_t r = 0; r < rows; ++r) initials(r, r % dim) = 1.0;
  const std::uint64_t steps = 3 * kernel.period() + 5;
  if (state.range(1) != 0) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          markov::distributions_after_periodic(kernel, initials, steps));
    }
  } else {
    for (auto _ : state) {
      double sink = 0.0;
      for (std::size_t r = 0; r < rows; ++r) {
        linalg::Vector row(dim);
        for (std::size_t c = 0; c < dim; ++c) row[c] = initials(r, c);
        sink += markov::distribution_after_periodic(kernel, row, steps)[0];
      }
      benchmark::DoNotOptimize(sink);
    }
  }
}
BENCHMARK(BM_BatchedTransient)->Args({64, 0})->Args({64, 1});

}  // namespace

BENCHMARK_MAIN();
