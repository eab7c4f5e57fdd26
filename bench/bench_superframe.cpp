// The firing-table walk, the one path solver (google-benchmark): a
// single Section VI path at three sizes, the paper's typical network and
// the 200-device generated plant, each compared by
// tools/check_bench_regression.py against the committed
// BENCH_superframe.json baseline.  Network solves run on one thread.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "whart/hart/network_analysis.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/net/plant_generator.hpp"
#include "whart/net/typical_network.hpp"

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

// One Section VI path solve: Args are (hops, Is).
void BM_PathSolve(benchmark::State& state) {
  const auto hops = static_cast<std::uint32_t>(state.range(0));
  const auto is = static_cast<std::uint32_t>(state.range(1));
  const hart::PathModel model(path_config(hops, 20, is));
  const hart::SteadyStateLinks links(
      hops, link::LinkModel::from_availability(0.83));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.analyze(links).cycle_probabilities);
  }
}
BENCHMARK(BM_PathSolve)->Args({3, 4})->Args({4, 64})->Args({8, 256});

// The paper's 10-path typical network at its Is = 4 operating point and
// at a long-horizon Is = 64: Arg is Is.
void BM_TypicalNetworkSolve(benchmark::State& state) {
  const auto is = static_cast<std::uint32_t>(state.range(0));
  const net::TypicalNetwork t = net::make_typical_network();
  hart::AnalysisOptions options;
  options.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hart::analyze_network(t.network, t.paths, t.eta_a, t.superframe, is,
                              options)
            .mean_delay_ms);
  }
}
BENCHMARK(BM_TypicalNetworkSolve)->Arg(4)->Arg(64);

// 200-device generated plant: Arg is Is.
void BM_GeneratedPlantSolve(benchmark::State& state) {
  net::PlantProfile profile;
  profile.device_count = 200;
  profile.seed = 7;
  const net::GeneratedPlant plant = net::generate_plant(profile);
  hart::AnalysisOptions options;
  options.threads = 1;
  const auto is = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hart::analyze_network(plant.network, plant.paths, plant.schedule,
                              plant.superframe, is, options)
            .mean_delay_ms);
  }
}
BENCHMARK(BM_GeneratedPlantSolve)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
