// Performance microbenchmarks (google-benchmark): model construction and
// solution cost as the reporting interval, hop count and frame size grow,
// plus the ablations DESIGN.md calls out (forward propagation vs explicit
// DTMC vs absorbing-chain solve; composition vs rebuild), and the
// observability subsystem's own overhead (enabled vs runtime-disabled).
#include <benchmark/benchmark.h>

#include <chrono>
#include <optional>

#include "whart/common/obs.hpp"
#include "whart/hart/analytic.hpp"
#include "whart/hart/composition.hpp"
#include "whart/hart/network_analysis.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/markov/absorbing.hpp"
#include "whart/markov/transient.hpp"
#include "whart/net/plant_generator.hpp"
#include "whart/net/typical_network.hpp"
#include "whart/sim/simulator.hpp"

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

void BM_PathModelBuild(benchmark::State& state) {
  const auto hops = static_cast<std::uint32_t>(state.range(0));
  const auto is = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    hart::PathModel model(path_config(hops, 20, is));
    benchmark::DoNotOptimize(model.state_count());
  }
  state.SetLabel("states=" +
                 std::to_string(
                     hart::PathModel(path_config(hops, 20, is)).state_count()));
}
BENCHMARK(BM_PathModelBuild)
    ->Args({1, 4})
    ->Args({4, 4})
    ->Args({4, 16})
    ->Args({8, 64});

void BM_ForwardAnalysis(benchmark::State& state) {
  const auto hops = static_cast<std::uint32_t>(state.range(0));
  const auto is = static_cast<std::uint32_t>(state.range(1));
  const hart::PathModel model(path_config(hops, 20, is));
  const hart::SteadyStateLinks links(
      hops, link::LinkModel::from_availability(0.83));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.analyze(links).cycle_probabilities);
  }
}
BENCHMARK(BM_ForwardAnalysis)
    ->Args({1, 4})
    ->Args({4, 4})
    ->Args({4, 16})
    ->Args({8, 64});

// Ablation: explicit-DTMC transient iteration does the same work on the
// materialized chain (sparse matrix-vector products).
void BM_ExplicitDtmcAnalysis(benchmark::State& state) {
  const auto hops = static_cast<std::uint32_t>(state.range(0));
  const auto is = static_cast<std::uint32_t>(state.range(1));
  const hart::PathModel model(path_config(hops, 20, is));
  const hart::SteadyStateLinks links(
      hops, link::LinkModel::from_availability(0.83));
  const markov::Dtmc dtmc = model.to_dtmc(links);
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::distribution_after(
        dtmc, markov::point_distribution(dtmc.num_states(), 0),
        model.config().horizon()));
  }
}
BENCHMARK(BM_ExplicitDtmcAnalysis)->Args({4, 4})->Args({4, 16});

// Ablation: the absorbing-chain (fundamental matrix) solve is O(n^3) in
// the transient-state count — exact but far costlier than forward
// propagation on the layered chain.
void BM_AbsorbingSolve(benchmark::State& state) {
  const auto is = static_cast<std::uint32_t>(state.range(0));
  const hart::PathModel model(path_config(3, 20, is));
  const hart::SteadyStateLinks links(
      3, link::LinkModel::from_availability(0.83));
  const markov::Dtmc dtmc = model.to_dtmc(links);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        markov::analyze_absorbing(dtmc).absorption_probability);
  }
}
BENCHMARK(BM_AbsorbingSolve)->Arg(2)->Arg(4)->Arg(8);

// Ablation: negative-binomial closed form vs exact DTMC.
void BM_AnalyticClosedForm(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hart::analytic_cycle_probabilities(4, 0.83, 64));
  }
}
BENCHMARK(BM_AnalyticClosedForm);

// Ablation: composition by convolution vs rebuilding the composed model.
void BM_ComposePaths(benchmark::State& state) {
  const auto peer = hart::analytic_cycle_probabilities(1, 0.9, 16);
  const auto existing = hart::analytic_cycle_probabilities(3, 0.83, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hart::compose_cycle_probabilities(peer, existing, 16));
  }
}
BENCHMARK(BM_ComposePaths);

void BM_RebuildComposedPath(benchmark::State& state) {
  const hart::PathModel model(path_config(4, 20, 16));
  const hart::SteadyStateLinks links(
      4, link::LinkModel::from_availability(0.83));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.analyze(links).cycle_probabilities);
  }
}
BENCHMARK(BM_RebuildComposedPath);

void BM_TypicalNetworkAnalysis(benchmark::State& state) {
  const net::TypicalNetwork t = net::make_typical_network();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hart::analyze_network(t.network, t.paths, t.eta_a, t.superframe, 4)
            .mean_delay_ms);
  }
}
BENCHMARK(BM_TypicalNetworkAnalysis);

// The seed-equivalent baseline: strictly serial, one walk per path.
void BM_GeneratedPlantAnalysis(benchmark::State& state) {
  net::PlantProfile profile;
  profile.device_count = static_cast<std::uint32_t>(state.range(0));
  profile.seed = 7;
  const net::GeneratedPlant plant = net::generate_plant(profile);
  hart::AnalysisOptions options;
  options.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hart::analyze_network(plant.network, plant.paths, plant.schedule,
                              plant.superframe, 4, options)
            .mean_delay_ms);
  }
}
BENCHMARK(BM_GeneratedPlantAnalysis)->Arg(10)->Arg(50)->Arg(200);

// The parallel engine on the same workload: Args are (devices, threads).
void BM_GeneratedPlantAnalysisParallel(benchmark::State& state) {
  net::PlantProfile profile;
  profile.device_count = static_cast<std::uint32_t>(state.range(0));
  profile.seed = 7;
  const net::GeneratedPlant plant = net::generate_plant(profile);
  hart::AnalysisOptions options;
  options.threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hart::analyze_network(plant.network, plant.paths, plant.schedule,
                              plant.superframe, 4, options)
            .mean_delay_ms);
  }
}
BENCHMARK(BM_GeneratedPlantAnalysisParallel)
    ->Args({200, 1})
    ->Args({200, 2})
    ->Args({200, 4})
    ->Args({200, 8});

// The seed-equivalent Monte-Carlo baseline: one shard, one stream.
void BM_MonteCarloPerInterval(benchmark::State& state) {
  const net::TypicalNetwork t = net::make_typical_network();
  sim::SimulatorConfig config;
  config.superframe = t.superframe;
  config.intervals = 1000;
  for (auto _ : state) {
    sim::NetworkSimulator simulator(t.network, t.paths, t.eta_a, config);
    benchmark::DoNotOptimize(simulator.run().total_slots_simulated);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MonteCarloPerInterval);

// Sharded Monte Carlo: intervals split across `threads` shards, each on
// its own RNG stream (results deterministic in (seed, shard count)).
void BM_MonteCarloPerIntervalSharded(benchmark::State& state) {
  const net::TypicalNetwork t = net::make_typical_network();
  sim::SimulatorConfig config;
  config.superframe = t.superframe;
  config.intervals = 1000;
  config.shards = static_cast<std::uint32_t>(state.range(0));
  config.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    sim::NetworkSimulator simulator(t.network, t.paths, t.eta_a, config);
    benchmark::DoNotOptimize(simulator.run().total_slots_simulated);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MonteCarloPerIntervalSharded)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Observability overhead on a real workload: the forward solve under
// each layer of the subsystem.  Args are {metrics, event_log, sampler}:
// {0,0,0} everything runtime-disabled (one relaxed atomic load per
// instrumented event), {1,0,0} counters/histograms only, {1,1,0} adds
// the flight recorder's per-thread ring writes, {1,1,1} additionally
// runs a background Sampler snapshotting the registry while the solve
// loop is hot.  All four must stay within noise of each other; CI
// gates the ratios against BENCH_obs.json.
void BM_ObsOverheadForwardAnalysis(benchmark::State& state) {
  const bool metrics = state.range(0) != 0;
  const bool events = state.range(1) != 0;
  const bool sampler_on = state.range(2) != 0;
  const bool was_metrics = common::obs::metrics_enabled();
  const bool was_events = common::obs::events_enabled();
  common::obs::set_metrics_enabled(metrics);
  common::obs::set_events_enabled(events);
  const hart::PathModel model(path_config(4, 20, 16));
  const hart::SteadyStateLinks links(
      4, link::LinkModel::from_availability(0.83));
  {
    std::optional<common::obs::Sampler> sampler;
    if (sampler_on) sampler.emplace(std::chrono::milliseconds(5));
    for (auto _ : state) {
      benchmark::DoNotOptimize(model.analyze(links).cycle_probabilities);
    }
    if (sampler) {
      sampler->stop();
      state.counters["sampler_ticks"] =
          benchmark::Counter(static_cast<double>(sampler->samples()));
    }
  }
  common::obs::set_metrics_enabled(was_metrics);
  common::obs::set_events_enabled(was_events);
  if (metrics) {
    const common::obs::MetricsSnapshot snapshot =
        common::obs::Registry::instance().snapshot();
    state.counters["path_solves"] = benchmark::Counter(static_cast<double>(
        snapshot.counters.at("hart.path_solve.count")));
  }
}
BENCHMARK(BM_ObsOverheadForwardAnalysis)
    ->Args({0, 0, 0})
    ->Args({1, 0, 0})
    ->Args({1, 1, 0})
    ->Args({1, 1, 1});

}  // namespace

BENCHMARK_MAIN();
