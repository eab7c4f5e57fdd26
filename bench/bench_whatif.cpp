// What-if benchmarks (google-benchmark): the all-links what-if sweep of
// DESIGN.md §15 on a generated 200-device plant, the engine against full
// re-solves.
//
//   BM_WhatIfEngineBuild     one engine construction — the baseline
//                            fan-out (the calibration benchmark of the
//                            CI gate)
//   BM_WhatIfSweepFresh      every link moved to the probe availability
//                            and scored by a full analyze_network of the
//                            modified plant (the pre-engine behaviour)
//   BM_WhatIfSweepIncremental the same sweep through one warm engine's
//                            what_if_delta — only the paths using each
//                            link re-walk; tools/check_bench_regression.py
//                            pairs the two and asserts the >= 10x
//                            speedup (the name predates the walk and is
//                            kept so the baseline stays comparable)
//
// Both sweep arms answer the identical question (the what-if unit tests
// and the oracle's what-if leg pin the values to 1e-12); only the time
// differs.  All runs are single-threaded so the gate measures the
// algorithmic win, not the fan-out.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>

#include "whart/hart/network_analysis.hpp"
#include "whart/hart/what_if.hpp"
#include "whart/net/plant_generator.hpp"

namespace {

using namespace whart;

constexpr std::uint32_t kReportingInterval = 4;
constexpr double kProbeAvailability = 0.7;

net::GeneratedPlant plant_200() {
  net::PlantProfile profile;
  profile.device_count = 200;
  profile.seed = 42;
  return net::generate_plant(profile);
}

// One engine construction: the price paid once per interactive session,
// amortized over every subsequent query.  Doubles as the CI calibration
// benchmark.
void BM_WhatIfEngineBuild(benchmark::State& state) {
  const net::GeneratedPlant plant = plant_200();
  hart::WhatIfOptions options;
  options.threads = 1;
  for (auto _ : state) {
    hart::WhatIfEngine engine(plant.network, plant.paths, plant.schedule,
                              plant.superframe, kReportingInterval, options);
    benchmark::DoNotOptimize(engine.baseline().front().reachability);
  }
}
BENCHMARK(BM_WhatIfEngineBuild);

// The pre-engine behaviour: every candidate link change pays a full
// analyze_network of the modified plant.
void BM_WhatIfSweepFresh(benchmark::State& state) {
  net::GeneratedPlant plant = plant_200();
  const std::vector<net::LinkId> links = plant.network.links();
  hart::AnalysisOptions options;
  options.threads = 1;
  for (auto _ : state) {
    double worst = 0.0;
    for (const net::LinkId link : links) {
      const link::LinkModel original = plant.network.link(link).model;
      plant.network.set_link_model(
          link, link::LinkModel::from_availability(kProbeAvailability));
      const hart::NetworkMeasures measures = hart::analyze_network(
          plant.network, plant.paths, plant.schedule, plant.superframe,
          kReportingInterval, options);
      for (const hart::PathMeasures& m : measures.per_path)
        worst = std::max(worst, m.expected_delay_ms);
      plant.network.set_link_model(link, original);
    }
    benchmark::DoNotOptimize(worst);
  }
  state.counters["links"] = static_cast<double>(links.size());
}
BENCHMARK(BM_WhatIfSweepFresh);

// The same all-links sweep through one warm engine: per link, only the
// paths scheduled over it re-walk; every other path's cached measures
// are reused.
void BM_WhatIfSweepIncremental(benchmark::State& state) {
  const net::GeneratedPlant plant = plant_200();
  hart::WhatIfOptions options;
  options.threads = 1;
  hart::WhatIfEngine engine(plant.network, plant.paths, plant.schedule,
                            plant.superframe, kReportingInterval, options);
  for (auto _ : state) {
    double worst = 0.0;
    for (const net::LinkId link : engine.links()) {
      const hart::WhatIfDelta delta =
          engine.what_if_delta(link, kProbeAvailability);
      worst = std::max(worst, delta.worst_expected_delay_ms);
    }
    benchmark::DoNotOptimize(worst);
  }
  state.counters["links"] = static_cast<double>(engine.links().size());
}
BENCHMARK(BM_WhatIfSweepIncremental);

}  // namespace

BENCHMARK_MAIN();
