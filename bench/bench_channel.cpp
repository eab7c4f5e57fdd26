// Correlated-channel solve cost (google-benchmark): the
// channel-enlarged DTMC against the i.i.d. path on the same 64-point
// availability sweep.
//
//   BM_ChannelAvailabilitySweep  args are (grid points, channel states):
//                                states 1 runs the plain i.i.d. sweep
//                                (also the CI calibration benchmark),
//                                states 2 a Gilbert-Elliott overlay and
//                                states 3 a three-state fading chain,
//                                each rescaled per point to the grid
//                                availability.  A k-state channel
//                                multiplies the per-hop state count by
//                                k, so the enlarged solve is expected to
//                                cost O(k^2) of the i.i.d. one;
//                                tools/check_bench_regression.py gates
//                                the k = 2 arm at <= 4x via
//                                --require-speedup with a fractional
//                                factor (iid/ge >= 0.25).
//
// Every arm walks the firing table, each at its own block width
// (DESIGN.md §11): the gate compares the walk's two-state instantiation
// (the GE arm) against its scalar one (the i.i.d. arm, one state per
// hop), and the three-state arm takes the runtime width.  Each GE point
// rescales one template, so its four hops share one transition matrix
// and each P^gap is computed once per point.  Single-threaded: the point
// is the per-solve cost, not the fan-out.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "whart/hart/path_model.hpp"
#include "whart/hart/sweep.hpp"
#include "whart/link/channel_model.hpp"

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

// The channel template for a given per-hop state count; rescaled per
// grid point inside the sweep.  Burst parameters mirror the verify
// generator's mid-range.
const link::ChannelModel* channel_for(std::int64_t states) {
  static const link::ChannelModel ge =
      link::ChannelModel::gilbert_elliott(0.1, 0.25, 0.02, 0.7);
  static const link::ChannelModel fading = link::ChannelModel::chain(
      {0.8, 0.15, 0.05,  //
       0.2, 0.7, 0.1,    //
       0.1, 0.3, 0.6},
      {0.01, 0.3, 0.9});
  switch (states) {
    case 2:
      return &ge;
    case 3:
      return &fading;
    default:
      return nullptr;  // i.i.d.
  }
}

void BM_ChannelAvailabilitySweep(benchmark::State& state) {
  const auto points = static_cast<std::size_t>(state.range(0));
  const link::ChannelModel* channel = channel_for(state.range(1));
  const hart::PathModelConfig config = path_config(4, 20, 4);
  const std::vector<double> grid = hart::linspace(0.65, 0.99, points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hart::sweep_availability(config, grid, 1,
                                 hart::TransientKernel::kPerSlot,
                                 /*reuse_skeleton=*/true,
                                 /*batch_lanes=*/1, channel)
            .points.back()
            .measures.reachability);
  }
}
BENCHMARK(BM_ChannelAvailabilitySweep)
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 3});

}  // namespace

BENCHMARK_MAIN();
