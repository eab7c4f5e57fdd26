// Parameter sweeps: regenerate the paper's curves (reachability or delay
// vs availability, hop count, reporting interval) as data series ready
// for CSV export — the programmatic counterpart of the bench binaries.
//
// Every grid point walks its path's firing table (DESIGN.md §11) on a
// pooled SolveWorkspace; kSuperframeProduct, the reference collapse,
// stays reachable through the `kernel` parameter (measures agree to
// ~1e-12).  `reuse_skeleton` and `batch_lanes` are read by nothing:
// they are declared only because the end-to-end benchmark harness
// (e2ebench/) passes them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "whart/hart/path_analysis.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/link/channel_model.hpp"

namespace whart::hart {

/// One sweep sample: the swept parameter value and the full measures.
struct SweepPoint {
  double parameter = 0.0;
  PathMeasures measures;
};

/// A named series of sweep samples.
struct SweepSeries {
  std::string parameter_name;
  std::vector<SweepPoint> points;
};

/// Evenly spaced values in [first, last] (inclusive, `count` >= 1).
/// count == 1 yields the single point `first` — a degenerate grid
/// (start == stop) emits one point, not a duplicated endpoint.
std::vector<double> linspace(double first, double last, std::size_t count);

/// Reachability/delay/etc. vs stationary link availability for a path
/// with homogeneous links (the sweep behind Figs. 8-9 and Table I).
/// Every sweep evaluates its grid points concurrently (`threads` as in
/// common::parallel_for: 0 = WHART_THREADS/hardware, 1 = serial) with
/// results in parameter order, bit-identical to the serial loop.
///
/// `channel` (every sweep): optional correlated-channel overlay.  When
/// non-null, each grid point rescales the template so its stationary
/// marginal success equals the point's link availability
/// (ChannelModel::with_marginal_success) and walks the channel-enlarged
/// chain.
SweepSeries sweep_availability(const PathModelConfig& config,
                               const std::vector<double>& availabilities,
                               unsigned threads = 0,
                               TransientKernel kernel =
                                   TransientKernel::kPerSlot,
                               bool reuse_skeleton = true,
                               std::size_t batch_lanes = 1,
                               const link::ChannelModel* channel = nullptr);

/// Sweep over the bit error rate (Eq. 1-2 pipeline), logarithmic ladders
/// welcome.
SweepSeries sweep_ber(const PathModelConfig& config,
                      const std::vector<double>& bit_error_rates,
                      unsigned threads = 0,
                      TransientKernel kernel =
                          TransientKernel::kPerSlot,
                      bool reuse_skeleton = true,
                      std::size_t batch_lanes = 1,
                      const link::ChannelModel* channel = nullptr);

/// Sweep over the hop count: paths of 1..`max_hops` hops scheduled
/// contiguously from slot 1 (Fig. 10).
SweepSeries sweep_hop_count(std::uint32_t max_hops, double availability,
                            net::SuperframeConfig superframe,
                            std::uint32_t reporting_interval,
                            unsigned threads = 0,
                            TransientKernel kernel =
                                TransientKernel::kPerSlot,
                            bool reuse_skeleton = true,
                            std::size_t batch_lanes = 1,
                            const link::ChannelModel* channel = nullptr);

/// Sweep over the reporting interval (Section VI-D).
SweepSeries sweep_reporting_interval_series(
    const PathModelConfig& base_config, double availability,
    const std::vector<std::uint32_t>& intervals, unsigned threads = 0,
    TransientKernel kernel = TransientKernel::kPerSlot,
    bool reuse_skeleton = true, std::size_t batch_lanes = 1,
    const link::ChannelModel* channel = nullptr);

/// Write a series as CSV: parameter, reachability, expected_delay_ms,
/// delay_jitter_ms, utilization, utilization_delivered.
void write_series_csv(std::ostream& out, const SweepSeries& series);

}  // namespace whart::hart
