// Whole-network evaluation (paper Section VI): per-path measures, the
// overall delay distribution Gamma and its mean (Eq. 13), the network
// utilization (Eq. 11) and bottleneck identification.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "whart/hart/path_analysis.hpp"
#include "whart/hart/path_cache.hpp"
#include "whart/link/channel_model.hpp"
#include "whart/net/path.hpp"
#include "whart/net/schedule.hpp"
#include "whart/net/superframe.hpp"
#include "whart/net/topology.hpp"

namespace whart::hart {

/// Execution knobs of analyze_network.  Neither threading nor caching
/// changes the result: per-path measures land by index and the cache's
/// canonical solves are bit-identical to direct ones.
struct AnalysisOptions {
  /// Worker threads for the per-path fan-out; 0 consults WHART_THREADS
  /// and falls back to the hardware concurrency, 1 runs serially.
  unsigned threads = 0;

  /// Share solves between structurally identical paths (on by default;
  /// purely a speedup).
  bool use_cache = true;

  /// Optional caller-owned cache reused across calls (e.g. across the
  /// repeated analyses of a sweep or benchmark).  When null and
  /// use_cache is true, a fresh per-call cache still deduplicates within
  /// the call.
  PathAnalysisCache* cache = nullptr;

  /// Transient solver for the per-path solves.  Unset (the default)
  /// picks per path kind, default_kernel() (DESIGN.md §11): the
  /// superframe product for i.i.d. steady-state paths, whose cycle
  /// product runs over the transmission opportunities only, and the
  /// per-slot core for channel-enlarged paths (see `channel`), whose
  /// enlarged cycle product still mixes every slot and is the slower of
  /// the two there.  A value forces that kernel on every path (the
  /// differential oracle's and the goldens' seam).  The kernels agree on
  /// every measure to ~1e-12.
  std::optional<TransientKernel> kernel;

  /// Share the symbolic solve phase between paths of identical schedule
  /// shape (DESIGN.md §12): paths with equal skeleton fingerprints run
  /// Algorithm 1 once and each perform only a numeric refill.  Bitwise
  /// identical to fresh per-path solves; off is the differential
  /// oracle's baseline.  Forwarded to the cache when one is in use.
  bool reuse_skeleton = true;

  /// Correlated-channel overlay.  When set, every hop of every path runs
  /// this channel rescaled so its stationary marginal success equals the
  /// hop's steady-state availability (ChannelModel::with_marginal_success)
  /// and the per-path solves go through the channel-enlarged DTMC
  /// (hart/path_model_channel.cpp).  Channel paths always solve fresh:
  /// the cache and the skeleton store key the i.i.d. shape, not the
  /// enlarged one, so neither is consulted.  A one-state (i.i.d.)
  /// channel reproduces the plain analysis to rounding.
  std::optional<link::ChannelModel> channel;
};

/// The kernel analyze_network runs when AnalysisOptions::kernel is
/// unset: the superframe product on i.i.d. paths, the per-slot core on
/// channel-enlarged ones.
constexpr TransientKernel default_kernel(bool channel_enlarged) noexcept {
  return channel_enlarged ? TransientKernel::kPerSlot
                          : TransientKernel::kSuperframeProduct;
}

/// One point of the network-wide delay distribution.
struct DelayProbability {
  double delay_ms = 0.0;
  double probability = 0.0;

  friend bool operator==(const DelayProbability&,
                         const DelayProbability&) = default;
};

/// Roll-up of the per-path SolverDiagnostics blocks: where the run's
/// DTMC work went.  Paths analyzed without diagnostics (analytic
/// derivations) contribute nothing.
struct NetworkDiagnostics {
  /// Paths whose measures required a fresh DTMC solve.
  std::uint64_t dtmc_solves = 0;

  /// Paths served from the path-analysis cache.
  std::uint64_t cache_hits = 0;

  /// Total chain states across the fresh solves.
  std::uint64_t states_solved = 0;

  /// Wall-clock summed over fresh solves, ns (0 when metrics are off).
  std::uint64_t solve_ns_total = 0;

  /// Worst probability-mass residual seen across all solves.
  double max_mass_residual = 0.0;
};

/// Aggregated network measures.
struct NetworkMeasures {
  /// Per-path measures, in path order.
  std::vector<PathMeasures> per_path;

  /// Gamma: the average of all path delay distributions, sorted by delay.
  std::vector<DelayProbability> overall_delay_distribution;

  /// E[Gamma]: the average of the expected path delays (Eq. 13), ms.
  double mean_delay_ms = 0.0;

  /// U = sum over paths of U_p (Eq. 11), counting all attempts.
  double network_utilization = 0.0;

  /// U summed from the delivered-only per-path utilization — the
  /// accounting that reproduces the paper's Table II.
  double network_utilization_delivered = 0.0;

  /// Path with the largest expected delay (0-based index).
  std::size_t bottleneck_by_delay = 0;

  /// Path with the smallest reachability (0-based index).
  std::size_t bottleneck_by_reachability = 0;

  /// Solver roll-up over the per-path diagnostics blocks.
  NetworkDiagnostics diagnostics;
};

/// Exact DTMC analysis of every path with steady-state links taken from
/// the network's link models.  Paths are solved concurrently (see
/// AnalysisOptions); the result is identical to the serial loop.
NetworkMeasures analyze_network(const net::Network& network,
                                const std::vector<net::Path>& paths,
                                const net::Schedule& schedule,
                                net::SuperframeConfig superframe,
                                std::uint32_t reporting_interval,
                                const AnalysisOptions& options = {});

/// Aggregate precomputed per-path measures (used when paths were analyzed
/// under non-steady regimes, e.g. failure scripts).
NetworkMeasures aggregate_measures(std::vector<PathMeasures> per_path);

}  // namespace whart::hart
