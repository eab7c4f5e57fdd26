// Whole-network evaluation (paper Section VI): per-path measures, the
// overall delay distribution Gamma and its mean (Eq. 13), the network
// utilization (Eq. 11) and bottleneck identification.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <vector>

#include "whart/hart/path_analysis.hpp"
#include "whart/link/channel_model.hpp"
#include "whart/net/path.hpp"
#include "whart/net/schedule.hpp"
#include "whart/net/superframe.hpp"
#include "whart/net/topology.hpp"

namespace whart::hart {

/// Execution knobs of analyze_network.  Threading does not change the
/// result: per-path measures land by index.
struct AnalysisOptions {
  /// Worker threads for the per-path fan-out; 0 consults WHART_THREADS
  /// and falls back to the hardware concurrency, 1 runs serially.
  unsigned threads = 0;

  /// Read by nothing; declared only because e2ebench/ sets it.  Every
  /// path walks its own firing table (DESIGN.md §11).
  bool use_cache = true;

  /// Read by nothing; declared only because e2ebench/ sets it.
  std::optional<TransientKernel> kernel;

  /// Read by nothing; declared only because e2ebench/ sets it.
  bool reuse_skeleton = true;

  /// Correlated-channel overlay.  When set, every hop of every path runs
  /// this channel rescaled so its stationary marginal success equals the
  /// hop's steady-state availability (ChannelModel::with_marginal_success)
  /// and the per-path solves walk the channel-enlarged chain.  A
  /// one-state (i.i.d.) channel reproduces the plain analysis to
  /// rounding.
  std::optional<link::ChannelModel> channel;
};

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
  /// Paths whose measures came from a DTMC solve.
  std::uint64_t dtmc_solves = 0;

  /// Total chain states across the solves.
  std::uint64_t states_solved = 0;

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
/// under non-steady regimes, e.g. failure scripts).  The paths belong to
/// one network: they share cycle_slots, and each gateway slot lies in
/// [1, cycle_slots].
NetworkMeasures aggregate_measures(std::vector<PathMeasures> per_path);

/// Write the per-path answer of a network request as CSV, the rows
/// whart_cli --csv exports: a header, then per path its rendering, hop
/// count, reachability, expected_delay_ms, utilization,
/// utilization_delivered and expected_intervals_to_first_loss, the
/// numbers as std::to_string prints them.
void write_paths_csv(std::ostream& out, const net::Network& network,
                     const std::vector<net::Path>& paths,
                     const NetworkMeasures& measures);

}  // namespace whart::hart
