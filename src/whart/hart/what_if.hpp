// Incremental what-if evaluation (DESIGN.md §15): the interactive
// re-planning loop of the paper's evaluation — "what happens to
// reachability and delay if this one link degrades or is upgraded?" —
// answered without re-solving the network.  The engine caches, per path,
// the symbolic skeleton, a warm workspace, the baseline PathMeasures and
// an IncrementalProduct holding the cycle product's partial values; a
// what-if on one link re-solves only the paths whose schedules contain
// that link (through the skeleton's opportunity provenance map and
// targeted Gustavson row replay) and returns every other path's cached
// measures untouched.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "whart/hart/network_analysis.hpp"
#include "whart/hart/path_analysis.hpp"
#include "whart/markov/incremental_product.hpp"
#include "whart/net/ids.hpp"
#include "whart/net/path.hpp"
#include "whart/net/schedule.hpp"
#include "whart/net/superframe.hpp"
#include "whart/net/topology.hpp"

namespace whart::hart {

/// Construction knobs of WhatIfEngine.
struct WhatIfOptions {
  /// Transient kernel of the per-path solves.  The incremental product
  /// replay exists only under kSuperframeProduct; with kPerSlot every
  /// affected path re-solves through the (still skeleton-cached) per-slot
  /// core.
  TransientKernel kernel = TransientKernel::kSuperframeProduct;

  /// Worker threads of the baseline fan-out (0 = WHART_THREADS).
  /// What-if queries themselves run serially — they touch few paths.
  unsigned threads = 0;
};

/// Full result of one what-if: per-path measures in path order.
/// Unaffected paths carry the engine's cached baseline measures (copied,
/// never re-solved); pass `per_path` to aggregate_measures for the
/// network view.
struct WhatIfResult {
  std::vector<PathMeasures> per_path;
  std::size_t paths_resolved = 0;  ///< paths containing the link
  std::size_t paths_reused = 0;    ///< untouched cached paths
};

/// Reduced result of one what-if, for sweeps that only rank candidates
/// (no per-path copies).
struct WhatIfDelta {
  /// Sum over affected paths of (new reachability - baseline).
  double reachability_delta = 0.0;

  /// Network-wide worst expected path delay after the change, ms.
  double worst_expected_delay_ms = 0.0;

  std::size_t paths_resolved = 0;
};

/// Cached incremental re-solver over one (network, paths, schedule)
/// analysis.  The baseline pass derives each path's hop availabilities
/// exactly as analyze_network does (steady-state link models), so a
/// what-if back to a link's baseline availability reproduces the
/// baseline measures bitwise.  The engine holds const references to the
/// network and paths; both must outlive it.
class WhatIfEngine {
 public:
  WhatIfEngine(const net::Network& network, const std::vector<net::Path>& paths,
               const net::Schedule& schedule, net::SuperframeConfig superframe,
               std::uint32_t reporting_interval, WhatIfOptions options = {});

  /// Baseline per-path measures, in path order.
  [[nodiscard]] const std::vector<PathMeasures>& baseline() const noexcept {
    return baseline_;
  }

  /// Re-evaluate with `link`'s steady-state availability set to
  /// `availability` (in [0, 1]); every other link keeps its baseline.
  /// Only paths whose schedules contain the link are re-solved.
  [[nodiscard]] WhatIfResult what_if(net::LinkId link, double availability);

  /// The reduced form of what_if — same solves, no per-path copies.
  [[nodiscard]] WhatIfDelta what_if_delta(net::LinkId link,
                                          double availability);

  /// All link ids of the network (the all-links sweep domain).
  [[nodiscard]] const std::vector<net::LinkId>& links() const noexcept {
    return links_;
  }

  /// Number of paths whose resolved schedules contain `link`.
  [[nodiscard]] std::size_t paths_using(net::LinkId link) const;

  /// Indices of the paths whose resolved schedules contain `link`,
  /// ascending; empty when no path uses it.
  [[nodiscard]] std::span<const std::size_t> affected_paths(
      net::LinkId link) const;

  /// The link's baseline steady-state availability.
  [[nodiscard]] double baseline_availability(net::LinkId link) const;

 private:
  struct PathState {
    PathModelConfig config;
    std::vector<net::LinkId> hop_links;    ///< resolved link per hop
    std::vector<double> availability;      ///< baseline per-hop
    std::shared_ptr<const PathModelSkeleton> skeleton;
    std::unique_ptr<markov::IncrementalProduct> product;
    SolveWorkspace workspace;
    /// Baseline seeding succeeded, so incremental solves apply; when
    /// false (the per-slot kernel) every what-if on this path re-solves
    /// through analyze_into.
    bool incremental_ok = false;
    /// Hop indices and perturbed availabilities of the current query.
    std::vector<std::size_t> changed_hops;
    std::vector<double> scratch_availability;
  };

  /// Solve path `p` with `link` moved to `availability`, into `out`.
  void resolve_path(std::size_t p, net::LinkId link, double availability,
                    PathMeasures& out);

  /// Restore path `p`'s firing values and product partials to baseline
  /// after an incremental solve (provenance writes + targeted replay —
  /// no transient solve).
  void revert_path(PathState& state);

  const net::Network* network_;
  WhatIfOptions options_;
  std::vector<PathState> states_;
  std::vector<PathMeasures> baseline_;
  std::vector<net::LinkId> links_;
  std::unordered_map<net::LinkId, std::vector<std::size_t>> paths_of_link_;
  /// Fresh-fallback scratch, kept apart from the per-path incremental
  /// workspaces (whose factor values must persist between queries).
  SolveWorkspace fallback_workspace_;
  PathTransientResult scratch_transient_;
  PathMeasures scratch_measures_;
};

}  // namespace whart::hart
