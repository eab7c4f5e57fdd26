// What-if evaluation (DESIGN.md §15): the interactive re-planning loop
// of the paper's evaluation — "what happens to reachability and delay if
// this one link degrades or is upgraded?" — answered without re-solving
// the network.  The engine keeps, per path, its PathModel, its baseline
// hop availabilities and its baseline PathMeasures; a what-if on one
// link re-walks only the paths whose schedules contain that link and
// returns every other path's cached measures untouched.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "whart/hart/network_analysis.hpp"
#include "whart/hart/path_analysis.hpp"
#include "whart/net/ids.hpp"
#include "whart/net/path.hpp"
#include "whart/net/schedule.hpp"
#include "whart/net/superframe.hpp"
#include "whart/net/topology.hpp"

namespace whart::hart {

/// Construction knobs of WhatIfEngine.
struct WhatIfOptions {
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

/// Cached re-solver over one (network, paths, schedule) analysis.  The
/// baseline pass derives each path's hop availabilities exactly as
/// analyze_network does (steady-state link models), so a what-if back to
/// a link's baseline availability reproduces the baseline measures
/// bitwise.  The engine holds a const reference to the network, which
/// must outlive it.
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
    PathModel model;
    std::vector<net::LinkId> hop_links;  ///< resolved link per hop
    std::vector<double> availability;    ///< baseline per-hop
  };

  /// Walk path `p` with `link` moved to `availability`, into `out`.
  void resolve_path(std::size_t p, net::LinkId link, double availability,
                    PathMeasures& out);

  const net::Network* network_;
  std::vector<PathState> states_;
  std::vector<PathMeasures> baseline_;
  std::vector<net::LinkId> links_;
  std::unordered_map<net::LinkId, std::vector<std::size_t>> paths_of_link_;
  /// Query scratch: the walk's workspace and the measures what_if_delta
  /// reduces.
  SolveWorkspace workspace_;
  PathMeasures scratch_measures_;
};

}  // namespace whart::hart
