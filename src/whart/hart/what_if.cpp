#include "whart/hart/what_if.hpp"

#include <algorithm>
#include <utility>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/common/parallel.hpp"

namespace whart::hart {

WhatIfEngine::WhatIfEngine(const net::Network& network,
                           const std::vector<net::Path>& paths,
                           const net::Schedule& schedule,
                           net::SuperframeConfig superframe,
                           std::uint32_t reporting_interval,
                           WhatIfOptions options)
    : network_(&network) {
  WHART_REQUEST_SPAN("whatif_baseline");
  expects(!paths.empty(), "at least one path");
  links_ = network.links();
  states_.reserve(paths.size());
  for (std::size_t p = 0; p < paths.size(); ++p) {
    PathState& state = states_.emplace_back(PathState{
        PathModel(PathModelConfig::from_schedule(schedule, p, superframe,
                                                 reporting_interval)),
        paths[p].resolve_links(network),
        {}});
    for (const link::LinkModel& model : paths[p].hop_models(network))
      state.availability.push_back(model.steady_state_availability());
    for (net::LinkId link : state.hop_links) {
      std::vector<std::size_t>& users = paths_of_link_[link];
      if (users.empty() || users.back() != p) users.push_back(p);
    }
  }

  // Baseline fan-out.  The availabilities are derived exactly as
  // analyze_network derives them, so a what-if back to a link's baseline
  // availability reproduces these measures bitwise.
  baseline_.resize(paths.size());
  common::WorkspacePool<SolveWorkspace> workspaces;
  const WalkLoopTimer timer(paths.size());
  common::parallel_for(
      paths.size(),
      [&](std::size_t p) {
        const PathState& state = states_[p];
        auto workspace = workspaces.acquire();
        state.model.analyze_into(SteadyStateLinks(state.availability),
                                 PathAnalysisOptions{}, *workspace,
                                 workspace->scratch_result);
        baseline_[p] = measures_from_transient(state.model.config(),
                                               workspace->scratch_result);
      },
      options.threads);
  WHART_COUNT("hart.whatif.engines");
  WHART_GAUGE_SET("hart.whatif.paths", static_cast<double>(paths.size()));
}

void WhatIfEngine::resolve_path(std::size_t p, net::LinkId link,
                                double availability, PathMeasures& out) {
  const PathState& state = states_[p];
  std::vector<double> hop_availability = state.availability;
  for (std::size_t h = 0; h < state.hop_links.size(); ++h)
    if (state.hop_links[h] == link) hop_availability[h] = availability;
  state.model.analyze_into(SteadyStateLinks(std::move(hop_availability)),
                           PathAnalysisOptions{}, workspace_,
                           workspace_.scratch_result);
  out = measures_from_transient(state.model.config(),
                                workspace_.scratch_result);
}

WhatIfResult WhatIfEngine::what_if(net::LinkId link, double availability) {
  WHART_SPAN("whatif_query");
  expects(availability >= 0.0 && availability <= 1.0,
          "availability in [0, 1]");
  WhatIfResult result;
  result.per_path = baseline_;
  const std::span<const std::size_t> affected = affected_paths(link);
  const WalkLoopTimer timer(affected.size());
  for (std::size_t p : affected)
    resolve_path(p, link, availability, result.per_path[p]);
  result.paths_resolved = affected.size();
  result.paths_reused = baseline_.size() - result.paths_resolved;
  WHART_COUNT("hart.whatif.queries");
  WHART_COUNT_N("hart.whatif.paths_resolved", result.paths_resolved);
  WHART_COUNT_N("hart.whatif.paths_reused", result.paths_reused);
  return result;
}

WhatIfDelta WhatIfEngine::what_if_delta(net::LinkId link,
                                        double availability) {
  WHART_SPAN("whatif_query");
  expects(availability >= 0.0 && availability <= 1.0,
          "availability in [0, 1]");
  WhatIfDelta delta;
  // Affected path indices are ascending by construction, so the
  // worst-delay scan below can merge them against the baseline in one
  // pass.
  const std::span<const std::size_t> affected = affected_paths(link);
  std::vector<double> new_delays;
  new_delays.reserve(affected.size());
  const WalkLoopTimer timer(affected.size());
  for (std::size_t p : affected) {
    resolve_path(p, link, availability, scratch_measures_);
    delta.reachability_delta +=
        scratch_measures_.reachability - baseline_[p].reachability;
    new_delays.push_back(scratch_measures_.expected_delay_ms);
  }
  std::size_t next = 0;
  for (std::size_t p = 0; p < baseline_.size(); ++p) {
    const double d = next < affected.size() && affected[next] == p
                         ? new_delays[next++]
                         : baseline_[p].expected_delay_ms;
    delta.worst_expected_delay_ms = std::max(delta.worst_expected_delay_ms, d);
  }
  delta.paths_resolved = affected.size();
  WHART_COUNT("hart.whatif.queries");
  WHART_COUNT_N("hart.whatif.paths_resolved", delta.paths_resolved);
  WHART_COUNT_N("hart.whatif.paths_reused",
                baseline_.size() - delta.paths_resolved);
  return delta;
}

std::size_t WhatIfEngine::paths_using(net::LinkId link) const {
  return affected_paths(link).size();
}

std::span<const std::size_t> WhatIfEngine::affected_paths(
    net::LinkId link) const {
  const auto it = paths_of_link_.find(link);
  return it == paths_of_link_.end() ? std::span<const std::size_t>{}
                                    : std::span<const std::size_t>(it->second);
}

double WhatIfEngine::baseline_availability(net::LinkId link) const {
  return network_->link(link).model.steady_state_availability();
}

}  // namespace whart::hart
