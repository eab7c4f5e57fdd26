#include "whart/hart/what_if.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/common/parallel.hpp"
#include "whart/hart/path_cache.hpp"

namespace whart::hart {

WhatIfEngine::WhatIfEngine(const net::Network& network,
                           const std::vector<net::Path>& paths,
                           const net::Schedule& schedule,
                           net::SuperframeConfig superframe,
                           std::uint32_t reporting_interval,
                           WhatIfOptions options)
    : network_(&network), options_(options) {
  WHART_REQUEST_SPAN("whatif_baseline");
  expects(!paths.empty(), "at least one path");
  links_ = network.links();
  states_.resize(paths.size());
  baseline_.resize(paths.size());

  // Serial symbolic pre-pass: shapes share one skeleton (the same
  // fingerprint grouping analyze_network applies) and every path gets a
  // product cache borrowing its skeleton's chain.
  std::unordered_map<std::string, std::shared_ptr<const PathModelSkeleton>>
      skeletons;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    PathState& state = states_[p];
    state.config = PathModelConfig::from_schedule(schedule, p, superframe,
                                                  reporting_interval);
    state.hop_links = paths[p].resolve_links(network);
    state.availability.reserve(state.config.hop_count());
    for (const link::LinkModel& model : paths[p].hop_models(network))
      state.availability.push_back(model.steady_state_availability());
    auto& slot = skeletons[PathAnalysisCache::skeleton_fingerprint(
        state.config, options_.kernel)];
    if (slot == nullptr)
      slot = std::make_shared<const PathModelSkeleton>(state.config);
    state.skeleton = slot;
    state.product = std::make_unique<markov::IncrementalProduct>(
        state.skeleton->chain(), state.skeleton->factor_patterns());
    for (net::LinkId link : state.hop_links) {
      std::vector<std::size_t>& users = paths_of_link_[link];
      if (users.empty() || users.back() != p) users.push_back(p);
    }
  }

  // Baseline fan-out: seed each path's product (a full replay) and cache
  // its measures.  The availabilities are derived exactly as
  // analyze_network derives them, so a what-if back to a link's baseline
  // availability reproduces these measures bitwise.
  common::parallel_for(
      paths.size(),
      [&](std::size_t p) {
        PathState& state = states_[p];
        PathAnalysisOptions path_options;
        path_options.kernel = options_.kernel;
        const SteadyStateLinks links(state.availability);
        if (state.skeleton->analyze_incremental_into(
                links, path_options, {}, *state.product, state.workspace,
                state.workspace.scratch_result)) {
          state.incremental_ok = true;
        } else {
          state.skeleton->analyze_into(links, path_options, state.workspace,
                                       state.workspace.scratch_result);
        }
        baseline_[p] =
            measures_from_transient(state.config, state.workspace.scratch_result);
      },
      options_.threads);
  WHART_COUNT("hart.whatif.engines");
  WHART_GAUGE_SET("hart.whatif.paths", static_cast<double>(paths.size()));
}

void WhatIfEngine::revert_path(PathState& state) {
  // Restore the baseline firing values and product partials directly —
  // SteadyStateLinks is slot-independent, so the written values are the
  // very doubles the baseline provider produced and the targeted replay
  // returns every partial row to its bitwise-baseline value.
  const std::span<const PathModelSkeleton::SlotProvenance> provenance =
      state.skeleton->provenance();
  for (std::size_t i = 0; i < provenance.size(); ++i) {
    const PathModelSkeleton::SlotProvenance& prov = provenance[i];
    bool changed = false;
    for (std::size_t hop : state.changed_hops) changed |= prov.hop == hop;
    if (!changed) continue;
    prov.write(state.availability[prov.hop],
               state.workspace.factor_values[i]);
    state.product->update(i, prov.failure_index);
    state.product->update(i, prov.success_index);
  }
  state.product->propagate(state.workspace.factor_values);
}

void WhatIfEngine::resolve_path(std::size_t p, net::LinkId link,
                                double availability, PathMeasures& out) {
  PathState& state = states_[p];
  state.changed_hops.clear();
  state.scratch_availability = state.availability;
  for (std::size_t h = 0; h < state.hop_links.size(); ++h)
    if (state.hop_links[h] == link) {
      state.changed_hops.push_back(h);
      state.scratch_availability[h] = availability;
    }
  const SteadyStateLinks links(state.scratch_availability);
  PathAnalysisOptions path_options;
  path_options.kernel = options_.kernel;
  if (state.incremental_ok &&
      state.skeleton->analyze_incremental_into(links, path_options,
                                               state.changed_hops,
                                               *state.product, state.workspace,
                                               scratch_transient_)) {
    out = measures_from_transient(state.config, scratch_transient_);
    revert_path(state);
    return;
  }
  // Fallback (per-slot kernel): the skeleton-cached solve
  // analyze_network itself would run, on a scratch workspace so the
  // incremental slot values stay at baseline.
  WHART_COUNT("hart.whatif.fresh_fallbacks");
  state.skeleton->analyze_into(links, path_options, fallback_workspace_,
                               scratch_transient_);
  out = measures_from_transient(state.config, scratch_transient_);
}

WhatIfResult WhatIfEngine::what_if(net::LinkId link, double availability) {
  WHART_SPAN("whatif_query");
  expects(availability >= 0.0 && availability <= 1.0,
          "availability in [0, 1]");
  WhatIfResult result;
  result.per_path = baseline_;
  const auto it = paths_of_link_.find(link);
  if (it != paths_of_link_.end()) {
    for (std::size_t p : it->second)
      resolve_path(p, link, availability, result.per_path[p]);
    result.paths_resolved = it->second.size();
  }
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
  const auto it = paths_of_link_.find(link);
  // Affected path indices are ascending by construction, so the
  // worst-delay scan below can merge them against the baseline in one
  // pass.
  static const std::vector<std::size_t> kNone;
  const std::vector<std::size_t>& affected =
      it != paths_of_link_.end() ? it->second : kNone;
  std::vector<double> new_delays;
  new_delays.reserve(affected.size());
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
