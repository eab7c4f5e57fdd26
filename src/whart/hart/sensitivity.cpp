#include "whart/hart/sensitivity.hpp"

#include <algorithm>

#include "whart/common/contracts.hpp"
#include "whart/common/parallel.hpp"
#include "whart/hart/what_if.hpp"

namespace whart::hart {

std::vector<double> reachability_sensitivity(
    const PathModel& model, const LinkProbabilityProvider& links) {
  const std::size_t hops = model.config().hop_count();
  expects(links.hop_count() >= hops, "provider covers every hop");
  // The firing-table walk's two passes price every hop at once.
  std::vector<double> sensitivity(hops, 0.0);
  SolveWorkspace workspace;
  model.walk(links, ChannelFault::kNone, workspace, workspace.scratch_result,
             sensitivity);
  return sensitivity;
}

std::vector<LinkSensitivity> rank_link_upgrades(
    const net::Network& network, const std::vector<net::Path>& paths,
    const net::Schedule& schedule, net::SuperframeConfig superframe,
    std::uint32_t reporting_interval, unsigned threads) {
  expects(!paths.empty(), "at least one path");
  std::vector<LinkSensitivity> ranking;
  for (net::LinkId id : network.links())
    ranking.push_back(LinkSensitivity{id, 0.0, 0});

  // Paths fan out across threads; the accumulation over shared links
  // stays serial and in path order so the sums are reproducible.
  std::vector<std::vector<double>> per_hop_all(paths.size());
  common::parallel_for(
      paths.size(),
      [&](std::size_t p) {
        const PathModel model(PathModelConfig::from_schedule(
            schedule, p, superframe, reporting_interval));
        per_hop_all[p] = reachability_sensitivity(
            model, SteadyStateLinks(paths[p].hop_models(network)));
      },
      threads);
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const std::vector<net::LinkId> hop_links =
        paths[p].resolve_links(network);
    for (std::size_t h = 0; h < hop_links.size(); ++h) {
      ranking[hop_links[h].value].total_dR_dpi += per_hop_all[p][h];
      ++ranking[hop_links[h].value].paths_using;
    }
  }

  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const LinkSensitivity& a, const LinkSensitivity& b) {
                     return a.total_dR_dpi > b.total_dR_dpi;
                   });
  return ranking;
}

std::vector<LinkUpgradeImpact> evaluate_link_upgrades(
    WhatIfEngine& engine, double target_availability) {
  expects(target_availability >= 0.0 && target_availability <= 1.0,
          "availability in [0, 1]");
  // The all-links what-if sweep: one query per link.  The
  // base vector is in ascending link-id order (Network::links), so the
  // stable sort leaves equal-delta links id-ordered — the same
  // tie-breaking rank_link_upgrades applies.
  std::vector<LinkUpgradeImpact> ranking;
  ranking.reserve(engine.links().size());
  for (net::LinkId link : engine.links()) {
    const WhatIfDelta delta = engine.what_if_delta(link, target_availability);
    ranking.push_back({link, delta.reachability_delta,
                       delta.worst_expected_delay_ms, delta.paths_resolved});
  }
  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const LinkUpgradeImpact& a, const LinkUpgradeImpact& b) {
                     return a.reachability_delta > b.reachability_delta;
                   });
  return ranking;
}

}  // namespace whart::hart
