// Reachability sensitivity: dR / d(pi_h) for every hop h of a path —
// which link upgrade buys the most delivery probability.  Computed by an
// adjoint (forward-mass x backward-delivery-gap) sweep over the layered
// chain, so one analysis prices every link simultaneously; a
// finite-difference cross-check lives in the tests.
//
// This makes the paper's advice quantitative: "the longest path with the
// lowest link availability forms the bottleneck of the network and
// improving the bottleneck can considerably improve the network
// performance" (Section VI-A).
#pragma once

#include <cstddef>
#include <vector>

#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/net/path.hpp"
#include "whart/net/schedule.hpp"
#include "whart/net/topology.hpp"

namespace whart::hart {

/// dR/dps per hop: how much the path's reachability rises per unit
/// increase of hop h's per-attempt success probability (all attempts of
/// that hop move together, as they do when its stationary availability
/// improves).  All entries are >= 0.  Read off the firing-table walk's
/// two passes (PathModel::walk): mass x (beta_success - beta_failure)
/// summed over the hop's firings.  For a hop with a multi-state channel
/// it is the derivative by a uniform shift of its per-state success
/// probabilities.
std::vector<double> reachability_sensitivity(
    const PathModel& model, const LinkProbabilityProvider& links);

/// Network-level link ranking: for every link, the summed dR/dpi over
/// all paths using it — the total reachability (expected delivered
/// messages per interval) gained per unit of availability improvement.
struct LinkSensitivity {
  net::LinkId link;
  double total_dR_dpi = 0.0;
  std::size_t paths_using = 0;
};

/// Rank all links of a scheduled network, most valuable upgrade first.
/// Per-path sensitivities are computed concurrently (`threads` as in
/// common::parallel_for); the ranking is independent of the thread count.
std::vector<LinkSensitivity> rank_link_upgrades(
    const net::Network& network, const std::vector<net::Path>& paths,
    const net::Schedule& schedule, net::SuperframeConfig superframe,
    std::uint32_t reporting_interval, unsigned threads = 0);

class WhatIfEngine;

/// Exact what-if pricing of one candidate link upgrade: every link's
/// finite reachability/delay impact, not its derivative.
struct LinkUpgradeImpact {
  net::LinkId link;

  /// Exact summed reachability gain over the paths using the link when
  /// its availability moves to the evaluated target.
  double reachability_delta = 0.0;

  /// Network-wide worst expected path delay after the upgrade, ms.
  double worst_expected_delay_ms = 0.0;

  std::size_t paths_using = 0;
};

/// The exact complement of rank_link_upgrades (DESIGN.md §15): move every
/// link's availability to `target_availability` one at a time through the
/// what-if engine — only the paths using each link are re-walked; every
/// other path's cached measures are reused — and rank
/// the finite gains, largest first (ties keep ascending link-id order).
/// Where rank_link_upgrades prices the *derivative* dR/dpi, this prices
/// the actual candidate upgrade; the two orders agree in the small-delta
/// limit and the derivative ranking is the cheaper screen for the
/// what-if pricing of the survivors.  Links already at or above the
/// target still get evaluated (their delta is then typically <= 0).
std::vector<LinkUpgradeImpact> evaluate_link_upgrades(
    WhatIfEngine& engine, double target_availability);

}  // namespace whart::hart
