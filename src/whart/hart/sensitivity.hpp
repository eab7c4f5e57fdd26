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
#include <span>
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
/// improves).  All entries are >= 0.  kPerSlot reads them off the
/// firing-table walk's two passes (PathModel::walk); for a hop with a
/// multi-state channel that is the derivative by a uniform shift of its
/// per-state success probabilities.  kSuperframeProduct folds the
/// adjoint cycle-by-cycle through the superframe product (one bilinear
/// form per cycle) when `links` is cycle-stationary with i.i.d. attempts
/// — the batch sweep below at one lane over a one-shot skeleton —
/// agreeing with the walk to rounding; otherwise it walks.
std::vector<double> reachability_sensitivity(
    const PathModel& model, const LinkProbabilityProvider& links,
    TransientKernel kernel = TransientKernel::kPerSlot);

/// Batched sensitivity (DESIGN.md §13): one adjoint sweep over the
/// skeleton's shared patterns prices every provider at once,
/// lane-parallel.  Returns one dR/dps vector per provider, in order.
/// Lanes the sweep cannot take (kernel != kSuperframeProduct, a
/// non-cycle-stationary or a channel-enlarged provider) walk the firing
/// table instead; every other lane gets the same bits it would get
/// alone.
std::vector<std::vector<double>> reachability_sensitivity_batch(
    const PathModelSkeleton& skeleton,
    std::span<const LinkProbabilityProvider* const> links,
    TransientKernel kernel = TransientKernel::kPerSlot);

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
/// Paths sharing a schedule shape (equal skeleton fingerprints, DESIGN.md
/// §12) share one symbolic model build — the adjoint sweep reads only
/// the shape, so the ranking is bitwise-identical to per-path builds.
/// Same-shape paths are priced through reachability_sensitivity_batch in
/// groups of at most `batch_lanes` lanes; the lane count changes only
/// the work per pass, not the ranking.
std::vector<LinkSensitivity> rank_link_upgrades(
    const net::Network& network, const std::vector<net::Path>& paths,
    const net::Schedule& schedule, net::SuperframeConfig superframe,
    std::uint32_t reporting_interval, unsigned threads = 0,
    TransientKernel kernel = TransientKernel::kPerSlot,
    std::size_t batch_lanes = 1);

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
/// incremental what-if engine — only the paths using each link are
/// re-solved; every other path's cached measures are reused — and rank
/// the finite gains, largest first (ties keep ascending link-id order).
/// Where rank_link_upgrades prices the *derivative* dR/dpi, this prices
/// the actual candidate upgrade; the two orders agree in the small-delta
/// limit and the derivative ranking is the cheaper screen for the
/// what-if pricing of the survivors.  Links already at or above the
/// target still get evaluated (their delta is then typically <= 0).
std::vector<LinkUpgradeImpact> evaluate_link_upgrades(
    WhatIfEngine& engine, double target_availability);

}  // namespace whart::hart
