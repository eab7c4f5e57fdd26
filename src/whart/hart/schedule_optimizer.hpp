// Delay-balancing schedule synthesis — the optimization the paper's
// eta_b gestures at (Section VI-B), done properly.
//
// With each path's chain laid out contiguously, path p's expected delay
// is 10 ms * (end slot of its chain) + cycle_ms * e_p, where e_p is the
// expected number of *extra* cycles (retries) given delivery — a
// quantity that depends only on the path's hop availabilities.  For the
// worst-case expected delay, an exchange argument shows the optimal
// order places chains in decreasing penalty cycle_slots * e_p; hop count
// breaks ties (longer chains earlier).  For homogeneous links this
// degenerates to the paper's "long paths first" eta_b.
#pragma once

#include <cstdint>
#include <vector>

#include "whart/hart/network_analysis.hpp"
#include "whart/net/path.hpp"
#include "whart/net/schedule.hpp"
#include "whart/net/superframe.hpp"
#include "whart/net/topology.hpp"

namespace whart::hart {

/// Expected extra cycles (retries) of each path given delivery, from the
/// analytic steady-state model; the building block of the penalty order.
/// Paths are evaluated concurrently (`threads` as in
/// common::parallel_for) with results in path order.
std::vector<double> expected_extra_cycles(
    const net::Network& network, const std::vector<net::Path>& paths,
    std::uint32_t reporting_interval, unsigned threads = 0);

/// Build the schedule that minimizes the worst-case expected path delay
/// among contiguous chain layouts.
net::Schedule build_min_worst_delay_schedule(
    const net::Network& network, const std::vector<net::Path>& paths,
    net::SuperframeConfig superframe, std::uint32_t reporting_interval);

/// Exact worst-case expected path delay of a schedule (ms), from the
/// per-path DTMC solves — the quantity build_min_worst_delay_schedule
/// minimizes, scored exactly so candidate layouts can be compared.
/// AnalysisOptions selects threads and the transient kernel.
double worst_expected_delay(const net::Network& network,
                            const std::vector<net::Path>& paths,
                            const net::Schedule& schedule,
                            net::SuperframeConfig superframe,
                            std::uint32_t reporting_interval,
                            const AnalysisOptions& options = {});

class WhatIfEngine;

/// What-if variant (DESIGN.md §15): the worst-case expected path delay
/// after `link`'s availability moves to `availability`, served from the
/// what-if engine — only paths scheduled over the link re-walk; every
/// other path's cached delay is reused.
double worst_expected_delay(WhatIfEngine& engine, net::LinkId link,
                            double availability);

}  // namespace whart::hart
