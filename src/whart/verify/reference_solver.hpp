// Deliberately naive reference solver — the independent second opinion
// of the differential oracle.  It shares NO code with the production
// path model (only the link-provider interface it reads): it enumerates
// the full rectangular (t, h) state grid (including states the
// production solver prunes as unreachable), materializes the one-step
// transition matrix as a dense row-major array, propagates the initial
// distribution by dense matrix-vector products, and evaluates the
// paper's Eqs. 6-11 as straight-line formulas.  O(N^2) per step where
// N = ttl * hops + Is + 1 — fine for the small scenarios the fuzzer
// generates, and simple enough to audit by eye against the paper.
#pragma once

#include <vector>

#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/link/channel_model.hpp"

namespace whart::verify {

/// Everything the reference solver computes, field-for-field comparable
/// with hart::PathTransientResult / hart::PathMeasures.
struct ReferenceResult {
  std::vector<double> cycle_probabilities;
  double discard_probability = 0.0;
  double expected_transmissions = 0.0;
  std::vector<double> expected_transmissions_per_hop;
  double expected_transmissions_delivered = 0.0;

  // Paper Eqs. 6-11, straight-line.
  double reachability = 0.0;                      // Eq. 6
  std::vector<double> delays_ms;                  // Eq. 7
  std::vector<double> delay_distribution;         // Eq. 8
  double expected_delay_ms = 0.0;                 // Eq. 9
  double utilization = 0.0;                       // Eq. 10
  double expected_intervals_to_first_loss = 0.0;  // Eq. 11
  double delay_jitter_ms = 0.0;

  /// Dense states, for diagnostics.
  std::size_t state_count = 0;
};

/// Solve `config` under per-slot success probabilities from `links`
/// (time-varying providers included): each grid state belongs to one
/// time layer t, so the attempt leaving it reads the provider at the
/// absolute slot of uplink slot t + 1.
ReferenceResult reference_solve(const hart::PathModelConfig& config,
                                const hart::LinkProbabilityProvider& links);

/// Solve `config` under per-hop steady-state availabilities (one entry
/// per hop, each in [0, 1]).
ReferenceResult reference_solve(const hart::PathModelConfig& config,
                                const std::vector<double>& availabilities);

/// Solve `config` under per-hop channel chains (one link::ChannelModel
/// per hop, already rescaled to the hop's availability).  Independent
/// second opinion on the channel-enlarged production solver: the grid is
/// widened to (t, h, s) — uplink layer, hop, channel state of the
/// current hop — and, because the chain mixes in every 10 ms slot, the
/// forward/backward passes step every absolute slot of the interval,
/// idle uplink and downlink slots included.  The per-slot matrices are
/// kept as entry lists (row, column, value) rather than dense arrays, so
/// frames of a few hundred slots stay affordable.
ReferenceResult reference_solve_channel(
    const hart::PathModelConfig& config,
    const std::vector<link::ChannelModel>& channels);

}  // namespace whart::verify
