// Differential oracle.  For one scenario it computes:
//   (1) the production leg — hart::PathModel / compute_path_measures,
//       the firing-table walk the rest of the system uses;
//   (2) the reference leg — verify::reference_solve, an independent
//       dense implementation of the same math; the same arm holds the
//       walk's delivery records to its g(i) (bitwise, per cycle, each
//       record at a last-hop firing of its own cycle) and its adjoint,
//       hart::reachability_sensitivity, to finite differences of its R;
//   (3) the simulator leg — sim::NetworkSimulator in the kIndependent
//       regime, whose empirical frequencies converge to the analytic
//       probabilities exactly;
//   (4) the channel leg — when the scenario carries a correlated-channel
//       overlay, the channel-enlarged walk is compared against
//       verify::reference_solve_channel, an independent solver over the
//       full (t, hop, channel-state) grid, and the simulator leg
//       switches to the kChannel regime so the empirical draws come from
//       the very chains the analytics solve;
//   (5) the what-if leg — hart::WhatIfEngine, which re-walks only the
//       paths using a changed link, against a fresh analyze_network of a
//       network copy with that link moved, for every link in turn, to
//       1e-12 relative.
// Production vs. reference must agree to a deterministic relative
// tolerance (both are exact solvers of the same chain).  Production vs.
// simulator is judged statistically: a disagreement counts only when
// the analytic value falls outside a Wilson/Hoeffding bound computed
// from the sample size at a per-check failure probability delta — no
// fixed epsilons, and the false-alarm rate of a whole fuzzing run is
// bounded by (checks x delta).
//
// Fault injection: the oracle can deliberately corrupt its production
// leg (and only that leg) to prove the harness catches real bugs —
// kLinkBias biases the availabilities the production solver sees,
// kDiscardLeak leaks discard mass, kCycleShift rotates the per-cycle
// delivery probabilities, kChannelStateLeak and kChannelGapShift
// corrupt the channel leg's walk,
// and kWhatIfSkipPath leaves one affected path of each what-if answer at
// its baseline measures.  A healthy harness reports findings for every
// injection and none for kNone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "whart/sim/simulator.hpp"
#include "whart/verify/scenario.hpp"

namespace whart::verify {

/// Deliberate production-leg corruption (see file comment).
enum class Injection {
  kNone,
  /// Availabilities seen by the production solver biased +0.05.
  kLinkBias,
  /// Production discard probability scaled by 0.875.
  kDiscardLeak,
  /// Production cycle probabilities rotated by one cycle.
  kCycleShift,
  /// The channel leg's walk redraws failed mass at the *stationary*
  /// distribution instead of keeping the state it failed in — the
  /// signature of dropping the channel-state memory between retry
  /// attempts (what makes bursts bursts).  To make the self-test
  /// deterministic the oracle forces a fixed slow-mixing Gilbert-Elliott
  /// overlay and a multi-cycle interval onto the scenario, so retries
  /// exist and the leak is observable.  Caught by the channel-reference
  /// comparison.
  kChannelStateLeak,
  /// The channel leg's walk mixes each lazily advanced channel block one
  /// slot too far (P^(gap+1) for P^gap) — the off-by-one the lazy mix
  /// invites.  Forces the same overlay as kChannelStateLeak; caught by
  /// the channel-reference comparison.
  kChannelGapShift,
  /// The what-if leg's engine answer keeps one affected path at its
  /// baseline measures — the signature of an engine that fails to
  /// re-walk a path using the changed link.  Applied to the answer, not
  /// through a solver option.  Caught by the comparison against a fresh
  /// analyze_network.
  kWhatIfSkipPath,
};

struct OracleConfig {
  /// Monte-Carlo sample size (reporting intervals) of the simulator leg.
  std::uint64_t sim_intervals = 4000;
  std::uint32_t sim_shards = 4;
  /// Threads for the simulator shards (1 = serial; the verify runner
  /// already fans out across scenarios).
  unsigned sim_threads = 1;
  /// Skip the simulator leg entirely (deterministic legs only).
  bool run_simulation = true;
  /// Relative tolerance of production vs. reference agreement.
  double deterministic_tolerance = 1e-9;
  /// Per-statistical-check failure probability (sets the Wilson z and
  /// the Hoeffding radius).
  double per_check_delta = 1e-9;
  sim::LinkRegime regime = sim::LinkRegime::kIndependent;
  Injection injection = Injection::kNone;
};

/// One disagreement between legs.
struct OracleFinding {
  /// Path (0-based) the finding concerns.
  std::size_t path_index = 0;
  /// "<leg>:<field>" for a deterministic miss (reference,
  /// channel-per-slot, what-if), "simulator:<field>" (CI-bound miss) or
  /// "closure:<invariant>".
  std::string check;
  std::string detail;
};

struct OracleReport {
  std::vector<OracleFinding> findings;
  /// True when the simulator leg ran (retry slots force it and the
  /// what-if leg off).
  bool simulated = false;
  /// Statistical comparisons performed (the delta budget spent).
  std::uint64_t statistical_checks = 0;

  [[nodiscard]] bool ok() const noexcept { return findings.empty(); }
};

/// Cross-validate every path of `scenario` across the legs.
OracleReport cross_validate(const Scenario& scenario,
                            const OracleConfig& config = {});

}  // namespace whart::verify
