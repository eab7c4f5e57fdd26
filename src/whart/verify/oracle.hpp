// Four-way differential oracle.  For one scenario it computes:
//   (1) the production leg — hart::PathModel / compute_path_measures,
//       the parallel-and-cached engine the rest of the system uses;
//   (2) the reference leg — verify::reference_solve, an independent
//       dense implementation of the same math;
//   (3) the kernel leg — the superframe-product transient kernel
//       (PathAnalysisOptions::kernel = kSuperframeProduct), compared
//       against the reference to prove the cycle collapse is faithful;
//   (4) the simulator leg — sim::NetworkSimulator in the kIndependent
//       regime, whose empirical frequencies converge to the analytic
//       probabilities exactly;
//   (5) the refill leg — a PathModelSkeleton numeric refill (symbolic
//       phase captured once, values refilled per solve; DESIGN.md §12),
//       run cold and warm for both kernels and required to reproduce
//       the fresh solve BITWISE, not merely within tolerance;
//   (6) the batch leg — the lane-parallel refill
//       (PathModelSkeleton::analyze_batch_into, DESIGN.md §13): the
//       scenario's availabilities plus three deformed variants solve as
//       one four-lane batch, and every lane must match its own fresh
//       solve to 1e-12 relative — cross-lane contamination in the
//       lane-parallel core shows up as a lane answering a neighbour's
//       question.
//   (7) the channel leg — when the scenario carries a correlated-channel
//       overlay, the channel-enlarged production solver (the firing-
//       table walk) is compared against verify::reference_solve_channel,
//       an independent solver over the full (t, hop, channel-state) grid,
//       and the simulator leg switches to the kChannel regime so the
//       empirical draws come from the very chains the analytics solve;
//   (8) the incremental leg — the what-if engine's targeted row replay
//       (markov::IncrementalProduct, DESIGN.md §15): after seeding a
//       baseline cycle product, each hop's availability is perturbed in
//       isolation, re-solved through
//       PathModelSkeleton::analyze_incremental_into (only the dirty
//       product rows replayed) and compared against a fresh solve of
//       the perturbed chain to 1e-12 relative, for both kernels (under
//       kPerSlot the incremental path declines by contract and the
//       cached-skeleton fallback is held to the same bound).
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
// delivery probabilities, kProductEntry corrupts one entry of the
// superframe-product matrix the kernel leg solves through,
// kStaleSkeletonValue biases one refilled value of the refill leg (a
// stand-in for a stale skeleton provenance map), kLaneSwap swaps the
// first two value lanes of the batch leg's SoA cycle product (a
// stand-in for a lane-indexing bug in the vectorized refill),
// kStaleProductRow biases the start-state row of the incremental leg's
// propagated cycle product (a stand-in for an incompletely replayed
// product row after a targeted update), and kChannelStateLeak and
// kChannelGapShift corrupt the channel leg's walk.  A healthy harness
// reports findings for every injection and none for kNone.
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
  /// One entry of the kernel leg's cycle-product matrix perturbed by
  /// 1e-3 — a stand-in for a buggy sparse-sparse product build.
  kProductEntry,
  /// The refill leg's hop-0 success probability biased by 1e-6 during
  /// the numeric refill only — a stand-in for a stale or mis-indexed
  /// skeleton provenance map.  Caught by the bitwise refill comparison.
  kStaleSkeletonValue,
  /// The batch leg's first two SoA cycle-product value lanes swapped
  /// after the vectorized refill — cross-lane contamination, the
  /// signature of a lane-indexing bug in the Gustavson replay.  Caught
  /// by the per-lane comparison against fresh solves.
  kLaneSwap,
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
  /// Every entry of row 0 of the incremental leg's propagated cycle
  /// product biased by 1e-6 (the start-state row; a stand-in for a
  /// stale or incompletely replayed product row after a targeted
  /// update).  The oracle forces a multi-cycle interval so the cycle
  /// product is always consulted.  Caught by the incremental-vs-fresh
  /// comparison.
  kStaleProductRow,
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
  /// "reference:<field>" (deterministic miss), "simulator:<field>"
  /// (CI-bound miss) or "closure:<invariant>".
  std::string check;
  std::string detail;
};

struct OracleReport {
  std::vector<OracleFinding> findings;
  /// True when the simulator leg ran (retry slots force it off).
  bool simulated = false;
  /// Statistical comparisons performed (the delta budget spent).
  std::uint64_t statistical_checks = 0;

  [[nodiscard]] bool ok() const noexcept { return findings.empty(); }
};

/// Cross-validate every path of `scenario` across the three legs.
OracleReport cross_validate(const Scenario& scenario,
                            const OracleConfig& config = {});

}  // namespace whart::verify
