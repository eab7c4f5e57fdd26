// The hierarchical path model (paper Section IV).  A message travels an
// n-hop uplink path under a TDMA schedule; the resulting DTMC unrolls over
// the uplink slots of one reporting interval.  States are message-age
// tuples (equivalently: (elapsed uplink slots t, hops completed h)); the
// absorbing states are Is goal states — one per superframe cycle — and one
// Discard state for TTL expiry.
//
// Time convention: t counts elapsed uplink slots since the message was
// born (t = 0 at birth).  The transmission scheduled in uplink slot s
// (1-based, continuing across cycles) fires on the transition t = s-1 ->
// t = s.  Displayed ages are t + 1, matching the paper's state labels
// ("(1,-,-)" initially, "(3,3,-)" after a successful slot-2 hop).
//
// Link states, in contrast, evolve in *every* 10 ms slot, including the
// downlink half of each superframe; the model converts uplink slot s to an
// absolute slot before querying the link probability provider.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "whart/hart/link_probability.hpp"
#include "whart/linalg/matrix.hpp"
#include "whart/linalg/sparse.hpp"
#include "whart/markov/batch_refill.hpp"
#include "whart/markov/dtmc.hpp"
#include "whart/markov/incremental_product.hpp"
#include "whart/markov/structure.hpp"
#include "whart/net/schedule.hpp"
#include "whart/net/superframe.hpp"

namespace whart::hart {

/// Which transient solver answers PathModel::analyze.
enum class TransientKernel {
  /// The firing-table walk (DESIGN.md §11): the paper's Eq. 5 stepped
  /// over the path's transmission opportunities only, since message mass
  /// moves nowhere else.  Works under every link regime, channel-
  /// enlarged paths included, and records the per-slot goal trajectory.
  kPerSlot,

  /// Superframe-product collapse (markov::SuperframeKernel): the
  /// per-slot matrices of one cycle are premultiplied into the cycle
  /// matrix once, and the reporting interval advances cycle-by-cycle
  /// through it (plus a per-slot tail when the TTL cuts a cycle).
  /// Requires i.i.d. attempts from a cycle-stationary provider (steady-
  /// state links); time-varying and channel-enlarged providers walk the
  /// firing table instead (counted as hart.path_solve.kernel_fallback).
  /// Results agree with kPerSlot to rounding (~1e-15 relative; the
  /// products reassociate the same arithmetic), not bitwise.
  kSuperframeProduct,
};

/// Verification-harness fault of the channel-enlarged walk (see
/// PathAnalysisOptions::inject_channel_fault).
enum class ChannelFault {
  kNone,
  /// Failure mass is redrawn at the channel's stationary law instead of
  /// staying in the state it failed in — forgetting that a failed
  /// attempt is evidence of a bad channel state.
  kStateLeak,
  /// Every lazy mix advances one slot too far (P^(gap+1) for P^gap).
  kGapShift,
};

/// Per-solve knobs of PathModel::analyze and compute_path_measures.
struct PathAnalysisOptions {
  TransientKernel kernel = TransientKernel::kPerSlot;

  /// Verification-harness fault injection: when nonzero, this delta is
  /// added to entry (0, 0) of a fresh PathModel::analyze build's cycle
  /// product before solving (kSuperframeProduct only).  It deliberately
  /// breaks the collapse so the differential oracle can prove it catches
  /// a bad product build.  Ignored by skeleton refills.  Always 0 in
  /// production.
  double inject_product_error = 0.0;

  /// Verification-harness fault injection: when nonzero, a
  /// PathModelSkeleton refill (analyze_into, analyze_batch_into) biases
  /// hop 0's success probability by this delta — a deliberately stale
  /// numeric phase, so the differential oracle can prove its refill arm
  /// catches skeleton/value drift.  Ignored by fresh PathModel::analyze
  /// builds and incremental replays.  Always 0 in production.
  double inject_stale_skeleton = 0.0;

  /// Verification-harness fault injection: swap the first two value
  /// lanes of the refilled cycle product of a multi-lane solve — the
  /// signature of a lane-indexing bug in the Gustavson replay (cross-
  /// lane contamination), which the differential oracle's batch arm
  /// must catch.  Always false in production.
  bool inject_lane_swap = false;

  /// Verification-harness fault injection: when nonzero, the incremental
  /// solve path (PathModelSkeleton::analyze_incremental_into) adds this
  /// delta to every entry of row 0 of the propagated cycle product — the
  /// signature of a stale product row that the targeted re-accumulation
  /// failed to replay, which the differential oracle's incremental arm
  /// must catch.  Ignored by every other solve path.  Always 0 in
  /// production.
  double inject_stale_product_row = 0.0;

  /// Verification-harness fault injection: a deliberate bug in the
  /// channel-enlarged firing-table walk, mirrored in both its passes so
  /// the solve stays self-consistent and only the oracle's channel arm
  /// (against the channel reference solver) can tell.  Always kNone in
  /// production.
  ChannelFault inject_channel_fault = ChannelFault::kNone;
};

/// Static description of one path's model.
struct PathModelConfig {
  /// Dedicated uplink slot of each hop (1-based within the frame), in hop
  /// order.  Slots need not be increasing — out-of-order hops simply wait
  /// for the next cycle.
  std::vector<net::SlotNumber> hop_slots;

  /// Optional dedicated *retry* slots (a second transmission opportunity
  /// per hop per frame — common in real WirelessHART schedules, not
  /// modeled in the paper).  Either empty, or one entry per hop where 0
  /// means "no retry slot for this hop".  All non-zero slots must be
  /// distinct from each other and from hop_slots.
  std::vector<net::SlotNumber> retry_slots;

  /// Superframe layout (Fup = schedule length, Fdown).
  net::SuperframeConfig superframe;

  /// Reporting interval Is: the model spans Is superframe cycles.
  std::uint32_t reporting_interval = 1;

  /// Message time-to-live in uplink slots; defaults to Is * Fup (discard
  /// exactly at the end of the reporting interval).
  std::optional<std::uint32_t> ttl;

  /// Extract the config for path `path_index` of a network schedule.
  static PathModelConfig from_schedule(const net::Schedule& schedule,
                                       std::size_t path_index,
                                       net::SuperframeConfig superframe,
                                       std::uint32_t reporting_interval);

  /// Number of hops.
  [[nodiscard]] std::size_t hop_count() const noexcept {
    return hop_slots.size();
  }

  /// Horizon T = Is * Fup (uplink slots in one reporting interval).
  [[nodiscard]] std::uint32_t horizon() const noexcept {
    return reporting_interval * superframe.uplink_slots;
  }

  /// Effective TTL: min(ttl, horizon).
  [[nodiscard]] std::uint32_t effective_ttl() const noexcept;

  /// Slot of the final (gateway) transmission — the paper's a0.
  [[nodiscard]] net::SlotNumber gateway_slot() const noexcept {
    return hop_slots.back();
  }

  /// Two configs compare equal exactly when they produce the same model
  /// shape — the invalidation rule of skeleton/workspace reuse.
  friend bool operator==(const PathModelConfig&,
                         const PathModelConfig&) = default;
};

/// Numeric provenance of one path solve — the observability block
/// attached to PathMeasures (and aggregated into NetworkMeasures) so a
/// run can report where its DTMC work went.  Structural fields are
/// deterministic; `solve_ns` is wall-clock (0 when metrics are off or
/// the result came from the cache) and `from_cache` is set by
/// PathAnalysisCache when an entry is served without solving.
struct SolverDiagnostics {
  /// States of the unrolled chain (transient + Is goals + Discard).
  std::size_t dtmc_states = 0;
  std::size_t transient_states = 0;
  std::size_t absorbing_states = 0;

  /// Uplink slots propagated by the forward pass (the horizon).
  std::uint64_t forward_steps = 0;

  /// |1 - (goal mass + discard mass)| after absorption — the numeric
  /// health of the solve (exact arithmetic would give 0).
  double mass_residual = 0.0;

  /// Wall-clock of the forward/backward passes, ns.
  std::uint64_t solve_ns = 0;

  /// True when the measures were reconstructed from a cache hit.
  bool from_cache = false;

  /// Solver that actually produced this result.  kSuperframeProduct only
  /// when the collapse ran; a fallback to the walk reports kPerSlot.  For
  /// kSuperframeProduct the state-count fields above describe the compact
  /// message chain (hops + Goal + Discard) the collapse operates on, and
  /// for a channel-enlarged walk the enlarged chain (sum of k_h + Goal +
  /// Discard), not the unrolled chain.
  TransientKernel kernel = TransientKernel::kPerSlot;
};

/// Result of transient analysis of a path model.
struct PathTransientResult {
  /// g(i): probability of absorption in goal state i (cycle i, 1-based),
  /// evaluated at the end of the reporting interval.  Size Is.
  std::vector<double> cycle_probabilities;

  /// Probability of the Discard state at the end of the interval.
  double discard_probability = 0.0;

  /// goal_trajectory[k][i]: transient probability of goal state i after
  /// k * trajectory_stride uplink slots — the data behind the paper's
  /// Fig. 6.  The per-slot kernel records every slot (stride 1, entries
  /// t = 0..horizon); the superframe-product kernel records cycle
  /// boundaries only (stride Fup, entries t = 0, Fup, ..., Is * Fup) —
  /// recording every slot would forfeit the collapse.
  std::vector<std::vector<double>> goal_trajectory;

  /// Uplink slots between consecutive goal_trajectory entries.
  std::uint32_t trajectory_stride = 1;

  /// Expected number of transmission attempts during the interval (the
  /// exact basis of the utilization measure).
  double expected_transmissions = 0.0;

  /// Expected attempts per hop (sums to expected_transmissions); feeds
  /// the per-node energy model.
  std::vector<double> expected_transmissions_per_hop;

  /// Expected attempts made by messages that are eventually delivered
  /// (computed exactly via a backward delivery-probability pass) — the
  /// accounting behind the paper's Table II.  Always <=
  /// expected_transmissions.
  double expected_transmissions_delivered = 0.0;

  /// Numeric provenance of this solve (sizes, residual, wall-clock).
  SolverDiagnostics diagnostics;
};

/// One CSR operand of the superframe solve core: a sparsity pattern plus
/// its values, one lane array per stored entry (entry k occupies
/// values[k * lanes, (k + 1) * lanes)).  A non-owning view, so a
/// skeleton's patterns with refilled lanes and a fresh build's matrices
/// (one lane) feed the same core.
struct LaneCsr {
  const std::size_t* row_start = nullptr;
  const std::size_t* col_index = nullptr;
  const double* values = nullptr;
};

/// One hop of the firing-table walk (PathModel::walk): its channel block
/// of k_h states at `offset` in the walk's mass and delivery vectors.
struct WalkHop {
  /// The hop's multi-state channel, or null when attempts are i.i.d.
  /// (one state, success probability from the provider).
  const link::ChannelModel* channel = nullptr;
  std::size_t states = 1;
  std::size_t offset = 0;
  /// Absolute slot of the hop's adjacent firing in the current pass (its
  /// previous firing going forward, its next one going backward).
  std::optional<std::uint64_t> fired;
};

/// Reusable numeric-phase scratch of the path solves (DESIGN.md §12,
/// §13).  Every superframe solve runs the structure-of-arrays core, whose
/// buffers carry a lane dimension in entry-major layout — entry k of a
/// buffer occupies lane array [k * lanes, (k + 1) * lanes) — so a batch
/// of N same-shape points streams the shared patterns once while the
/// arithmetic runs lane-parallel; a single solve is the same code at one
/// lane.  Every buffer grows to its high-water mark on the first solve of
/// a (shape, lane count) and is only rewritten afterwards, so a warm
/// workspace makes the skeleton solves allocation-free.  One workspace
/// per thread; pool with common::WorkspacePool.
struct SolveWorkspace {
  /// Factor values primed from the skeleton's patterns (one per
  /// transmission opportunity, PathModel::opportunities order:
  /// nonzeros x lanes; constant entries hold 1.0, firing entries are
  /// refilled per solve) and the cycle-product values they collapse into
  /// through markov::BatchRefill.
  std::vector<std::vector<double>> factor_values;
  std::vector<double> product_values;
  markov::BatchLaneArena chain_arena;
  bool primed = false;
  std::size_t primed_lanes = 0;
  PathModelConfig primed_config;  ///< shape the structures were built for

  /// Per-lane success probabilities of every transmission opportunity
  /// (opportunities x lanes, PathModel::opportunities order).
  std::vector<double> ps;

  /// The core's view of the factors (one per opportunity).
  std::vector<LaneCsr> factor_operands;

  // Firing-table walk scratch (PathModel::walk).  `firings` holds one
  // record per firing, last firing first: its success probability, the
  // k_h-entry delivery vector beta and the k_h-entry gain beta_success -
  // beta_failure.  `mass` and `next_beta` hold one channel block per hop:
  // the message mass, and the delivery vector of the hop's next firing.
  std::vector<WalkHop> walk_hops;
  std::vector<double> firings;
  std::vector<double> mass;
  std::vector<double> next_beta;

  // Superframe core scratch, dim = hops + 2 (each times lanes).
  std::vector<double> prefix_columns;  ///< opportunities x dim x lanes
  std::vector<double> prefix;          ///< dim x dim x lanes
  std::vector<double> prefix_next;
  std::vector<double> suffix;
  std::vector<double> suffix_next;
  std::vector<double> attempts;  ///< dim x hops x lanes
  std::vector<double> delivered_kernel;  ///< dim x dim x lanes
  std::vector<double> p;  ///< dim x lanes
  std::vector<double> p_next;
  std::vector<double> b;
  std::vector<double> b_next;
  std::vector<double> u;
  std::vector<double> u_next;
  std::vector<double> lane_scratch;  ///< lanes
  std::vector<double> goal_seen;     ///< lanes

  /// Lane bookkeeping of one analyze_batch_into call: the providers and
  /// outputs of the lanes refilled together.
  std::vector<const LinkProbabilityProvider*> lane_links;
  std::vector<PathTransientResult*> result_ptrs;

  /// Reusable transient outputs for callers that immediately reduce them
  /// to measures (sweeps, the cache) and do not keep the full results.
  PathTransientResult scratch_result;
  std::vector<PathTransientResult> scratch_results;
};

/// The path DTMC of one schedule shape, held as its firing table plus
/// each hop's first reachable time layer: every solve needs only the
/// firing table, and to_dtmc unrolls the (t, h) states on demand.
class PathModel {
 public:
  /// Validates the config: at least one hop, slots within the frame, no
  /// two hops sharing a slot, horizon > 0 and Is * Fup within 32 bits.
  /// Allocates only the firing table (O(hops + opportunities)), never
  /// anything sized by Fup, the TTL or Is.
  explicit PathModel(PathModelConfig config);

  [[nodiscard]] const PathModelConfig& config() const noexcept {
    return config_;
  }

  /// Exact transient analysis (paper Eq. 5) by the firing-table walk,
  /// with per-slot success probabilities from `links`.
  [[nodiscard]] PathTransientResult analyze(
      const LinkProbabilityProvider& links) const;

  /// Transient analysis with solver selection.  kSuperframeProduct
  /// collapses full cycles through markov::SuperframeKernel when `links`
  /// is cycle-stationary with i.i.d. attempts and otherwise falls back to
  /// the walk (recorded in diagnostics.kernel and an obs counter).
  [[nodiscard]] PathTransientResult analyze(
      const LinkProbabilityProvider& links,
      const PathAnalysisOptions& options) const;

  /// One transition matrix per transmission opportunity, in
  /// opportunities() order, over the compact message chain: states
  /// 0..n-1 are "waiting at hop h", followed by Goal and Discard.  Each
  /// moves its hop's mass forward with that slot's success probability
  /// (frozen from the first cycle).  Every other slot of a cycle is the
  /// identity, so these are the whole cycle chain: their product equals
  /// the Fup + Fdown slot product (verify::full_chain_slot_matrices)
  /// bitwise, because in Gustavson's pass an identity factor contributes
  /// exactly one product av * 1.0 == av to each output entry.  Valid
  /// input to markov::SuperframeKernel whenever `links` is
  /// cycle-stationary.
  [[nodiscard]] std::vector<linalg::CsrMatrix> opportunity_matrices(
      const LinkProbabilityProvider& links) const;

  /// Materialize the underlying DTMC (the output of the paper's
  /// Algorithm 1) with transition probabilities frozen from `links`.
  /// Transient states (t, h) are numbered t-major, hops ascending within
  /// a layer.  State names follow the paper: "(3,3,-)", goal states
  /// "R7", "R14", ..., and "Discard".  The unrolled chain is
  /// time-homogeneous because every transient state belongs to exactly
  /// one time layer.
  [[nodiscard]] markov::Dtmc to_dtmc(const LinkProbabilityProvider& links) const;

  /// Index of the initial state in the materialized DTMC (always 0).
  [[nodiscard]] markov::StateIndex initial_state() const noexcept { return 0; }

  /// Name of goal state for cycle i (1-based): "R<a0 + (i-1) Fup>".
  [[nodiscard]] std::string goal_state_name(std::uint32_t cycle) const;

  /// Number of states the materialized DTMC will have: the transient
  /// (t, h) states plus Is goal states and Discard.
  [[nodiscard]] std::size_t state_count() const noexcept {
    return transient_count_ + config_.reporting_interval + 1;
  }

  /// One transmission opportunity of a frame: the uplink slot carrying a
  /// hop's dedicated or retry transmission.
  struct Opportunity {
    net::SlotNumber slot = 0;  ///< 1-based uplink slot within the frame
    std::size_t hop = 0;
  };

  /// Every transmission opportunity of one frame (hop slots and nonzero
  /// retry slots), in slot order — the firing table's ordered list.
  [[nodiscard]] std::span<const Opportunity> opportunities() const noexcept {
    return opportunities_;
  }

 private:
  friend class PathModelSkeleton;

  friend std::vector<double> reachability_sensitivity(
      const PathModel& model, const LinkProbabilityProvider& links,
      TransientKernel kernel);

  [[nodiscard]] PathTransientResult analyze_superframe(
      const LinkProbabilityProvider& links, double inject) const;

  /// The firing-table walk (DESIGN.md §11, §14): the solve of every path
  /// the superframe product does not take.  Message mass moves only at
  /// firings, so both passes step over Is cycles x opportunities() up to
  /// the TTL.  The backward pass stores each firing's delivery vector
  /// beta; the forward pass moves one mass block per hop (k_h channel
  /// states, 1 for an i.i.d. hop), reading i.i.d. success probabilities
  /// per (cycle, opportunity).  A channel block mixes lazily: it advances
  /// by P_h^gap only when its hop fires, gap being the absolute slots
  /// since the hop last fired, because arrivals enter at the stationary
  /// law pi and pi P = pi.  On i.i.d. paths the arithmetic is the
  /// unrolled chain's, step for step.  When `sensitivity` is non-empty
  /// (one entry per hop) it accumulates dR/dps_h: mass x (beta_success -
  /// beta_failure) over hop h's firings, for a channel hop the derivative
  /// by a uniform shift of its per-state success probabilities.
  void walk(const LinkProbabilityProvider& links, ChannelFault fault,
            SolveWorkspace& workspace, PathTransientResult& result,
            std::span<double> sensitivity = {}) const;

  /// The superframe core (DESIGN.md §13), lane-parallel over
  /// results.size() points: `factors` are the chain factors in
  /// opportunities() order (the identity slots of a cycle do nothing to
  /// its prefix/suffix sweeps), `product` is the collapsed cycle, and
  /// workspace.ps holds every opportunity's per-lane success
  /// probability.  Each lane's arithmetic is independent of the lane
  /// count, and a lane's extra pattern entries holding +0.0 add exact
  /// zeros, so a point solves to the same bits in any batch.
  void analyze_superframe_batch_into(
      std::span<const LaneCsr> factors, const LaneCsr& product,
      SolveWorkspace& workspace,
      std::span<PathTransientResult* const> results) const;
  /// Lane-count-specialized body of analyze_superframe_batch_into:
  /// kLanes == 0 reads the width from results.size() at runtime; the
  /// fixed-width instantiations (dispatched for common batch sizes) give
  /// every simd helper a compile-time trip count so the lane loops
  /// unroll flat.  Arithmetic is identical in every instantiation.
  template <std::size_t kLanes>
  void analyze_superframe_batch_lanes(
      std::span<const LaneCsr> factors, const LaneCsr& product,
      SolveWorkspace& workspace,
      std::span<PathTransientResult* const> results) const;

  PathModelConfig config_;
  /// Firing table, built once: the opportunities in slot order.
  std::vector<Opportunity> opportunities_;
  /// first_layer_[h]: the first time layer t at which state (t, h) is
  /// reachable; (t, h) exists exactly for first_layer_[h] <= t < ttl.
  /// Strictly increasing, and hops the TTL cuts off are left out, so
  /// layer t holds the hop prefix {h : first_layer_[h] <= t}.
  std::vector<std::uint32_t> first_layer_;
  std::size_t transient_count_ = 0;  ///< sum over h of ttl - first_layer_[h]
};

/// Symbolic phase of the path solve (DESIGN.md §12): run once per
/// (schedule, hop count, Is, TTL) shape.  The skeleton owns the firing
/// table (its PathModel), one CSR sparsity pattern per
/// transmission opportunity with a provenance map from each pattern's
/// two live nonzeros to their values indices, the symbolic cycle-product
/// chain over those patterns alone — the identity slots of a cycle are
/// left out, so symbolic and numeric cost track transmissions, not frame
/// length — and the compiled markov::BatchRefill plan over that chain.
/// `analyze_into` / `analyze_batch_into` are the numeric phase: they
/// refill only the value lanes from link providers into a SolveWorkspace
/// and solve through the same numeric cores as PathModel::analyze — no
/// symbolic rebuild, no allocation once the workspace is warm, results
/// bitwise equal to a fresh build.  The patterns are captured at a
/// generic probability, so a firing probability of 0 or 1 merely leaves
/// +0.0 in entries a fresh build drops; those add exact zeros.
class PathModelSkeleton {
 public:
  /// Runs the symbolic phase (validates the config like PathModel).
  explicit PathModelSkeleton(PathModelConfig config);

  [[nodiscard]] const PathModel& model() const noexcept { return model_; }
  [[nodiscard]] const PathModelConfig& config() const noexcept {
    return model_.config();
  }

  /// Numeric phase: analyze_batch_into at one lane.  A provider the
  /// refill cannot take walks the firing table exactly like
  /// PathModel::analyze: kPerSlot, a non-cycle-stationary provider (under
  /// kSuperframeProduct a kernel fallback) or a channel-enlarged one
  /// (also counted as `hart.skeleton.refill_fallback`).
  void analyze_into(const LinkProbabilityProvider& links,
                    const PathAnalysisOptions& options,
                    SolveWorkspace& workspace,
                    PathTransientResult& result) const;

  /// Incremental numeric phase (DESIGN.md §15): like analyze_into, but
  /// instead of refilling the whole cycle-product chain it reuses
  /// `product`'s cached partial values and replays only the Gustavson
  /// rows reachable from the firing entries of `changed_hops` — bitwise
  /// equal to a full refill (markov::IncrementalProduct).  Contract:
  /// `workspace` and `product` are dedicated to this skeleton and to
  /// incremental solves; between calls, the factor values of hops *not* in
  /// `changed_hops` must still hold the probabilities of the previous
  /// call (the caller re-solves to revert a perturbation, passing the
  /// same hops).  An unseeded product is seeded by a full replay
  /// (`changed_hops` is then ignored).  The product replays the
  /// workspace's one-lane factor values, and the transient solve is the
  /// one-lane superframe core.  Returns false — `result` untouched,
  /// workspace and product unmodified — where no cycle product exists:
  /// per-slot kernel, non-cycle-stationary provider or channel
  /// enlargement; the caller then solves through analyze_into (with a
  /// separate workspace).
  bool analyze_incremental_into(const LinkProbabilityProvider& links,
                                const PathAnalysisOptions& options,
                                std::span<const std::size_t> changed_hops,
                                markov::IncrementalProduct& product,
                                SolveWorkspace& workspace,
                                PathTransientResult& result) const;

  /// Batched numeric phase (DESIGN.md §13): refill every evaluation
  /// point through one pass over the shared patterns and solve them
  /// lane-parallel — the lane count is links.size().  `links` and
  /// `results` are parallel arrays (one provider and output per lane).
  /// Lanes without a cycle product — per-slot kernel, non-cycle-
  /// stationary or channel-enlarged providers — solve one by one as in
  /// analyze_into (counted as `hart.batch.remainder_points`).  Every
  /// refilled lane is bitwise equal to its own one-lane solve.
  void analyze_batch_into(std::span<const LinkProbabilityProvider* const> links,
                          const PathAnalysisOptions& options,
                          SolveWorkspace& workspace,
                          std::span<PathTransientResult> results) const;

  /// Where an opportunity's two mutable values live in its chain factor
  /// (provenance()[i] describes factor i).
  struct SlotProvenance {
    std::uint32_t slot = 0;  ///< 1-based uplink slot within the frame
    std::size_t hop = 0;
    std::size_t failure_index = 0;  ///< values index of the (h, h) entry
    std::size_t success_index = 0;  ///< values index of (h, target)

    /// Write success probability `ps` into its factor's `values`.
    void write(double ps, std::span<double> values) const noexcept {
      values[failure_index] = 1.0 - ps;
      values[success_index] = ps;
    }
  };

  /// Chain-factor sparsity patterns, one per transmission opportunity in
  /// model().opportunities() order.
  [[nodiscard]] const std::vector<markov::CsrPattern>& factor_patterns()
      const noexcept {
    return factor_patterns_;
  }

  /// Symbolic cycle-product chain over the factor patterns.
  [[nodiscard]] const markov::ChainProductSkeleton& chain() const noexcept {
    return chain_;
  }

  /// Factor provenance in opportunity (slot) order: which values indices
  /// each transmission opportunity's failure/success probabilities occupy.
  [[nodiscard]] std::span<const SlotProvenance> provenance() const noexcept {
    return provenance_;
  }

 private:
  /// Materialize the factor/product value arrays for `lanes` lanes
  /// unless the workspace already holds them for this shape.
  void prime(SolveWorkspace& workspace, std::size_t lanes) const;

  /// A lane the refill cannot take (see analyze_into), solved alone.
  void solve_unrefilled(const LinkProbabilityProvider& links,
                        const PathAnalysisOptions& options,
                        SolveWorkspace& workspace,
                        PathTransientResult& result) const;

  /// Refill `links.size()` lanes and solve them through the superframe
  /// core.
  void refill_and_solve(std::span<const LinkProbabilityProvider* const> links,
                        const PathAnalysisOptions& options,
                        SolveWorkspace& workspace,
                        std::span<PathTransientResult* const> results) const;

  /// Run the superframe core over the workspace's primed values.
  void solve_refilled(SolveWorkspace& workspace,
                      std::span<PathTransientResult* const> results) const;

  PathModel model_;
  std::vector<markov::CsrPattern> factor_patterns_;
  markov::ChainProductSkeleton chain_;
  std::vector<SlotProvenance> provenance_;
  /// Compiled SoA replay plan over chain_/factor_patterns_ (DESIGN.md
  /// §13), built once here with the rest of the symbolic phase.  Borrows
  /// the two members above, which also keeps the skeleton non-copyable
  /// by value — it is always shared by pointer.
  std::unique_ptr<const markov::BatchRefill> batch_refill_;
};

}  // namespace whart::hart
