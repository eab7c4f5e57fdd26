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
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "whart/hart/link_probability.hpp"
#include "whart/linalg/matrix.hpp"
#include "whart/linalg/sparse.hpp"
#include "whart/markov/dtmc.hpp"
#include "whart/net/schedule.hpp"
#include "whart/net/superframe.hpp"

namespace whart::hart {

/// Which transient solver answers PathModel::analyze.
enum class TransientKernel {
  /// The firing-table walk (DESIGN.md §11), the production solver of
  /// every path: the paper's Eq. 5 stepped over the path's transmission
  /// opportunities only, since message mass moves nowhere else.  Works
  /// under every link regime, channel-enlarged paths included, and
  /// records one Delivery per firing of the last hop.
  kPerSlot,

  /// Superframe-product collapse (markov::SuperframeKernel), kept as an
  /// independent reference that production never selects: the per-slot
  /// matrices of one cycle are premultiplied into the cycle matrix once,
  /// and the reporting interval advances cycle-by-cycle through it (plus
  /// a per-slot tail when the TTL cuts a cycle).  Requires i.i.d.
  /// attempts from a cycle-stationary provider (steady-state links);
  /// time-varying and channel-enlarged providers walk the firing table
  /// instead (counted as hart.path_solve.kernel_fallback).  Results agree
  /// with kPerSlot to rounding (~1e-15 relative; the products
  /// reassociate the same arithmetic), not bitwise, and carry no
  /// Delivery records.
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
  /// added to entry (0, 0) of the superframe collapse's cycle product
  /// before solving (kSuperframeProduct only).  It deliberately breaks
  /// the collapse so the differential oracle can prove it catches a bad
  /// product build.  Always 0 in production.
  double inject_product_error = 0.0;

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

  friend bool operator==(const PathModelConfig&,
                         const PathModelConfig&) = default;
};

/// Numeric provenance of one path solve — the observability block
/// attached to PathMeasures (and aggregated into NetworkMeasures) so a
/// run can report where its DTMC work went.  Structural fields are
/// deterministic; `solve_ns` is wall-clock (0 when metrics are off).
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

  /// Solver that actually produced this result.  kSuperframeProduct only
  /// when the collapse ran; a fallback to the walk reports kPerSlot.  For
  /// kSuperframeProduct the state-count fields above describe the compact
  /// message chain (hops + Goal + Discard) the collapse operates on, and
  /// for a channel-enlarged walk the enlarged chain (sum of k_h + Goal +
  /// Discard), not the unrolled chain.
  TransientKernel kernel = TransientKernel::kPerSlot;
};

/// One firing of a path's last hop, as the walk recorded it: the firing
/// in uplink slot `slot` (1-based, counted across cycles) of cycle
/// `cycle` (0-based) moved `mass` into that cycle's goal state.
struct Delivery {
  std::uint32_t slot = 0;
  std::uint32_t cycle = 0;
  double mass = 0.0;
};

/// Result of transient analysis of a path model.
struct PathTransientResult {
  /// g(i): probability of absorption in goal state i (cycle i, 1-based),
  /// evaluated at the end of the reporting interval.  Size Is.
  std::vector<double> cycle_probabilities;

  /// Probability of the Discard state at the end of the interval.
  double discard_probability = 0.0;

  /// The walk's record of every firing of the last hop up to the TTL, in
  /// firing order: O(Is x last-hop opportunities) entries, and each
  /// cycle probability is its cycle's masses summed in this order.
  /// goal_trajectory rebuilds the paper's Fig. 6 from them.  Empty for
  /// the superframe collapse, which never visits the firings of a full
  /// cycle.
  std::vector<Delivery> deliveries;

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

/// goal_trajectory(result, horizon)[t][i]: the transient probability of
/// goal state i after t uplink slots, t = 0..horizon — the data behind
/// the paper's Fig. 6, rebuilt from a walk's delivery records.  Entry t
/// sums the masses of the deliveries in slots <= t, in record order, so
/// the last entry equals cycle_probabilities bitwise.  Allocates
/// (horizon + 1) x Is doubles: for callers that print the figure.
std::vector<std::vector<double>> goal_trajectory(
    const PathTransientResult& result, std::uint32_t horizon);

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

/// Reusable scratch of the firing-table walk (DESIGN.md §12): every
/// buffer grows to its high-water mark on the first walk of a shape and
/// is only rewritten afterwards, so a warm workspace makes the walk
/// allocation-free.  One workspace per thread; pool with
/// common::WorkspacePool.
struct SolveWorkspace {
  // `firings` holds one record per firing, last firing first: its
  // success probability, the k_h-entry delivery vector beta and the
  // k_h-entry gain beta_success - beta_failure.  `mass` and `next_beta`
  // hold one channel block per hop: the message mass, and the delivery
  // vector of the hop's next firing.
  std::vector<WalkHop> walk_hops;
  std::vector<double> firings;
  std::vector<double> mass;
  std::vector<double> next_beta;

  /// Reusable transient output for callers that immediately reduce it to
  /// measures (network analysis, sweeps, what-if) and do not keep it.
  PathTransientResult scratch_result;
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

  /// analyze into caller-owned storage: the walk's scratch lives in
  /// `workspace` and `result` is overwritten in place, so a warm pair
  /// solves without allocating.  Same bits as analyze.
  void analyze_into(const LinkProbabilityProvider& links,
                    const PathAnalysisOptions& options,
                    SolveWorkspace& workspace,
                    PathTransientResult& result) const;

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
  friend std::vector<double> reachability_sensitivity(
      const PathModel& model, const LinkProbabilityProvider& links);

  /// The superframe collapse (DESIGN.md §11), a reference solver: the
  /// opportunity chain collapsed through markov::SuperframeKernel, full
  /// pre-TTL cycles advanced through the cycle product, the cycle the TTL
  /// cuts fired opportunity by opportunity, and the delivered attempts
  /// folded backward through a one-cycle accounting kernel.
  [[nodiscard]] PathTransientResult analyze_superframe(
      const LinkProbabilityProvider& links, double inject) const;

  /// The firing-table walk (DESIGN.md §11, §14), the solve of every
  /// production path.  Message mass moves only at firings, so both passes
  /// step over Is cycles x opportunities() up to the TTL.  The backward
  /// pass stores each firing's delivery vector beta; the forward pass
  /// moves one mass block per hop (k_h channel states, 1 for an i.i.d.
  /// hop), reading i.i.d. success probabilities per (cycle, opportunity),
  /// and records one Delivery per firing of the last hop.  A channel
  /// block mixes lazily: it advances by P_h^gap only when its hop fires,
  /// gap being the absolute slots since the hop last fired, because
  /// arrivals enter at the stationary law pi and pi P = pi.  On i.i.d.
  /// paths the arithmetic is the unrolled chain's, step for step.  When
  /// `sensitivity` is non-empty (one entry per hop) it accumulates
  /// dR/dps_h: mass x (beta_success - beta_failure) over hop h's firings,
  /// for a channel hop the derivative by a uniform shift of its per-state
  /// success probabilities.
  void walk(const LinkProbabilityProvider& links, ChannelFault fault,
            SolveWorkspace& workspace, PathTransientResult& result,
            std::span<double> sensitivity = {}) const;

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

}  // namespace whart::hart
