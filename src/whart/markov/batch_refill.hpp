// Structure-of-arrays numeric refill (DESIGN.md §13): the numeric half
// of the symbolic/numeric split, evaluated for N points at once (N = 1
// for a single solve).  A ChainProductSkeleton fixes one sparsity
// pattern per partial product; BatchRefill compiles that fixed chain
// into a flat multiply plan at construction — one (left entry, factor
// entry, output slot) triple per Gustavson visit, in linalg::multiply's
// visit order — and replays the plan with N contiguous value lanes per
// stored nonzero.  Replay carries no symbolic bookkeeping (no marker
// array, no sparse accumulator, no copy-out pass): each op is a single
// lane-wide multiply (first touch of an output entry) or multiply-add
// straight into the output entry, so one walk of the plan prices every
// evaluation point and the per-entry arithmetic vectorizes across lanes
// (linalg/simd.hpp).
//
// Lane layout is entry-major: the values of pattern entry k occupy
// [k * lanes, (k + 1) * lanes) of the value array, one double per lane.
// Each lane's multiply/multiply-add sequence is exactly the one
// linalg::multiply runs over the same factors, so every lane is bitwise
// equal to a fresh chain build of its own factor values (the battery in
// tests/markov/batch_refill_test.cpp checks it with EXPECT_EQ).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "whart/markov/structure.hpp"

namespace whart::markov {

/// Reusable scratch of BatchRefill::refill — the ping-pong lane buffers
/// holding intermediate partial products
/// (max_partial_nonzeros x lanes each).  They grow to their high-water
/// mark on the first refill of a given (shape, lane count) and are only
/// rewritten afterwards, so warm batched refills allocate nothing.
struct BatchLaneArena {
  std::vector<double> partial_a;
  std::vector<double> partial_b;
};

/// Lane-parallel numeric pass over a ChainProductSkeleton.  Construction
/// compiles the multiply plan from the skeleton's patterns (built once
/// per shape — PathModelSkeleton caches one instance); the instance
/// borrows the skeleton and the factor patterns, so both referents must
/// outlive it.
class BatchRefill {
 public:
  /// `factors` are the per-factor patterns the skeleton was built from
  /// (factors[k] must match partials()[0]'s shape for k == 0 and the
  /// k-th chain step otherwise).
  BatchRefill(const ChainProductSkeleton& chain,
              const std::vector<CsrPattern>& factors);

  /// Numeric pass: factor_values[k] holds the SoA values of
  /// factor k (factors[k].nonzeros() x lanes, entry-major) and the full
  /// product's SoA values land in `values_out`
  /// (chain.pattern().nonzeros() x lanes).  Allocation-free once
  /// `arena` is warm for this (shape, lanes).
  void refill(std::span<const std::vector<double>> factor_values,
              std::size_t lanes, BatchLaneArena& arena,
              std::span<double> values_out) const;

 private:
  /// One compiled multiply: out[slot] (+)= left[a] * factor[b], all
  /// lane-wide.  `out`'s top bit flags the first touch of the output
  /// entry within its row (a plain multiply instead of a multiply-add).
  struct Op {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t out = 0;
  };
  /// The ops of chain step k occupy [begin, end) of `ops_`.
  struct Step {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  static constexpr std::uint32_t kFirstTouch = 0x80000000u;

  /// Plan replay with the lane count as a template parameter (kLanes ==
  /// 0 is the runtime-width case) so the simd helpers run with
  /// compile-time trip counts; arithmetic and op order are identical in
  /// every instantiation.
  template <std::size_t kLanes>
  void replay(std::span<const std::vector<double>> factor_values,
              std::size_t runtime_lanes, BatchLaneArena& arena,
              std::span<double> values_out) const;

  const ChainProductSkeleton* chain_;
  const std::vector<CsrPattern>* factors_;
  std::vector<Op> ops_;
  std::vector<Step> steps_;
};

}  // namespace whart::markov
