// Incremental numeric updates of a chain product (DESIGN.md §15): the
// low-rank counterpart of a full refill (markov::BatchRefill).  A refill
// replays Gustavson's numeric pass over every row of every partial; when
// only a few factor entries moved (a what-if on one link's availability
// moves exactly two entries per firing slot), almost all of that work
// recomputes values that cannot have changed.  IncrementalProduct caches
// the values of every left-to-right partial, maps each changed factor
// entry to the partial rows it can reach, and replays only those rows —
// per row the arithmetic is linalg::multiply's row body verbatim, so the
// propagated product is bitwise equal to a full refill and to a fresh
// linalg::multiply chain build.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "whart/markov/structure.hpp"

namespace whart::markov {

/// Cached numeric state of one chain product M_0 * ... * M_{F-1} over a
/// borrowed ChainProductSkeleton, supporting entry-targeted re-products.
///
/// Factor values are one-lane value arrays: factor_values[k][i] is entry
/// i (CSR order of the k-th factor pattern) of factor k — the layout of a
/// one-lane SolveWorkspace.
///
/// Lifecycle: `refill` seeds the cache from a full factor set; `update`
/// records that one factor entry's value moved (the caller has already
/// written the new value into its value array); `propagate` replays the
/// dirty rows of every downstream partial and leaves `values()` holding
/// the product — bitwise what a full `refill` against the same factors
/// would produce.  The skeleton and the factor patterns it was built
/// from must outlive this object.
class IncrementalProduct {
 public:
  /// Builds the propagation index: per-factor values-index -> row maps
  /// and, per intermediate partial, the column -> rows transpose that
  /// turns "factor k's row i changed" into "these rows of partial k must
  /// be re-accumulated".  `factors` are the patterns the skeleton was
  /// constructed from.
  IncrementalProduct(const ChainProductSkeleton& chain,
                     const std::vector<CsrPattern>& factors);

  /// Full numeric seed: replay the whole chain against `factor_values`
  /// (one array per ctor pattern, sized to its nonzeros), caching every
  /// partial's values.  Arithmetic matches linalg::multiply row for row.
  void refill(std::span<const std::vector<double>> factor_values);

  /// Record that entry `values_index` of factor `factor` holds a new
  /// value.  Cheap; the numeric work happens in `propagate`.
  void update(std::size_t factor, std::size_t values_index);

  /// Replay the rows reachable from the recorded updates, stage by
  /// stage, reading current factor values from `factor_values`.  Returns the
  /// number of partial rows re-accumulated (the work the full refill
  /// avoided is partials x rows minus this).  No-op when nothing was
  /// recorded.
  std::size_t propagate(std::span<const std::vector<double>> factor_values);

  /// Values of the full product, in the CSR order of
  /// chain().pattern().  Valid after `refill`.
  [[nodiscard]] std::span<const double> values() const noexcept {
    return partial_values_.back();
  }

  /// True once `refill` has seeded the cache.
  [[nodiscard]] bool seeded() const noexcept { return seeded_; }

  /// The borrowed symbolic chain.
  [[nodiscard]] const ChainProductSkeleton& chain() const noexcept {
    return *chain_;
  }

  /// Rows re-accumulated by propagate() since construction (the obs
  /// counterpart: `markov.incremental.rows_replayed`).
  [[nodiscard]] std::uint64_t rows_replayed() const noexcept {
    return rows_replayed_;
  }

 private:
  /// Re-accumulate row `r` of partial `k` (k >= 1) — linalg::multiply's
  /// row body over factor k's pattern and `b_values`.
  void replay_row(std::size_t k, std::size_t r, const double* b_values);

  /// Checks that `factor_values` matches the factor patterns.
  void expect_factor_values(
      std::span<const std::vector<double>> factor_values) const;

  const ChainProductSkeleton* chain_;
  const std::vector<CsrPattern>* factors_;
  /// row_of_[k][vi]: row of entry vi in factor k.
  std::vector<std::vector<std::size_t>> row_of_;
  /// Column -> rows transpose of each intermediate partial: rows r with
  /// partials()[k](r, c) != 0 are transpose_rows_[k] in
  /// [transpose_start_[k][c], transpose_start_[k][c + 1]).
  std::vector<std::vector<std::size_t>> transpose_start_;
  std::vector<std::vector<std::size_t>> transpose_rows_;
  /// partial_values_[k]: cached values of partials()[k].
  std::vector<std::vector<double>> partial_values_;

  /// Recorded (factor, values index) updates awaiting propagation.
  std::vector<std::pair<std::size_t, std::size_t>> pending_;

  // Gustavson scratch (marker tags are monotonic across calls, so the
  // marker array is blanked once at construction, never per call).
  std::vector<double> accumulator_;
  std::vector<std::size_t> marker_;
  std::size_t next_tag_ = 0;
  std::vector<char> dirty_;

  bool seeded_ = false;
  std::uint64_t rows_replayed_ = 0;
};

}  // namespace whart::markov
