// Compressed sparse row (CSR) matrix.  Path DTMCs are tree-like (at most two
// successors per transient state), so sparse storage and sparse
// distribution updates are the natural representation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "whart/linalg/vector.hpp"

namespace whart::linalg {

/// One (row, col, value) entry used to assemble a sparse matrix.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;

  friend bool operator==(const Triplet&, const Triplet&) = default;
};

/// Immutable CSR sparse matrix.  Duplicate (row, col) triplets are summed
/// during assembly.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Assemble from triplets.  Entries outside [0, rows) x [0, cols) throw.
  CsrMatrix(std::size_t rows, std::size_t cols, std::vector<Triplet> entries);

  /// Assemble from prebuilt CSR arrays (the output shape of the
  /// sparse-sparse product).  `row_start` must be monotone with
  /// row_start[0] == 0 and row_start[rows] == col_index.size(); columns
  /// must be strictly increasing within each row.  Empty rows (an
  /// absorbing Discard row with its self-loop pruned, say) are legal and
  /// preserved exactly.
  static CsrMatrix from_parts(std::size_t rows, std::size_t cols,
                              std::vector<std::size_t> row_start,
                              std::vector<std::size_t> col_index,
                              std::vector<double> values);

  /// Sparse identity of the given order.
  static CsrMatrix identity(std::size_t order);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nonzeros() const noexcept { return values_.size(); }

  /// Value at (row, col); 0 if not stored.  O(log nnz(row)).
  [[nodiscard]] double at(std::size_t row, std::size_t col) const;

  /// y = x^T * A — one DTMC distribution step when A is a transition matrix.
  [[nodiscard]] Vector left_multiply(const Vector& x) const;

  /// Sum of the entries in `row`.
  [[nodiscard]] double row_sum(std::size_t row) const;

  /// Visit nonzeros of `row` as (col, value) pairs.
  template <typename Visitor>
  void for_each_in_row(std::size_t row, Visitor&& visit) const {
    for (std::size_t k = row_start_[row]; k < row_start_[row + 1]; ++k)
      visit(col_index_[k], values_[k]);
  }

  /// The stored values in CSR order.  The mutable overload overwrites
  /// values in place (same pattern, new probabilities) without
  /// reassembly.
  [[nodiscard]] std::span<double> values() noexcept { return values_; }
  [[nodiscard]] std::span<const double> values() const noexcept {
    return values_;
  }

  /// The CSR index arrays: row r's entries occupy
  /// [row_start()[r], row_start()[r + 1]) of col_index() and values().
  [[nodiscard]] std::span<const std::size_t> row_start() const noexcept {
    return row_start_;
  }
  [[nodiscard]] std::span<const std::size_t> col_index() const noexcept {
    return col_index_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_start_;  // size rows_ + 1
  std::vector<std::size_t> col_index_;
  std::vector<double> values_;
};

/// Reusable workspace for the sparse-sparse product.  One arena can be
/// shared across any number of multiplies (e.g. the Fup+Fdown-1 products
/// of a superframe cycle collapse) so the dense accumulator, the column
/// marker and the output arrays are allocated once and recycled.
struct SparseProductArena {
  /// Dense per-column accumulator of the current output row.
  std::vector<double> accumulator;
  /// marker[c] == current row tag when column c is live in this row.
  std::vector<std::size_t> marker;
  /// Unsorted live columns of the current output row.
  std::vector<std::size_t> scratch_cols;
  /// Output CSR under construction (moved into the result).
  std::vector<std::size_t> row_start;
  std::vector<std::size_t> col_index;
  std::vector<double> values;
};

/// Sparse-sparse product A * B (Gustavson's row-by-row algorithm):
/// a symbolic pass counts the nonzeros of every output row, a prefix sum
/// over those counts lays out `row_start`, and the numeric pass scatters
/// each row into the arena's dense accumulator before gathering it in
/// column order.  Numerically-zero fill-in is kept (the structure is the
/// product structure, not a drop-tolerance one) so row-stochastic inputs
/// yield row-stochastic outputs entry-for-entry.  Empty rows of A stay
/// empty rows of the product.
CsrMatrix multiply(const CsrMatrix& a, const CsrMatrix& b,
                   SparseProductArena& arena);

/// Convenience overload with a throwaway arena.
CsrMatrix multiply(const CsrMatrix& a, const CsrMatrix& b);

}  // namespace whart::linalg
