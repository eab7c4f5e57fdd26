// Compressed sparse row (CSR) matrix.  Path DTMCs are tree-like (at most two
// successors per transient state), so sparse storage and sparse
// distribution updates are the natural representation.
#pragma once

#include <cstddef>
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

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_start_;  // size rows_ + 1
  std::vector<std::size_t> col_index_;
  std::vector<double> values_;
};

}  // namespace whart::linalg
