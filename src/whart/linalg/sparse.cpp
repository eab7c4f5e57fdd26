#include "whart/linalg/sparse.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "whart/common/contracts.hpp"
#include "whart/linalg/matrix.hpp"

namespace whart::linalg {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<Triplet> entries)
    : rows_(rows), cols_(cols) {
  for (const Triplet& t : entries) {
    expects(t.row < rows_ && t.col < cols_, "triplet indices in range");
  }
  std::sort(entries.begin(), entries.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  row_start_.assign(rows_ + 1, 0);
  col_index_.reserve(entries.size());
  values_.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size();) {
    // Merge duplicates by summation.
    std::size_t j = i + 1;
    double value = entries[i].value;
    while (j < entries.size() && entries[j].row == entries[i].row &&
           entries[j].col == entries[i].col) {
      value += entries[j].value;
      ++j;
    }
    col_index_.push_back(entries[i].col);
    values_.push_back(value);
    ++row_start_[entries[i].row + 1];
    i = j;
  }
  for (std::size_t r = 0; r < rows_; ++r) row_start_[r + 1] += row_start_[r];
}

CsrMatrix CsrMatrix::from_parts(std::size_t rows, std::size_t cols,
                                std::vector<std::size_t> row_start,
                                std::vector<std::size_t> col_index,
                                std::vector<double> values) {
  expects(row_start.size() == rows + 1, "row_start has rows + 1 entries");
  expects(row_start.front() == 0, "row_start begins at 0");
  expects(row_start.back() == col_index.size(),
          "row_start ends at the nonzero count");
  expects(col_index.size() == values.size(),
          "one value per column index");
  for (std::size_t r = 0; r < rows; ++r) {
    expects(row_start[r] <= row_start[r + 1], "row_start is monotone");
    for (std::size_t k = row_start[r]; k < row_start[r + 1]; ++k) {
      expects(col_index[k] < cols, "column indices in range");
      expects(k == row_start[r] || col_index[k - 1] < col_index[k],
              "columns strictly increasing within each row");
    }
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_start_ = std::move(row_start);
  m.col_index_ = std::move(col_index);
  m.values_ = std::move(values);
  return m;
}

CsrMatrix CsrMatrix::identity(std::size_t order) {
  std::vector<std::size_t> row_start(order + 1);
  std::vector<std::size_t> col_index(order);
  for (std::size_t i = 0; i < order; ++i) {
    row_start[i + 1] = i + 1;
    col_index[i] = i;
  }
  return from_parts(order, order, std::move(row_start), std::move(col_index),
                    std::vector<double>(order, 1.0));
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  expects(row < rows_ && col < cols_, "indices in range");
  const auto begin = col_index_.begin() + static_cast<std::ptrdiff_t>(row_start_[row]);
  const auto end = col_index_.begin() + static_cast<std::ptrdiff_t>(row_start_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_index_.begin())];
}

Vector CsrMatrix::left_multiply(const Vector& x) const {
  expects(x.size() == rows_, "dimensions agree");
  Vector y(cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t k = row_start_[r]; k < row_start_[r + 1]; ++k)
      y[col_index_[k]] += xr * values_[k];
  }
  return y;
}

Vector CsrMatrix::right_multiply(const Vector& x) const {
  expects(x.size() == cols_, "dimensions agree");
  Vector y(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_start_[r]; k < row_start_[r + 1]; ++k)
      acc += values_[k] * x[col_index_[k]];
    y[r] = acc;
  }
  return y;
}

double CsrMatrix::row_sum(std::size_t row) const {
  expects(row < rows_, "row in range");
  double acc = 0.0;
  for (std::size_t k = row_start_[row]; k < row_start_[row + 1]; ++k)
    acc += values_[k];
  return acc;
}

CsrMatrix multiply(const CsrMatrix& a, const CsrMatrix& b,
                   SparseProductArena& arena) {
  expects(a.cols() == b.rows(), "inner dimensions agree");
  const std::size_t rows = a.rows();
  const std::size_t cols = b.cols();
  constexpr std::size_t kNoRow = std::numeric_limits<std::size_t>::max();

  arena.accumulator.assign(cols, 0.0);
  arena.marker.assign(cols, kNoRow);
  arena.scratch_cols.clear();
  arena.row_start.assign(rows + 1, 0);

  // Symbolic pass: nnz of each output row, then prefix-sum the counts
  // into row_start.  The marker array distinguishes rows without a clear
  // between them (row index as tag), so the pass is O(flops), not
  // O(rows * cols).
  for (std::size_t r = 0; r < rows; ++r) {
    std::size_t count = 0;
    a.for_each_in_row(r, [&](std::size_t ac, double) {
      b.for_each_in_row(ac, [&](std::size_t bc, double) {
        if (arena.marker[bc] != r) {
          arena.marker[bc] = r;
          ++count;
        }
      });
    });
    arena.row_start[r + 1] = count;
  }
  for (std::size_t r = 0; r < rows; ++r)
    arena.row_start[r + 1] += arena.row_start[r];

  const std::size_t nnz = arena.row_start[rows];
  arena.col_index.assign(nnz, 0);
  arena.values.assign(nnz, 0.0);
  std::fill(arena.marker.begin(), arena.marker.end(), kNoRow);

  // Numeric pass: scatter each row of the product into the dense
  // accumulator, then gather the live columns in sorted order straight
  // into the slot the prefix sum reserved.
  for (std::size_t r = 0; r < rows; ++r) {
    arena.scratch_cols.clear();
    a.for_each_in_row(r, [&](std::size_t ac, double av) {
      b.for_each_in_row(ac, [&](std::size_t bc, double bv) {
        if (arena.marker[bc] != r) {
          arena.marker[bc] = r;
          arena.accumulator[bc] = av * bv;
          arena.scratch_cols.push_back(bc);
        } else {
          arena.accumulator[bc] += av * bv;
        }
      });
    });
    std::sort(arena.scratch_cols.begin(), arena.scratch_cols.end());
    std::size_t k = arena.row_start[r];
    for (std::size_t c : arena.scratch_cols) {
      arena.col_index[k] = c;
      arena.values[k] = arena.accumulator[c];
      ++k;
    }
    ensures(k == arena.row_start[r + 1],
            "numeric pass fills exactly the symbolic count");
  }

  return CsrMatrix::from_parts(rows, cols, std::move(arena.row_start),
                               std::move(arena.col_index),
                               std::move(arena.values));
}

CsrMatrix multiply(const CsrMatrix& a, const CsrMatrix& b) {
  SparseProductArena arena;
  return multiply(a, b, arena);
}

Matrix left_multiply_batch(const Matrix& x, const CsrMatrix& a,
                           std::size_t block_rows) {
  expects(x.cols() == a.rows(), "dimensions agree");
  expects(block_rows >= 1, "at least one row per block");
  Matrix y(x.rows(), a.cols());
  for (std::size_t begin = 0; begin < x.rows(); begin += block_rows) {
    const std::size_t end = std::min(begin + block_rows, x.rows());
    for (std::size_t r = 0; r < a.rows(); ++r) {
      a.for_each_in_row(r, [&](std::size_t c, double v) {
        for (std::size_t i = begin; i < end; ++i) y(i, c) += x(i, r) * v;
      });
    }
  }
  return y;
}

}  // namespace whart::linalg
