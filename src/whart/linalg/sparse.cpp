#include "whart/linalg/sparse.hpp"

#include <algorithm>

#include "whart/common/contracts.hpp"

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

double CsrMatrix::row_sum(std::size_t row) const {
  expects(row < rows_, "row in range");
  double acc = 0.0;
  for (std::size_t k = row_start_[row]; k < row_start_[row + 1]; ++k)
    acc += values_[k];
  return acc;
}

}  // namespace whart::linalg
