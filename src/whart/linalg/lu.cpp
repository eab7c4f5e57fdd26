#include "whart/linalg/lu.hpp"

#include <cmath>
#include <numeric>
#include <utility>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"

namespace whart::linalg {

namespace {
constexpr double kSingularTolerance = 1e-13;
}

LuDecomposition::LuDecomposition(Matrix a) : lu_(std::move(a)) {
  expects(lu_.square(), "matrix is square");
  const std::size_t n = lu_.rows();
  WHART_COUNT("linalg.lu.factorizations");
  WHART_OBSERVE("linalg.lu.order", n);
  pivot_.resize(n);
  std::iota(pivot_.begin(), pivot_.end(), std::size_t{0});

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: find the largest remaining entry in column k.
    std::size_t pivot_row = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double candidate = std::abs(lu_(i, k));
      if (candidate > best) {
        best = candidate;
        pivot_row = i;
      }
    }
    ensures(best > kSingularTolerance, "matrix is nonsingular");
    if (pivot_row != k) {
      for (std::size_t j = 0; j < n; ++j)
        std::swap(lu_(k, j), lu_(pivot_row, j));
      std::swap(pivot_[k], pivot_[pivot_row]);
    }
    const double diag = lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double factor = lu_(i, k) / diag;
      lu_(i, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j)
        lu_(i, j) -= factor * lu_(k, j);
    }
  }
}

Vector LuDecomposition::solve(const Vector& b) const {
  const std::size_t n = order();
  expects(b.size() == n, "right-hand side matches matrix order");

  // Apply the permutation, then forward substitution (L has unit diagonal).
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[pivot_[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * y[j];
    y[i] = acc;
  }
  // Back substitution with U.
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
  return x;
}

Matrix LuDecomposition::solve(const Matrix& b) const {
  expects(b.rows() == order(), "right-hand side matches matrix order");
  Matrix x(b.rows(), b.cols());
  Vector column(b.rows());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < b.rows(); ++r) column[r] = b(r, c);
    const Vector solved = solve(column);
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = solved[r];
  }
  return x;
}

Vector solve(const Matrix& a, const Vector& b) {
  return LuDecomposition(a).solve(b);
}

}  // namespace whart::linalg
