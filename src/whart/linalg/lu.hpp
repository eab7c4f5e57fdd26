// LU decomposition with partial pivoting.  Used to solve the linear systems
// of steady-state analysis (pi P = pi) and absorbing-chain analysis
// (N = (I - Q)^{-1}).
#pragma once

#include <vector>

#include "whart/linalg/matrix.hpp"
#include "whart/linalg/vector.hpp"

namespace whart::linalg {

/// Factorization P A = L U of a square matrix with partial (row) pivoting.
///
/// Construction throws whart::precondition_error for non-square input and
/// whart::invariant_error for (numerically) singular matrices.
class LuDecomposition {
 public:
  explicit LuDecomposition(Matrix a);

  /// Solve A x = b.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Solve A X = B column-by-column.
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  [[nodiscard]] std::size_t order() const noexcept { return lu_.rows(); }

 private:
  Matrix lu_;                       // packed L (unit diagonal) and U
  std::vector<std::size_t> pivot_;  // row permutation
};

/// Convenience one-shot solve of A x = b.
Vector solve(const Matrix& a, const Vector& b);

}  // namespace whart::linalg
