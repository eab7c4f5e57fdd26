// Dense row-major matrix used for small DTMC transition matrices and the
// absorbing-chain (fundamental matrix) computations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "whart/linalg/vector.hpp"

namespace whart::linalg {

/// Dense row-major matrix of doubles with value semantics.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix of zeros.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill);

  /// Construct from nested initializer lists; all rows must have equal width.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Identity matrix of the given order.
  static Matrix identity(std::size_t order);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool square() const noexcept { return rows_ == cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access; throws whart::precondition_error.
  double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double scalar) noexcept;

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, double scalar) { return lhs *= scalar; }
  friend Matrix operator*(double scalar, Matrix rhs) { return rhs *= scalar; }

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Matrix product A * B; inner dimensions must agree.
Matrix multiply(const Matrix& a, const Matrix& b);

/// Matrix-vector product A * x.
Vector multiply(const Matrix& a, const Vector& x);

/// Row-vector-matrix product x^T * A — the DTMC distribution update.
Vector multiply(const Vector& x, const Matrix& a);

/// A^power via exponentiation by squaring; A must be square, power >= 0.
Matrix power(const Matrix& a, std::uint64_t exponent);

/// Largest absolute entry-wise difference; shapes must match.
double max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace whart::linalg
