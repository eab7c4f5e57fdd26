#include "whart/linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "whart/common/contracts.hpp"

namespace whart::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(rows.size() ? rows.begin()->size() : 0) {
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    expects(row.size() == cols_, "all rows have equal width");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t order) {
  Matrix m(order, order);
  for (std::size_t i = 0; i < order; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  expects(r < rows_ && c < cols_, "indices in range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  expects(r < rows_ && c < cols_, "indices in range");
  return (*this)(r, c);
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  expects(rows_ == rhs.rows_ && cols_ == rhs.cols_, "matrix shapes match");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  expects(rows_ == rhs.rows_ && cols_ == rhs.cols_, "matrix shapes match");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) noexcept {
  for (double& x : data_) x *= scalar;
  return *this;
}

Matrix multiply(const Matrix& a, const Matrix& b) {
  expects(a.cols() == b.rows(), "inner dimensions agree");
  Matrix result(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j)
        result(i, j) += aik * b(k, j);
    }
  }
  return result;
}

Vector multiply(const Matrix& a, const Vector& x) {
  expects(a.cols() == x.size(), "dimensions agree");
  Vector result(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) acc += a(i, j) * x[j];
    result[i] = acc;
  }
  return result;
}

Vector multiply(const Vector& x, const Matrix& a) {
  expects(a.rows() == x.size(), "dimensions agree");
  Vector result(a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t j = 0; j < a.cols(); ++j) result[j] += xi * a(i, j);
  }
  return result;
}

Matrix power(const Matrix& a, std::uint64_t exponent) {
  expects(a.square(), "matrix is square");
  Matrix result = Matrix::identity(a.rows());
  Matrix base = a;
  while (exponent > 0) {
    if (exponent & 1ULL) result = multiply(result, base);
    exponent >>= 1;
    if (exponent > 0) base = multiply(base, base);
  }
  return result;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  expects(a.rows() == b.rows() && a.cols() == b.cols(),
          "matrix shapes match");
  double result = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      result = std::max(result, std::abs(a(i, j) - b(i, j)));
  return result;
}

}  // namespace whart::linalg
