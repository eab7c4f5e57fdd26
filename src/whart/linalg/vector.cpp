#include "whart/linalg/vector.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "whart/common/contracts.hpp"

namespace whart::linalg {

double& Vector::at(std::size_t i) {
  expects(i < data_.size(), "index < size");
  return data_[i];
}

double Vector::at(std::size_t i) const {
  expects(i < data_.size(), "index < size");
  return data_[i];
}

Vector& Vector::operator+=(const Vector& rhs) {
  expects(size() == rhs.size(), "vector sizes match");
  for (std::size_t i = 0; i < size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  expects(size() == rhs.size(), "vector sizes match");
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector& Vector::operator*=(double scalar) noexcept {
  for (double& x : data_) x *= scalar;
  return *this;
}

double dot(const Vector& a, const Vector& b) {
  expects(a.size() == b.size(), "vector sizes match");
  double result = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) result += a[i] * b[i];
  return result;
}

double sum(const Vector& v) noexcept {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double max_abs_diff(const Vector& a, const Vector& b) {
  expects(a.size() == b.size(), "vector sizes match");
  double result = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    result = std::max(result, std::abs(a[i] - b[i]));
  return result;
}

Vector unit(std::size_t size, std::size_t index) {
  expects(index < size, "index < size");
  Vector v(size);
  v[index] = 1.0;
  return v;
}

}  // namespace whart::linalg
