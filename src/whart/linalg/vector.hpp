// Dense double-precision vector for the DTMC computations.  This module
// replaces the Eigen dependency the original authors' tooling would have
// used; the chains in this library are small enough that a straightforward
// dense implementation is both sufficient and easy to audit.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace whart::linalg {

/// Dense vector of doubles with value semantics.
class Vector {
 public:
  Vector() = default;

  /// A vector of `size` zeros.
  explicit Vector(std::size_t size) : data_(size, 0.0) {}

  /// A vector of `size` copies of `fill`.
  Vector(std::size_t size, double fill) : data_(size, fill) {}

  Vector(std::initializer_list<double> values) : data_(values) {}

  /// Adopt an existing buffer.
  explicit Vector(std::vector<double> values) : data_(std::move(values)) {}

  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  double& operator[](std::size_t i) noexcept { return data_[i]; }
  double operator[](std::size_t i) const noexcept { return data_[i]; }

  /// Bounds-checked access; throws whart::precondition_error.
  double& at(std::size_t i);
  [[nodiscard]] double at(std::size_t i) const;

  [[nodiscard]] std::span<const double> span() const noexcept { return data_; }
  [[nodiscard]] std::span<double> span() noexcept { return data_; }
  [[nodiscard]] const std::vector<double>& data() const noexcept {
    return data_;
  }

  auto begin() noexcept { return data_.begin(); }
  auto end() noexcept { return data_.end(); }
  [[nodiscard]] auto begin() const noexcept { return data_.begin(); }
  [[nodiscard]] auto end() const noexcept { return data_.end(); }

  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double scalar) noexcept;

  friend Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
  friend Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
  friend Vector operator*(Vector lhs, double scalar) { return lhs *= scalar; }
  friend Vector operator*(double scalar, Vector rhs) { return rhs *= scalar; }

  friend bool operator==(const Vector&, const Vector&) = default;

 private:
  std::vector<double> data_;
};

/// Dot product; sizes must match.
double dot(const Vector& a, const Vector& b);

/// Sum of entries.
double sum(const Vector& v) noexcept;

/// Largest absolute difference between two vectors of equal size.
double max_abs_diff(const Vector& a, const Vector& b);

/// e_i: unit vector of length `size` with a 1 at `index`.
Vector unit(std::size_t size, std::size_t index);

}  // namespace whart::linalg
