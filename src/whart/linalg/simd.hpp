// Lane primitives of the structure-of-arrays superframe solve (DESIGN.md
// §13).  A "lane array" is the contiguous block of N doubles holding one
// value per evaluation point solved in the same pass; every helper below
// applies one elementwise operation across such a block.
//
// One backend on every platform: plain loops over `__restrict` pointers,
// which GCC/Clang auto-vectorize to the baseline ISA (SSE2 on x86-64).
// Each helper evaluates exactly the scalar expression it names, so a
// one-lane solve performs the arithmetic of a scalar loop, operation for
// operation.
#pragma once

#include <cstddef>

namespace whart::linalg::simd {

// The lane arrays of a solve never alias (accumulators, inputs and
// pattern values live in distinct workspace buffers), so the helpers
// declare it: without `__restrict` the auto-vectorizer guards every call
// with runtime overlap checks, and at typical lane counts (1-16 doubles)
// the checks cost more than the loop.

/// out[i] = a[i] * b[i]
inline void mul(double* __restrict out, const double* __restrict a,
                const double* __restrict b, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

/// acc[i] += a[i] * b[i]
inline void mul_add(double* __restrict acc, const double* __restrict a,
                    const double* __restrict b, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) acc[i] += a[i] * b[i];
}

/// acc[i] += a[i]
inline void add(double* __restrict acc, const double* __restrict a,
                std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) acc[i] += a[i];
}

/// out[i] = value
inline void fill(double* out, double value, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = value;
}

/// out[i] = a[i]
inline void copy(double* __restrict out, const double* __restrict a,
                 std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i];
}

}  // namespace whart::linalg::simd
