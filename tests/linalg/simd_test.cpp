// The lane primitives (DESIGN.md §13): every helper must evaluate the
// plain scalar expression it names on every length, including the short
// and odd lengths the auto-vectorized loop finishes element by element.
#include "whart/linalg/simd.hpp"

#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

namespace whart::linalg {
namespace {

// Deterministic, irregular test values — no RNG needed.
std::vector<double> pattern(std::size_t n, double phase) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = 0.25 + 0.5 * std::sin(0.7 * static_cast<double>(i) + phase);
  return v;
}

// Empty, single-lane, odd and batch-sized lengths.
std::vector<std::size_t> interesting_lengths() {
  return {0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 64};
}

TEST(Simd, MulMatchesScalarLoopExactly) {
  for (const std::size_t n : interesting_lengths()) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<double> a = pattern(n, 0.1);
    const std::vector<double> b = pattern(n, 1.9);
    std::vector<double> out(n, -7.0);
    simd::mul(out.data(), a.data(), b.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], a[i] * b[i]);
  }
}

TEST(Simd, MulAddMatchesScalarLoop) {
  for (const std::size_t n : interesting_lengths()) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<double> a = pattern(n, 0.4);
    const std::vector<double> b = pattern(n, 2.3);
    std::vector<double> acc = pattern(n, 4.0);
    std::vector<double> expected = acc;
    simd::mul_add(acc.data(), a.data(), b.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      expected[i] += a[i] * b[i];
      EXPECT_EQ(acc[i], expected[i]);
    }
  }
}

TEST(Simd, AddMatchesScalarLoopExactly) {
  for (const std::size_t n : interesting_lengths()) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<double> a = pattern(n, 0.9);
    std::vector<double> acc = pattern(n, 3.1);
    std::vector<double> expected = acc;
    simd::add(acc.data(), a.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(acc[i], expected[i] + a[i]);
  }
}

TEST(Simd, FillAndCopyCoverEveryElement) {
  for (const std::size_t n : interesting_lengths()) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<double> out(n, -1.0);
    simd::fill(out.data(), 0.625, n);
    for (const double x : out) EXPECT_EQ(x, 0.625);
    const std::vector<double> a = pattern(n, 5.5);
    simd::copy(out.data(), a.data(), n);
    EXPECT_EQ(out, a);
  }
}

TEST(Simd, HelpersLeaveTailUntouched) {
  // Writing past `n` would corrupt the neighbouring lane block in the
  // SoA layout; guard bytes after the requested length must survive.
  constexpr std::size_t kN = 11;
  const std::vector<double> a = pattern(kN, 0.2);
  const std::vector<double> b = pattern(kN, 1.2);
  std::vector<double> out(kN + 4, 99.0);
  simd::mul(out.data(), a.data(), b.data(), kN);
  simd::mul_add(out.data(), a.data(), b.data(), kN);
  simd::add(out.data(), a.data(), kN);
  simd::fill(out.data(), 1.0, kN);
  simd::copy(out.data(), a.data(), kN);
  for (std::size_t i = kN; i < out.size(); ++i) EXPECT_EQ(out[i], 99.0);
}

}  // namespace
}  // namespace whart::linalg
