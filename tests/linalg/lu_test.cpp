#include "whart/linalg/lu.hpp"

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"
#include "whart/numeric/rng.hpp"

namespace whart::linalg {
namespace {

TEST(Lu, SolvesSimpleSystem) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector b{3.0, 5.0};
  const Vector x = solve(a, b);
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, SolveRequiresPivoting) {
  // Zero on the leading diagonal forces a row swap.
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector b{2.0, 3.0};
  const Vector x = solve(a, b);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularMatrixThrows) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(LuDecomposition{a}, invariant_error);
}

TEST(Lu, NonSquareThrows) {
  EXPECT_THROW(LuDecomposition{Matrix(2, 3)}, precondition_error);
}

TEST(Lu, InverseTimesOriginalIsIdentity) {
  const Matrix a{{4.0, 7.0}, {2.0, 6.0}};
  const Matrix inv = LuDecomposition(a).solve(Matrix::identity(2));
  EXPECT_LT(max_abs_diff(multiply(a, inv), Matrix::identity(2)), 1e-12);
}

TEST(Lu, MatrixRightHandSide) {
  const Matrix a{{2.0, 0.0}, {0.0, 4.0}};
  const Matrix b{{2.0, 4.0}, {8.0, 12.0}};
  const Matrix x = LuDecomposition(a).solve(b);
  EXPECT_DOUBLE_EQ(x(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(x(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(x(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(x(1, 1), 3.0);
}

TEST(Lu, RhsSizeMismatchThrows) {
  const Matrix a{{1.0, 0.0}, {0.0, 1.0}};
  EXPECT_THROW(LuDecomposition(a).solve(Vector(3)), precondition_error);
}

class LuRandomProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandomProperty, ReconstructsRandomSolutions) {
  const std::size_t n = GetParam();
  numeric::Xoshiro256 rng(1000 + n);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform() - 0.5;
    a(i, i) += static_cast<double>(n);  // diagonally dominant => nonsingular
  }
  Vector x_true(n);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = rng.uniform() * 10.0;
  const Vector b = multiply(a, x_true);
  const Vector x = solve(a, b);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomProperty,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 50));

}  // namespace
}  // namespace whart::linalg
