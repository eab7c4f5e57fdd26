#include "whart/linalg/matrix.hpp"

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"

namespace whart::linalg {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FALSE(m.square());
  m(1, 2) = 4.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 4.0);
  EXPECT_THROW(m.at(2, 0), precondition_error);
}

TEST(Matrix, InitializerList) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), precondition_error);
}

TEST(Matrix, Identity) {
  const Matrix id = Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
}

TEST(Matrix, Multiply) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = multiply(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(multiply(a, b), precondition_error);
}

TEST(Matrix, MatrixVectorProducts) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Vector x{1.0, 1.0};
  const Vector ax = multiply(a, x);
  EXPECT_DOUBLE_EQ(ax[0], 3.0);
  EXPECT_DOUBLE_EQ(ax[1], 7.0);
  const Vector xa = multiply(x, a);
  EXPECT_DOUBLE_EQ(xa[0], 4.0);
  EXPECT_DOUBLE_EQ(xa[1], 6.0);
}

TEST(Matrix, PowerZeroIsIdentity) {
  const Matrix a{{2.0, 0.0}, {0.0, 2.0}};
  EXPECT_EQ(power(a, 0), Matrix::identity(2));
}

TEST(Matrix, PowerMatchesRepeatedMultiplication) {
  const Matrix a{{0.5, 0.5}, {0.25, 0.75}};
  Matrix expected = Matrix::identity(2);
  for (int i = 0; i < 7; ++i) expected = multiply(expected, a);
  EXPECT_LT(max_abs_diff(power(a, 7), expected), 1e-12);
}

TEST(Matrix, PowerOfNonSquareThrows) {
  EXPECT_THROW(power(Matrix(2, 3), 2), precondition_error);
}

TEST(Matrix, AdditionAndScaling) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b = a + a;
  EXPECT_DOUBLE_EQ(b(1, 1), 8.0);
  const Matrix c = b - a;
  EXPECT_EQ(c, a);
  const Matrix d = 3.0 * a;
  EXPECT_DOUBLE_EQ(d(0, 0), 3.0);
}

}  // namespace
}  // namespace whart::linalg
