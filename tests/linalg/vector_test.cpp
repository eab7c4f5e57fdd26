#include "whart/linalg/vector.hpp"

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"

namespace whart::linalg {
namespace {

TEST(Vector, ConstructionForms) {
  EXPECT_TRUE(Vector().empty());
  EXPECT_EQ(Vector(3).size(), 3u);
  EXPECT_DOUBLE_EQ(Vector(3)[1], 0.0);
  EXPECT_DOUBLE_EQ(Vector(2, 7.5)[0], 7.5);
  const Vector v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(Vector, AtBoundsChecked) {
  Vector v(2);
  EXPECT_NO_THROW(v.at(1) = 5.0);
  EXPECT_DOUBLE_EQ(v.at(1), 5.0);
  EXPECT_THROW(v.at(2), precondition_error);
}

TEST(Vector, Arithmetic) {
  const Vector a{1.0, 2.0};
  const Vector b{10.0, 20.0};
  const Vector sum = a + b;
  EXPECT_DOUBLE_EQ(sum[0], 11.0);
  EXPECT_DOUBLE_EQ(sum[1], 22.0);
  const Vector diff = b - a;
  EXPECT_DOUBLE_EQ(diff[0], 9.0);
  const Vector scaled = 2.0 * a;
  EXPECT_DOUBLE_EQ(scaled[1], 4.0);
}

TEST(Vector, MismatchedSizesThrow) {
  Vector a(2);
  const Vector b(3);
  EXPECT_THROW(a += b, precondition_error);
  EXPECT_THROW(dot(a, b), precondition_error);
  EXPECT_THROW(max_abs_diff(a, b), precondition_error);
}

TEST(Vector, DotAndNorms) {
  const Vector a{3.0, -4.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(sum(a), -1.0);
  EXPECT_DOUBLE_EQ(sum(Vector{}), 0.0);
}

TEST(Vector, MaxAbsDiff) {
  const Vector a{1.0, 5.0};
  const Vector b{2.0, 3.0};
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 2.0);
}

TEST(Vector, UnitVector) {
  const Vector e = unit(4, 2);
  EXPECT_DOUBLE_EQ(e[2], 1.0);
  EXPECT_DOUBLE_EQ(sum(e), 1.0);
  EXPECT_THROW(unit(4, 4), precondition_error);
}

TEST(Vector, Equality) {
  EXPECT_EQ((Vector{1.0, 2.0}), (Vector{1.0, 2.0}));
  EXPECT_NE((Vector{1.0, 2.0}), (Vector{1.0, 2.1}));
}

}  // namespace
}  // namespace whart::linalg
