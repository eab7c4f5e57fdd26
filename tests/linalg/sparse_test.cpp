#include "whart/linalg/sparse.hpp"

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"

namespace whart::linalg {
namespace {

TEST(Csr, EmptyMatrix) {
  const CsrMatrix m(3, 3, {});
  EXPECT_EQ(m.nonzeros(), 0u);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.row_sum(0), 0.0);
}

TEST(Csr, StoresAndLooksUpEntries) {
  const CsrMatrix m(2, 3, {{0, 1, 2.0}, {1, 0, 3.0}, {1, 2, 4.0}});
  EXPECT_EQ(m.nonzeros(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST(Csr, DuplicatesAreSummed) {
  const CsrMatrix m(2, 2, {{0, 0, 1.0}, {0, 0, 2.5}});
  EXPECT_EQ(m.nonzeros(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
}

TEST(Csr, OutOfRangeTripletThrows) {
  EXPECT_THROW(CsrMatrix(2, 2, {{2, 0, 1.0}}), precondition_error);
  EXPECT_THROW(CsrMatrix(2, 2, {{0, 2, 1.0}}), precondition_error);
}

TEST(Csr, LeftMultiplyIsDistributionStep) {
  // Two-state chain: stay 0.7 / move 0.3 from state 0; absorbing state 1.
  const CsrMatrix p(2, 2, {{0, 0, 0.7}, {0, 1, 0.3}, {1, 1, 1.0}});
  const Vector initial{1.0, 0.0};
  const Vector next = p.left_multiply(initial);
  EXPECT_DOUBLE_EQ(next[0], 0.7);
  EXPECT_DOUBLE_EQ(next[1], 0.3);
}

TEST(Csr, MultiplySizeMismatchThrows) {
  const CsrMatrix m(2, 3, {});
  EXPECT_THROW(m.left_multiply(Vector(3)), precondition_error);
}

TEST(Csr, RowSums) {
  const CsrMatrix m(2, 2, {{0, 0, 0.25}, {0, 1, 0.75}, {1, 0, 1.0}});
  EXPECT_DOUBLE_EQ(m.row_sum(0), 1.0);
  EXPECT_DOUBLE_EQ(m.row_sum(1), 1.0);
  EXPECT_THROW((void)m.row_sum(2), precondition_error);
}

TEST(Csr, ForEachInRowVisitsSortedColumns) {
  const CsrMatrix m(1, 5, {{0, 4, 4.0}, {0, 1, 1.0}, {0, 3, 3.0}});
  std::vector<std::size_t> cols;
  m.for_each_in_row(0, [&](std::size_t col, double) { cols.push_back(col); });
  EXPECT_EQ(cols, (std::vector<std::size_t>{1, 3, 4}));
}

TEST(Csr, IdentityActsAsNeutralElement) {
  const CsrMatrix i = CsrMatrix::identity(3);
  EXPECT_EQ(i.nonzeros(), 3u);
  const CsrMatrix m(3, 3, {{0, 1, 2.0}, {1, 2, 3.0}, {2, 0, 4.0}});
  const CsrMatrix left = multiply(i, m);
  const CsrMatrix right = multiply(m, i);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(left.at(r, c), m.at(r, c));
      EXPECT_DOUBLE_EQ(right.at(r, c), m.at(r, c));
    }
}

TEST(Csr, MultiplyMatchesDenseArithmetic) {
  const CsrMatrix a(2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}});
  const CsrMatrix b(3, 2, {{0, 0, 5.0}, {0, 1, 6.0}, {1, 0, 7.0}, {2, 1, 8.0}});
  const CsrMatrix p = multiply(a, b);
  ASSERT_EQ(p.rows(), 2u);
  ASSERT_EQ(p.cols(), 2u);
  EXPECT_DOUBLE_EQ(p.at(0, 0), 5.0);    // 1*5
  EXPECT_DOUBLE_EQ(p.at(0, 1), 22.0);   // 1*6 + 2*8
  EXPECT_DOUBLE_EQ(p.at(1, 0), 21.0);   // 3*7
  EXPECT_DOUBLE_EQ(p.at(1, 1), 0.0);
}

TEST(Csr, MultiplyDimensionMismatchThrows) {
  const CsrMatrix a(2, 3, {});
  const CsrMatrix b(2, 2, {});
  EXPECT_THROW((void)multiply(a, b), precondition_error);
}

TEST(Csr, MultiplyPreservesEmptyRows) {
  // Row 1 of A is empty; it must stay an empty row of the product, and
  // an all-empty B must produce an all-empty product.
  const CsrMatrix a(3, 3, {{0, 0, 1.0}, {2, 1, 2.0}});
  const CsrMatrix b(3, 3, {{0, 2, 4.0}, {1, 0, 5.0}});
  const CsrMatrix p = multiply(a, b);
  std::size_t row1 = 0;
  p.for_each_in_row(1, [&](std::size_t, double) { ++row1; });
  EXPECT_EQ(row1, 0u);
  EXPECT_DOUBLE_EQ(p.at(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(p.at(2, 0), 10.0);

  const CsrMatrix empty(3, 3, {});
  EXPECT_EQ(multiply(a, empty).nonzeros(), 0u);
  EXPECT_EQ(multiply(empty, b).nonzeros(), 0u);
}

TEST(Csr, ArenaIsReusableAcrossProductsOfDifferentShape) {
  SparseProductArena arena;
  const CsrMatrix a(2, 4, {{0, 3, 1.0}, {1, 0, 2.0}});
  const CsrMatrix b(4, 2, {{3, 1, 5.0}, {0, 0, 6.0}});
  const CsrMatrix first = multiply(a, b, arena);
  EXPECT_DOUBLE_EQ(first.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(first.at(1, 0), 12.0);
  // Same arena, larger shapes — the workspace must grow transparently.
  const CsrMatrix c = CsrMatrix::identity(6);
  const CsrMatrix d(6, 6, {{5, 0, 9.0}, {0, 5, 8.0}});
  const CsrMatrix second = multiply(c, d, arena);
  EXPECT_DOUBLE_EQ(second.at(5, 0), 9.0);
  EXPECT_DOUBLE_EQ(second.at(0, 5), 8.0);
  EXPECT_EQ(second.nonzeros(), 2u);
}

TEST(Csr, FromPartsRoundTripsEmptyRows) {
  // Hand-built CSR with rows 0 and 2 empty.
  CsrMatrix m = CsrMatrix::from_parts(3, 2, {0, 0, 2, 2}, {0, 1}, {1.5, 2.5});
  EXPECT_EQ(m.nonzeros(), 2u);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 1.5);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 2.5);
  EXPECT_DOUBLE_EQ(m.row_sum(0), 0.0);
  EXPECT_DOUBLE_EQ(m.row_sum(2), 0.0);
}

TEST(Csr, FromPartsValidatesShape) {
  // row_start[0] != 0.
  EXPECT_THROW((void)CsrMatrix::from_parts(2, 2, {1, 1, 1}, {}, {}),
               precondition_error);
  // row_start not monotone.
  EXPECT_THROW(
      (void)CsrMatrix::from_parts(2, 2, {0, 1, 0}, {0}, {1.0}),
      precondition_error);
  // Final row_start disagrees with the payload length.
  EXPECT_THROW(
      (void)CsrMatrix::from_parts(2, 2, {0, 1, 2}, {0}, {1.0}),
      precondition_error);
  // Column out of range.
  EXPECT_THROW(
      (void)CsrMatrix::from_parts(1, 2, {0, 1}, {2}, {1.0}),
      precondition_error);
  // Columns not strictly increasing within a row.
  EXPECT_THROW(
      (void)CsrMatrix::from_parts(1, 3, {0, 2}, {1, 1}, {1.0, 2.0}),
      precondition_error);
}

}  // namespace
}  // namespace whart::linalg
