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

}  // namespace
}  // namespace whart::linalg
