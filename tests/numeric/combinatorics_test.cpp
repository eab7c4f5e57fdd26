#include "whart/numeric/combinatorics.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace whart::numeric {
namespace {

TEST(Binomial, BaseCases) {
  EXPECT_DOUBLE_EQ(binomial(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(binomial(1, 1), 1.0);
}

TEST(Binomial, SmallValues) {
  EXPECT_DOUBLE_EQ(binomial(4, 2), 6.0);
  EXPECT_DOUBLE_EQ(binomial(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(binomial(5, 3), 10.0);
  EXPECT_DOUBLE_EQ(binomial(10, 4), 210.0);
  EXPECT_DOUBLE_EQ(binomial(20, 10), 184756.0);
}

TEST(Binomial, KGreaterThanNIsZero) {
  EXPECT_DOUBLE_EQ(binomial(3, 4), 0.0);
  EXPECT_DOUBLE_EQ(binomial(0, 1), 0.0);
}

TEST(Binomial, Symmetry) {
  for (std::uint32_t n = 0; n <= 30; ++n)
    for (std::uint32_t k = 0; k <= n; ++k)
      EXPECT_DOUBLE_EQ(binomial(n, k), binomial(n, n - k))
          << "n=" << n << " k=" << k;
}

TEST(Binomial, PascalRecurrence) {
  for (std::uint32_t n = 1; n <= 25; ++n)
    for (std::uint32_t k = 1; k <= n; ++k)
      EXPECT_NEAR(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k),
                  1e-9 * binomial(n, k))
          << "n=" << n << " k=" << k;
}

TEST(Binomial, RowSumsArePowersOfTwo) {
  for (std::uint32_t n = 0; n <= 20; ++n) {
    double sum = 0.0;
    for (std::uint32_t k = 0; k <= n; ++k) sum += binomial(n, k);
    EXPECT_NEAR(sum, std::pow(2.0, n), 1e-6) << "n=" << n;
  }
}

TEST(RetryPlacements, MatchesStarsAndBars) {
  // 1 failure over 3 hops: 3 placements; 2 failures over 3 hops: 6;
  // 3 failures over 3 hops: 10 (paper Section V-A pattern).
  EXPECT_DOUBLE_EQ(retry_placements(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(retry_placements(1, 3), 3.0);
  EXPECT_DOUBLE_EQ(retry_placements(2, 3), 6.0);
  EXPECT_DOUBLE_EQ(retry_placements(3, 3), 10.0);
}

TEST(RetryPlacements, SingleHopAlwaysOnePlacement) {
  for (std::uint32_t failures = 0; failures < 10; ++failures)
    EXPECT_DOUBLE_EQ(retry_placements(failures, 1), 1.0);
}

TEST(RetryPlacements, ZeroHops) {
  EXPECT_DOUBLE_EQ(retry_placements(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(retry_placements(1, 0), 0.0);
}

}  // namespace
}  // namespace whart::numeric
