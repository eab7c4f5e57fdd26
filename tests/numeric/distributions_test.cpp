#include "whart/numeric/distributions.hpp"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"

namespace whart::numeric {
namespace {

TEST(NegativeBinomialCycles, SingleHopIsGeometric) {
  // One hop: cycle m is the first success after m - 1 failures.
  const auto cycles = negative_binomial_cycles(1, 0.83, 4);
  ASSERT_EQ(cycles.size(), 4u);
  for (std::uint64_t m = 1; m <= 4; ++m)
    EXPECT_NEAR(cycles[m - 1],
                std::pow(1.0 - 0.83, static_cast<double>(m - 1)) * 0.83,
                1e-15);
}

TEST(NegativeBinomialCycles, PaperExamplePathProbabilities) {
  // Paper Fig. 6: 3 hops, pi(up) = 0.75, Is = 4 gives goal probabilities
  // 0.4219, 0.3164, 0.1582, 0.06592 and reachability 0.9624.
  const auto cycles = negative_binomial_cycles(3, 0.75, 4);
  ASSERT_EQ(cycles.size(), 4u);
  EXPECT_NEAR(cycles[0], 0.4219, 5e-5);
  EXPECT_NEAR(cycles[1], 0.3164, 5e-5);
  EXPECT_NEAR(cycles[2], 0.1582, 5e-5);
  EXPECT_NEAR(cycles[3], 0.06592, 5e-6);
  const double r = std::accumulate(cycles.begin(), cycles.end(), 0.0);
  EXPECT_NEAR(r, 0.9624, 5e-5);
}

TEST(NegativeBinomialCycles, PerfectLinksDeliverInFirstCycle) {
  const auto cycles = negative_binomial_cycles(5, 1.0, 3);
  EXPECT_DOUBLE_EQ(cycles[0], 1.0);
  EXPECT_DOUBLE_EQ(cycles[1], 0.0);
  EXPECT_DOUBLE_EQ(cycles[2], 0.0);
}

TEST(NegativeBinomialCycles, DeadLinksNeverDeliver) {
  const auto cycles = negative_binomial_cycles(2, 0.0, 5);
  for (double g : cycles) EXPECT_DOUBLE_EQ(g, 0.0);
}

class NegBinomialProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, double>> {};

TEST_P(NegBinomialProperty, MassNeverExceedsOneAndIncreases) {
  const auto [hops, ps] = GetParam();
  const auto cycles = negative_binomial_cycles(hops, ps, 50);
  double mass = 0.0;
  for (double g : cycles) {
    EXPECT_GE(g, 0.0);
    mass += g;
  }
  EXPECT_LE(mass, 1.0 + 1e-12);
  // With many cycles, virtually all mass is delivered for ps > 0.5.
  if (ps > 0.5) {
    EXPECT_GT(mass, 0.999);
  }
}

TEST_P(NegBinomialProperty, ZeroHopsRejected) {
  const auto [hops, ps] = GetParam();
  (void)hops;
  EXPECT_THROW(negative_binomial_cycles(0, ps, 4), precondition_error);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NegBinomialProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 8u),
                       ::testing::Values(0.1, 0.5, 0.75, 0.9, 0.99)));

}  // namespace
}  // namespace whart::numeric
