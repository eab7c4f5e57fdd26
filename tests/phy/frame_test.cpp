#include "whart/phy/frame.hpp"

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"
#include "whart/numeric/rng.hpp"
#include "whart/phy/modulation.hpp"

namespace whart::phy {
namespace {

TEST(Frame, StandardConstants) {
  EXPECT_EQ(kSlotMilliseconds, 10u);
  EXPECT_EQ(kChannelCount, 16u);
  EXPECT_EQ(kMaxPayloadBytes, 127u);
  EXPECT_EQ(kMessageBits, 1016u);
}

TEST(MessageFailure, PaperSectionVBExample) {
  // Paper Section V-B: BER = 1e-4 with L = 1016 gives pfl = 0.0966.
  EXPECT_NEAR(message_failure_probability(1e-4), 0.0966, 5e-5);
}

TEST(MessageFailure, PaperTableIVValues) {
  // pfl3 = 1 - (1 - 9.14e-5)^1016 = 0.089; pfl4 with BER4 = 2.66e-4
  // gives 0.237.
  EXPECT_NEAR(message_failure_probability(9.14e-5), 0.089, 5e-4);
  EXPECT_NEAR(message_failure_probability(2.66e-4), 0.237, 5e-4);
}

TEST(MessageFailure, EdgeCases) {
  EXPECT_DOUBLE_EQ(message_failure_probability(0.0), 0.0);
  EXPECT_DOUBLE_EQ(message_failure_probability(1.0), 1.0);
  EXPECT_NEAR(message_failure_probability(0.5, 1), 0.5, 1e-15);
}

TEST(MessageFailure, MonotoneInLengthAndBer) {
  EXPECT_LT(message_failure_probability(1e-4, 100),
            message_failure_probability(1e-4, 1000));
  EXPECT_LT(message_failure_probability(1e-5),
            message_failure_probability(1e-4));
}

TEST(MessageFailure, InvalidArgumentsThrow) {
  EXPECT_THROW(message_failure_probability(-0.1), precondition_error);
  EXPECT_THROW(message_failure_probability(1.5), precondition_error);
  EXPECT_THROW(message_failure_probability(0.1, 0), precondition_error);
}

TEST(MessageFailureFromSnr, ComposesEq1AndEq2) {
  // Eb/N0 = 7 -> BER = 9.14e-5 -> pfl ~ 0.089 (paper Section VI-E).
  EXPECT_NEAR(
      message_failure_probability(oqpsk_ber(EbN0::from_linear(7.0))), 0.089,
      1e-3);
  // Eb/N0 = 6 -> pfl ~ 0.237.
  EXPECT_NEAR(
      message_failure_probability(oqpsk_ber(EbN0::from_linear(6.0))), 0.237,
      2e-3);
}

TEST(Bsc, SimulatedFailureRateMatchesEquation2) {
  // Cross-validate paper Eq. 2 by Monte Carlo over a binary symmetric
  // channel: BER = 1e-3, L = 127 bits; a word fails when any bit flips.
  numeric::Xoshiro256 rng(42);
  const std::uint32_t trials = 50000;
  std::uint32_t failures = 0;
  for (std::uint32_t t = 0; t < trials; ++t) {
    bool corrupted = false;
    for (std::uint32_t b = 0; b < 127 && !corrupted; ++b)
      corrupted = rng.bernoulli(1e-3);
    if (corrupted) ++failures;
  }
  const double simulated =
      static_cast<double>(failures) / static_cast<double>(trials);
  EXPECT_NEAR(simulated, message_failure_probability(1e-3, 127), 0.01);
}

}  // namespace
}  // namespace whart::phy
