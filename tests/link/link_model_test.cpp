#include "whart/link/link_model.hpp"

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"
#include "whart/markov/steady_state.hpp"
#include "whart/markov/transient.hpp"

namespace whart::link {
namespace {

TEST(LinkModel, InvalidProbabilitiesThrow) {
  EXPECT_THROW(LinkModel(-0.1, 0.9), precondition_error);
  EXPECT_THROW(LinkModel(0.1, 1.1), precondition_error);
  EXPECT_THROW(LinkModel(0.0, 0.0), precondition_error);
}

TEST(LinkModel, SteadyStateAvailabilityEq4) {
  // Paper Section V-B: BER = 1e-4 gives pfl = 0.0966 and pi(up) = 0.9031.
  const LinkModel link(0.0966, 0.9);
  EXPECT_NEAR(link.steady_state_availability(), 0.9031, 5e-5);
}

TEST(LinkModel, FromBerMatchesPaperSectionVB) {
  const LinkModel link = LinkModel::from_ber(1e-4);
  EXPECT_NEAR(link.failure_probability(), 0.0966, 5e-5);
  EXPECT_NEAR(link.steady_state_availability(), 0.9031, 5e-5);
  EXPECT_DOUBLE_EQ(link.recovery_probability(), 0.9);
}

TEST(LinkModel, FromSnrMatchesPaperTableIV) {
  // Eb/N0 = 7 -> pfl = 0.089; Eb/N0 = 6 -> pfl = 0.237.
  const LinkModel link3 = LinkModel::from_snr(phy::EbN0::from_linear(7.0));
  EXPECT_NEAR(link3.failure_probability(), 0.089, 1e-3);
  const LinkModel link4 = LinkModel::from_snr(phy::EbN0::from_linear(6.0));
  EXPECT_NEAR(link4.failure_probability(), 0.237, 2e-3);
}

TEST(LinkModel, FromAvailabilityRoundTrips) {
  for (double pi : {0.693, 0.75, 0.83, 0.903, 0.948, 0.989}) {
    const LinkModel link = LinkModel::from_availability(pi);
    EXPECT_NEAR(link.steady_state_availability(), pi, 1e-12) << pi;
  }
}

TEST(LinkModel, FromAvailabilityTooLowThrows) {
  // pi = 0.4 with prc = 0.9 would need pfl = 1.35 > 1.
  EXPECT_THROW(LinkModel::from_availability(0.4, 0.9), precondition_error);
  EXPECT_THROW(LinkModel::from_availability(0.0), precondition_error);
}

TEST(LinkModel, TransientClosedFormMatchesDtmc) {
  const LinkModel link(0.184, 0.9);
  const markov::Dtmc chain = link.to_dtmc();
  linalg::Vector p{0.0, 1.0};  // DOWN
  for (std::uint64_t t = 1; t <= 10; ++t) {
    p = chain.step(p);
    EXPECT_NEAR(link.up_probability_after(LinkState::kDown, t), p[0], 1e-14)
        << "t=" << t;
  }
}

TEST(LinkModel, TransientFromUpState) {
  const LinkModel link(0.05, 0.9);
  EXPECT_DOUBLE_EQ(link.up_probability_after(LinkState::kUp, 0), 1.0);
  EXPECT_NEAR(link.up_probability_after(LinkState::kUp, 1), 0.95, 1e-15);
}

TEST(LinkModel, TransientConvergesToSteadyState) {
  const LinkModel link(0.184, 0.9);
  const double pi = link.steady_state_availability();
  EXPECT_NEAR(link.up_probability_after(LinkState::kDown, 100), pi, 1e-12);
  EXPECT_NEAR(link.up_probability_after(LinkState::kUp, 100), pi, 1e-12);
}

TEST(LinkModel, InvalidInitialProbabilityThrows) {
  const LinkModel link(0.1, 0.9);
  EXPECT_THROW((void)link.up_probability_after(1.5, 3), precondition_error);
}

TEST(LinkModel, MemoryEigenvalue) {
  EXPECT_NEAR(LinkModel(0.184, 0.9).memory_eigenvalue(), -0.084, 1e-15);
  EXPECT_NEAR(LinkModel(0.05, 0.9).memory_eigenvalue(), 0.05, 1e-15);
}

TEST(LinkModel, SlotsToSteadyStateIsSmall) {
  // Paper Fig. 17: "the link returns to its steady-state almost
  // immediately" — a handful of slots for typical parameters.
  const LinkModel link(0.184, 0.9);
  const std::uint64_t slots = link.slots_to_steady_state(1e-3);
  EXPECT_LE(slots, 4u);
  const double pi = link.steady_state_availability();
  EXPECT_NEAR(link.up_probability_after(LinkState::kDown, slots), pi, 1e-3);
}

TEST(LinkModel, ToDtmcSteadyStateMatchesEq4) {
  const LinkModel link(0.3, 0.7);
  const linalg::Vector pi = markov::steady_state_direct(link.to_dtmc());
  EXPECT_NEAR(pi[0], link.steady_state_availability(), 1e-12);
}

TEST(LinkModel, Equality) {
  EXPECT_EQ(LinkModel(0.1, 0.9), LinkModel(0.1, 0.9));
  EXPECT_NE(LinkModel(0.1, 0.9), LinkModel(0.2, 0.9));
}

}  // namespace
}  // namespace whart::link
