#include "whart/markov/steady_state.hpp"

#include <gtest/gtest.h>

#include "whart/markov/transient.hpp"
#include "whart/numeric/rng.hpp"

namespace whart::markov {
namespace {

Dtmc link_chain(double pfl, double prc) {
  return Dtmc(2, {{0, 0, 1.0 - pfl},
                  {0, 1, pfl},
                  {1, 0, prc},
                  {1, 1, 1.0 - prc}});
}

// Power iteration: `steps` products pi P from the uniform distribution.
linalg::Vector power_iterate(const Dtmc& chain, std::uint64_t steps) {
  const std::size_t n = chain.num_states();
  return distribution_after(
      chain, linalg::Vector(n, 1.0 / static_cast<double>(n)), steps);
}

void expect_stationary(const Dtmc& chain, const linalg::Vector& pi,
                       double tol = 1e-10) {
  EXPECT_NEAR(linalg::sum(pi), 1.0, tol);
  const linalg::Vector next = chain.step(pi);
  EXPECT_LT(linalg::max_abs_diff(next, pi), tol);
}

TEST(SteadyState, DirectMatchesPaperEq4) {
  const Dtmc chain = link_chain(0.184, 0.9);
  const linalg::Vector pi = steady_state_direct(chain);
  EXPECT_NEAR(pi[0], 0.9 / (0.9 + 0.184), 1e-12);
  expect_stationary(chain, pi);
}

TEST(SteadyState, PowerMatchesDirect) {
  const Dtmc chain = link_chain(0.3, 0.7);
  const linalg::Vector direct = steady_state_direct(chain);
  const linalg::Vector power = power_iterate(chain, 200);
  EXPECT_LT(linalg::max_abs_diff(direct, power), 1e-9);
}

TEST(SteadyState, PeriodicChainHandledByLazyIteration) {
  // A two-cycle: 0 -> 1 -> 0 with period 2; stationary is uniform.
  // Plain iteration from a point mass oscillates forever; the lazy
  // chain (P + I) / 2 has the same stationary distribution and
  // converges to the direct solve.
  const Dtmc chain(2, {{0, 1, 1.0}, {1, 0, 1.0}});
  const linalg::Vector pi = steady_state_direct(chain);
  EXPECT_NEAR(pi[0], 0.5, 1e-9);
  EXPECT_NEAR(pi[1], 0.5, 1e-9);
  expect_stationary(chain, pi);
  linalg::Vector lazy{1.0, 0.0};
  for (int step = 0; step < 60; ++step) {
    lazy += chain.step(lazy);
    lazy *= 0.5;
  }
  EXPECT_LT(linalg::max_abs_diff(lazy, pi), 1e-9);
}

TEST(SteadyState, ThreeStateBirthDeath) {
  const Dtmc chain(3, {{0, 0, 0.5},
                       {0, 1, 0.5},
                       {1, 0, 0.25},
                       {1, 1, 0.25},
                       {1, 2, 0.5},
                       {2, 1, 0.5},
                       {2, 2, 0.5}});
  const linalg::Vector pi = steady_state_direct(chain);
  expect_stationary(chain, pi);
  // Detailed balance for this birth-death chain: pi0 * 0.5 = pi1 * 0.25.
  EXPECT_NEAR(pi[0] * 0.5, pi[1] * 0.25, 1e-12);
  EXPECT_NEAR(pi[1] * 0.5, pi[2] * 0.5, 1e-12);
}

class SteadyStateRandom : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SteadyStateRandom, DirectAndPowerAgreeOnRandomChains) {
  const std::size_t n = GetParam();
  numeric::Xoshiro256 rng(77 + n);
  std::vector<linalg::Triplet> triplets;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row(n);
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = rng.uniform() + 0.01;  // strictly positive => irreducible
      total += row[j];
    }
    for (std::size_t j = 0; j < n; ++j)
      triplets.push_back({i, j, row[j] / total});
  }
  const Dtmc chain(n, std::move(triplets));
  const linalg::Vector direct = steady_state_direct(chain);
  const linalg::Vector power = power_iterate(chain, 1000);
  EXPECT_LT(linalg::max_abs_diff(direct, power), 1e-8);
  expect_stationary(chain, direct, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SteadyStateRandom,
                         ::testing::Values(2, 3, 5, 10, 20));

}  // namespace
}  // namespace whart::markov
