#include "whart/markov/transient.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"

namespace whart::markov {
namespace {

Dtmc link_chain(double pfl, double prc) {
  return Dtmc(2, {{0, 0, 1.0 - pfl},
                  {0, 1, pfl},
                  {1, 0, prc},
                  {1, 1, 1.0 - prc}});
}

TEST(Transient, ZeroStepsIsInitial) {
  const Dtmc chain = link_chain(0.2, 0.9);
  const linalg::Vector p0{0.3, 0.7};
  EXPECT_EQ(distribution_after(chain, p0, 0), p0);
}

TEST(Transient, OneStepMatchesMatrixProduct) {
  const Dtmc chain = link_chain(0.2, 0.9);
  const linalg::Vector p0{1.0, 0.0};
  const linalg::Vector p1 = distribution_after(chain, p0, 1);
  EXPECT_DOUBLE_EQ(p1[0], 0.8);
  EXPECT_DOUBLE_EQ(p1[1], 0.2);
}

TEST(Transient, ManyStepsApproachSteadyState) {
  // pi(up) = prc / (prc + pfl) = 0.9 / 1.1.
  const Dtmc chain = link_chain(0.2, 0.9);
  const linalg::Vector p = distribution_after(chain, {0.0, 1.0}, 200);
  EXPECT_NEAR(p[0], 0.9 / 1.1, 1e-12);
}

TEST(Transient, MatchesClosedFormEq3) {
  // Paper Eq. 3 closed form: p_up(t) = pi + (p0 - pi) (1-pfl-prc)^t.
  const double pfl = 0.184;
  const double prc = 0.9;
  const Dtmc chain = link_chain(pfl, prc);
  const double pi = prc / (prc + pfl);
  const double lambda = 1.0 - pfl - prc;
  linalg::Vector p{0.0, 1.0};  // start DOWN
  for (int t = 1; t <= 6; ++t) {
    p = chain.step(p);
    const double expected = pi + (0.0 - pi) * std::pow(lambda, t);
    EXPECT_NEAR(p[0], expected, 1e-14) << "t=" << t;
  }
}

TEST(Transient, SizeMismatchThrows) {
  const Dtmc chain = link_chain(0.1, 0.9);
  EXPECT_THROW(distribution_after(chain, linalg::Vector(3), 1),
               precondition_error);
}

}  // namespace
}  // namespace whart::markov
