#include "whart/markov/structure.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/link/link_model.hpp"
#include "whart/markov/absorbing.hpp"

namespace whart::markov {
namespace {

Dtmc link_chain(double pfl, double prc) {
  return Dtmc(2, {{0, 0, 1.0 - pfl},
                  {0, 1, pfl},
                  {1, 0, prc},
                  {1, 1, 1.0 - prc}});
}

TEST(Structure, PathModelClassesMatchAbsorbingStructure) {
  // The unrolled path DTMC is absorbing: the goals and Discard are its
  // only closed states, and every other state reaches one of them
  // (analyze_absorbing throws otherwise).
  hart::PathModelConfig config;
  config.hop_slots = {3, 6, 7};
  config.superframe = net::SuperframeConfig::symmetric(7);
  config.reporting_interval = 2;
  const hart::PathModel model(config);
  const hart::SteadyStateLinks links(
      3, link::LinkModel::from_availability(0.75));
  const Dtmc chain = model.to_dtmc(links);

  const AbsorbingAnalysis analysis = analyze_absorbing(chain);
  EXPECT_EQ(analysis.absorbing_states.size(), 3u);  // R7, R14, Discard
  EXPECT_EQ(analysis.transient_states.size(), chain.num_states() - 3);
}

TEST(Structure, ResidualsMeasureDeviationFromStochastic) {
  // 0.25 + 0.75 is exact in binary; 0.2 + 0.8 is off by half an ulp.
  const Dtmc exact = link_chain(0.25, 0.75);
  EXPECT_EQ(max_row_sum_residual(exact), 0.0);
  EXPECT_LE(max_row_sum_residual(link_chain(0.2, 0.9)), 1e-16);
  linalg::Vector distribution(2);
  distribution[0] = 0.5;
  distribution[1] = 0.5;
  EXPECT_EQ(distribution_mass_residual(distribution), 0.0);
  distribution[1] = 0.5 + 1e-9;
  EXPECT_NEAR(distribution_mass_residual(distribution), 1e-9, 1e-15);
}

// Row-normalization drift regression: on a ~20k-state path chain
// stepped across its whole 2000-slot horizon, both the row sums and the
// propagated probability mass stay within 1e-12 of exact (measured
// ~1e-16; the bound leaves headroom for other FPUs/compilers).  If an
// edit to the path-model assembly or the sparse stepping kernel
// introduces accumulation error, this pins it.
TEST(Structure, LargeChainResidualsStayBelow1em12) {
  hart::PathModelConfig config;
  for (int h = 0; h < 10; ++h)
    config.hop_slots.push_back(static_cast<std::uint32_t>(3 * h + 2));
  config.superframe = {40, 40};
  config.reporting_interval = 50;
  const hart::PathModel model(config);
  const hart::SteadyStateLinks links{std::vector<double>(10, 0.83)};
  const Dtmc chain = model.to_dtmc(links);
  ASSERT_GT(chain.num_states(), 15000u);

  EXPECT_LE(max_row_sum_residual(chain), 1e-12);

  linalg::Vector distribution =
      point_distribution(chain.num_states(), 0);
  double worst = 0.0;
  const std::uint64_t horizon = 2000;  // Is * Fup slots
  for (std::uint64_t t = 0; t < horizon; ++t) {
    distribution = chain.step(distribution);
    worst = std::max(worst, distribution_mass_residual(distribution));
  }
  EXPECT_LE(worst, 1e-12);
}

}  // namespace
}  // namespace whart::markov
