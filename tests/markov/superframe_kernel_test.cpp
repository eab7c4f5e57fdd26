// The superframe-product transient kernel against the per-slot solver:
// the cycle collapse must reproduce every solver output to 1e-12 across
// a seeded corpus of generated scenarios (out-of-order slots, retry
// slots, mid-horizon TTLs, degenerate links) and the structural edge
// cases called out in DESIGN.md §11 — Fup = 1, TTL = 1, and horizons
// that are not a multiple of the superframe.
#include "whart/markov/superframe_kernel.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"
#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/linalg/matrix.hpp"
#include "whart/markov/transient.hpp"
#include "whart/verify/full_chain.hpp"
#include "whart/verify/scenario.hpp"

namespace whart::markov {
namespace {

constexpr double kTol = 1e-12;

hart::PathAnalysisOptions superframe_options() {
  hart::PathAnalysisOptions options;
  options.kernel = hart::TransientKernel::kSuperframeProduct;
  return options;
}

/// Every solver output of the two kernels must agree to kTol.
void expect_equivalent(const hart::PathModelConfig& config,
                       const std::vector<double>& availabilities) {
  const hart::PathModel model(config);
  const hart::SteadyStateLinks links{availabilities};
  const hart::PathTransientResult per_slot = model.analyze(links);
  const hart::PathTransientResult collapsed =
      model.analyze(links, superframe_options());

  ASSERT_EQ(collapsed.diagnostics.kernel,
            hart::TransientKernel::kSuperframeProduct);
  ASSERT_EQ(per_slot.diagnostics.kernel, hart::TransientKernel::kPerSlot);

  ASSERT_EQ(collapsed.cycle_probabilities.size(),
            per_slot.cycle_probabilities.size());
  for (std::size_t i = 0; i < per_slot.cycle_probabilities.size(); ++i)
    EXPECT_NEAR(collapsed.cycle_probabilities[i],
                per_slot.cycle_probabilities[i], kTol)
        << "cycle " << i;
  EXPECT_NEAR(collapsed.discard_probability, per_slot.discard_probability,
              kTol);
  EXPECT_NEAR(collapsed.expected_transmissions,
              per_slot.expected_transmissions, kTol);
  EXPECT_NEAR(collapsed.expected_transmissions_delivered,
              per_slot.expected_transmissions_delivered, kTol);
  ASSERT_EQ(collapsed.expected_transmissions_per_hop.size(),
            per_slot.expected_transmissions_per_hop.size());
  for (std::size_t h = 0; h < per_slot.expected_transmissions_per_hop.size();
       ++h)
    EXPECT_NEAR(collapsed.expected_transmissions_per_hop[h],
                per_slot.expected_transmissions_per_hop[h], kTol)
        << "hop " << h;
  EXPECT_LE(collapsed.diagnostics.mass_residual, 1e-12);

  // The collapsed trajectory records cycle boundaries; entry k must
  // match the per-slot trajectory at t = k * Fup.
  EXPECT_EQ(per_slot.trajectory_stride, 1u);
  EXPECT_EQ(collapsed.trajectory_stride, config.superframe.uplink_slots);
  ASSERT_EQ(collapsed.goal_trajectory.size(),
            static_cast<std::size_t>(config.reporting_interval) + 1);
  for (std::size_t k = 0; k < collapsed.goal_trajectory.size(); ++k) {
    const std::size_t t = k * config.superframe.uplink_slots;
    ASSERT_LT(t, per_slot.goal_trajectory.size());
    for (std::size_t i = 0; i < collapsed.goal_trajectory[k].size(); ++i)
      EXPECT_NEAR(collapsed.goal_trajectory[k][i],
                  per_slot.goal_trajectory[t][i], kTol)
          << "boundary " << k << " cycle " << i;
  }
}

TEST(SuperframeKernel, EquivalentAcrossSeededScenarioCorpus) {
  const verify::ScenarioGenerator generator;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const verify::Scenario scenario = generator.generate(seed);
    for (std::size_t p = 0; p < scenario.path_count(); ++p) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " path " +
                   std::to_string(p));
      expect_equivalent(scenario.path_config(p),
                        scenario.hop_availabilities(p));
    }
  }
}

TEST(SuperframeKernel, EquivalentWithSingleSlotFrame) {
  // Fup = 1: the "cycle product" is the single slot matrix and every
  // cycle delivers or retries the one hop.
  hart::PathModelConfig config;
  config.hop_slots = {1};
  config.superframe = net::SuperframeConfig{1, 1};
  config.reporting_interval = 6;
  expect_equivalent(config, {0.7});
}

TEST(SuperframeKernel, EquivalentWithTtlOne) {
  // TTL = 1: the very first uplink slot is also the discard slot, so the
  // whole solve is tail — the collapse must not advance a single cycle.
  hart::PathModelConfig config;
  config.hop_slots = {1, 2, 3};
  config.superframe = net::SuperframeConfig{4, 4};
  config.reporting_interval = 3;
  config.ttl = 1;
  expect_equivalent(config, {0.9, 0.8, 0.7});
}

TEST(SuperframeKernel, EquivalentWithMidCycleTtl) {
  // A TTL strictly inside a later cycle: full cycles collapse, the TTL
  // cycle runs per-slot, trailing cycles contribute nothing.
  hart::PathModelConfig config;
  config.hop_slots = {2, 1, 4};  // out of hop order on purpose
  config.superframe = net::SuperframeConfig{5, 5};
  config.reporting_interval = 4;
  config.ttl = 13;
  expect_equivalent(config, {0.85, 0.6, 0.95});
}

TEST(SuperframeKernel, EquivalentWithTtlOnCycleBoundary) {
  hart::PathModelConfig config;
  config.hop_slots = {1, 3};
  config.superframe = net::SuperframeConfig{3, 3};
  config.reporting_interval = 4;
  config.ttl = 6;  // exactly two cycles
  expect_equivalent(config, {0.75, 0.8});
}

TEST(SuperframeKernel, EquivalentWithRetrySlots) {
  hart::PathModelConfig config;
  config.hop_slots = {1, 3};
  config.retry_slots = {2, 0};
  config.superframe = net::SuperframeConfig{4, 4};
  config.reporting_interval = 3;
  expect_equivalent(config, {0.5, 0.9});
}

// --- raw markov::SuperframeKernel behaviour -----------------------------

/// The per-slot matrices of a small 2-hop model: the verify/ full chain
/// over the production opportunity factors.
std::vector<linalg::CsrMatrix> small_slot_matrices() {
  hart::PathModelConfig config;
  config.hop_slots = {1, 2};
  config.superframe = net::SuperframeConfig{3, 3};
  config.reporting_interval = 2;
  const hart::PathModel model(config);
  const hart::SteadyStateLinks links{std::vector<double>{0.8, 0.6}};
  return verify::full_chain_slot_matrices(model, links);
}

TEST(SuperframeKernel, ProductIsRowStochastic) {
  const SuperframeKernel kernel(small_slot_matrices());
  EXPECT_EQ(kernel.period(), 6u);  // Fup + Fdown
  EXPECT_EQ(kernel.dimension(), 4u);
  EXPECT_LE(kernel.product_row_sum_residual(), 1e-15);
}

TEST(SuperframeKernel, StepsNotMultipleOfPeriodUseTail) {
  const std::vector<linalg::CsrMatrix> slots = small_slot_matrices();
  const SuperframeKernel kernel(slots);
  linalg::Vector initial(kernel.dimension());
  initial[0] = 1.0;
  // 2 full cycles + 4 tail slots: compare against the naive per-slot
  // product over the periodic sequence.
  const std::uint64_t steps = 2 * kernel.period() + 4;
  const linalg::Vector collapsed =
      distribution_after_periodic(kernel, initial, steps);
  linalg::Vector naive = initial;
  for (std::uint64_t t = 0; t < steps; ++t)
    naive = slots[t % slots.size()].left_multiply(naive);
  ASSERT_EQ(collapsed.size(), naive.size());
  for (std::size_t i = 0; i < naive.size(); ++i)
    EXPECT_NEAR(collapsed[i], naive[i], kTol);
}

TEST(SuperframeKernel, ZeroStepsReturnsInitialUnchanged) {
  const SuperframeKernel kernel(small_slot_matrices());
  linalg::Vector initial(kernel.dimension());
  initial[1] = 0.25;
  initial[2] = 0.75;
  const linalg::Vector after = distribution_after_periodic(kernel, initial, 0);
  EXPECT_EQ(after, initial);
}

TEST(SuperframeKernel, BatchedSolveMatchesSequentialRows) {
  const SuperframeKernel kernel(small_slot_matrices());
  const std::size_t dim = kernel.dimension();
  linalg::Matrix initials(dim + 3, dim);
  for (std::size_t r = 0; r < initials.rows(); ++r)
    for (std::size_t c = 0; c < dim; ++c)
      initials(r, c) = (r + c) % dim == 0 ? 0.4 : 0.6 / double(dim - 1);
  const std::uint64_t steps = kernel.period() + 2;
  const linalg::Matrix batched =
      distributions_after_periodic(kernel, initials, steps);
  ASSERT_EQ(batched.rows(), initials.rows());
  for (std::size_t r = 0; r < initials.rows(); ++r) {
    linalg::Vector row(dim);
    for (std::size_t c = 0; c < dim; ++c) row[c] = initials(r, c);
    const linalg::Vector single =
        distribution_after_periodic(kernel, row, steps);
    for (std::size_t c = 0; c < dim; ++c)
      // Identical accumulation order — bitwise, not just near.
      EXPECT_EQ(batched(r, c), single[c]) << "row " << r << " col " << c;
  }
}

TEST(SuperframeKernel, PerturbedProductEntryChangesTheSolve) {
  SuperframeKernel kernel(small_slot_matrices());
  linalg::Vector initial(kernel.dimension());
  initial[0] = 1.0;
  const linalg::Vector clean =
      kernel.distribution_after(initial, 2 * kernel.period());
  kernel.perturb_product_entry(0, 0, 1e-3);
  const linalg::Vector corrupt =
      kernel.distribution_after(initial, 2 * kernel.period());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < clean.size(); ++i)
    max_diff = std::max(max_diff, std::abs(clean[i] - corrupt[i]));
  EXPECT_GT(max_diff, 1e-5);
  EXPECT_GT(kernel.product_row_sum_residual(), 1e-5);
}

TEST(SuperframeKernel, RejectsEmptyAndMismatchedMatrices) {
  EXPECT_THROW(SuperframeKernel(std::vector<linalg::CsrMatrix>{}),
               precondition_error);
  std::vector<linalg::CsrMatrix> mismatched;
  mismatched.push_back(linalg::CsrMatrix::identity(3));
  mismatched.push_back(linalg::CsrMatrix::identity(4));
  EXPECT_THROW(SuperframeKernel(std::move(mismatched)), precondition_error);
}

}  // namespace
}  // namespace whart::markov
