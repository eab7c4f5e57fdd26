// The symbolic/numeric split (DESIGN.md §12): a PathModelSkeleton's
// numeric refill must reproduce a fresh PathModel::analyze bit for bit —
// for both transient kernels, on cold and warm workspaces, across a
// generated scenario corpus and with degenerate (0 or 1) firing
// probabilities, which refill like any other.  Plus the shape-only
// fingerprint that decides when two paths may share one skeleton.
#include "whart/hart/path_model.hpp"

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "whart/common/obs.hpp"
#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_cache.hpp"
#include "whart/markov/superframe_kernel.hpp"
#include "whart/net/plant_generator.hpp"
#include "whart/net/superframe.hpp"
#include "whart/verify/full_chain.hpp"
#include "whart/verify/scenario.hpp"

namespace whart::hart {
namespace {

// Exact (==, not approximate) comparison: the split's whole contract is
// bitwise equality, so any rounding difference is a bug.
void expect_identical(const PathTransientResult& fresh,
                      const PathTransientResult& refilled) {
  EXPECT_EQ(refilled.cycle_probabilities, fresh.cycle_probabilities);
  EXPECT_EQ(refilled.discard_probability, fresh.discard_probability);
  EXPECT_EQ(refilled.trajectory_stride, fresh.trajectory_stride);
  ASSERT_EQ(refilled.goal_trajectory.size(), fresh.goal_trajectory.size());
  for (std::size_t k = 0; k < fresh.goal_trajectory.size(); ++k)
    EXPECT_EQ(refilled.goal_trajectory[k], fresh.goal_trajectory[k]);
  EXPECT_EQ(refilled.expected_transmissions, fresh.expected_transmissions);
  EXPECT_EQ(refilled.expected_transmissions_per_hop,
            fresh.expected_transmissions_per_hop);
  EXPECT_EQ(refilled.expected_transmissions_delivered,
            fresh.expected_transmissions_delivered);
}

// Entry-for-entry equality of two cycle products (same sparsity, same
// bits).
void expect_same_product(const linalg::CsrMatrix& actual,
                         const linalg::CsrMatrix& expected) {
  ASSERT_EQ(actual.rows(), expected.rows());
  ASSERT_EQ(actual.nonzeros(), expected.nonzeros());
  for (std::size_t r = 0; r < expected.rows(); ++r) {
    std::vector<std::pair<std::size_t, double>> want;
    std::vector<std::pair<std::size_t, double>> got;
    expected.for_each_in_row(
        r, [&](std::size_t c, double v) { want.emplace_back(c, v); });
    actual.for_each_in_row(
        r, [&](std::size_t c, double v) { got.emplace_back(c, v); });
    EXPECT_EQ(got, want) << "row " << r;
  }
}

// A refilled cycle product (the skeleton's generic pattern at one lane)
// against a fresh one: every fresh entry appears with the same bits, and
// every entry the generic pattern adds (a ps of 0 or 1 drops it from a
// fresh build) holds exactly +0.0.
void expect_refilled_product(const markov::CsrPattern& pattern,
                             std::span<const double> values,
                             const linalg::CsrMatrix& expected) {
  ASSERT_EQ(pattern.rows, expected.rows());
  ASSERT_EQ(values.size(), pattern.nonzeros());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t r = 0; r < pattern.rows; ++r) {
    std::vector<std::pair<std::size_t, double>> want;
    expected.for_each_in_row(
        r, [&](std::size_t c, double v) { want.emplace_back(c, v); });
    std::size_t w = 0;
    for (std::size_t k = pattern.row_start[r]; k < pattern.row_start[r + 1];
         ++k) {
      const std::size_t c = pattern.col_index[k];
      if (w < want.size() && want[w].first == c) {
        EXPECT_EQ(bits(values[k]), bits(want[w].second))
            << "entry (" << r << ", " << c << ")";
        ++w;
      } else {
        EXPECT_EQ(bits(values[k]), bits(0.0))
            << "extra entry (" << r << ", " << c << ")";
      }
    }
    EXPECT_EQ(w, want.size()) << "row " << r << " lacks a fresh entry";
  }
}

// The fresh superframe solve collapses the opportunity factors; the
// verify/ full chain (identity slots included) must give the same cycle
// product bitwise.
void expect_opportunity_collapse_matches_full_chain(
    const PathModel& model, const LinkProbabilityProvider& links) {
  const markov::SuperframeKernel full(
      verify::full_chain_slot_matrices(model, links));
  ASSERT_EQ(full.period(), model.config().superframe.cycle_slots());
  const markov::SuperframeKernel collapsed(model.opportunity_matrices(links));
  expect_same_product(collapsed.cycle_product(), full.cycle_product());
}

void expect_refill_matches_fresh(const PathModelConfig& config,
                                 const std::vector<double>& availabilities) {
  const PathModel model(config);
  const PathModelSkeleton skeleton(config);
  const SteadyStateLinks links{availabilities};
  expect_opportunity_collapse_matches_full_chain(model, links);
  SolveWorkspace workspace;
  PathTransientResult refilled;
  for (const TransientKernel kernel :
       {TransientKernel::kPerSlot, TransientKernel::kSuperframeProduct}) {
    PathAnalysisOptions options;
    options.kernel = kernel;
    const PathTransientResult fresh = model.analyze(links, options);
    // Cold pass primes the workspace; the warm pass reuses it — both
    // must match the fresh build exactly.
    skeleton.analyze_into(links, options, workspace, refilled);
    expect_identical(fresh, refilled);
    skeleton.analyze_into(links, options, workspace, refilled);
    expect_identical(fresh, refilled);
  }
}

TEST(PathSkeleton, RefillMatchesFreshAcrossScenarioCorpus) {
  const verify::ScenarioGenerator generator;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const verify::Scenario scenario = generator.generate(seed);
    for (std::size_t p = 0; p < scenario.path_count(); ++p) {
      SCOPED_TRACE("path " + std::to_string(p));
      expect_refill_matches_fresh(scenario.path_config(p),
                                  scenario.hop_availabilities(p));
    }
  }
}

TEST(PathSkeleton, WarmWorkspaceSurvivesChangingAvailabilities) {
  PathModelConfig config;
  config.hop_slots = {2, 5, 7};
  config.superframe = net::SuperframeConfig::symmetric(9);
  config.reporting_interval = 4;
  const PathModel model(config);
  const PathModelSkeleton skeleton(config);
  SolveWorkspace workspace;  // shared across every point below
  PathTransientResult refilled;
  for (const TransientKernel kernel :
       {TransientKernel::kPerSlot, TransientKernel::kSuperframeProduct}) {
    PathAnalysisOptions options;
    options.kernel = kernel;
    for (const double availability : {0.55, 0.7, 0.83, 0.91, 0.99}) {
      const SteadyStateLinks links(config.hop_count(),
                                   link::LinkModel::from_availability(
                                       availability));
      skeleton.analyze_into(links, options, workspace, refilled);
      expect_identical(model.analyze(links, options), refilled);
    }
  }
}

std::uint64_t counter(const char* name) {
  const auto counters = common::obs::Registry::instance().snapshot().counters;
  const auto it = counters.find(name);
  return it == counters.end() ? std::uint64_t{0} : it->second;
}

TEST(PathSkeleton, DegenerateProbabilitiesRefillBitwiseEqual) {
  // ps of 0 or 1 drops an entry from a fresh build's factors; the
  // skeleton refills its generic pattern anyway.  The extra entries hold
  // +0.0 and add exact zeros, so the refill stays bitwise equal to the
  // fresh solve with no fallback.
  common::obs::set_metrics_enabled(true);
  const std::uint64_t fallbacks = counter("hart.skeleton.refill_fallback");
  PathModelConfig config;
  config.hop_slots = {1, 3};
  config.superframe = net::SuperframeConfig::symmetric(5);
  config.reporting_interval = 3;
  const PathModel model(config);
  const PathModelSkeleton skeleton(config);
  PathAnalysisOptions options;
  options.kernel = TransientKernel::kSuperframeProduct;
  for (const std::vector<double>& availabilities :
       {std::vector<double>{0.0, 0.7}, std::vector<double>{1.0, 1.0},
        std::vector<double>{0.8, 0.0}}) {
    SCOPED_TRACE(::testing::PrintToString(availabilities));
    expect_refill_matches_fresh(config, availabilities);
    const SteadyStateLinks links{availabilities};
    SolveWorkspace workspace;
    PathTransientResult refilled;
    skeleton.analyze_into(links, options, workspace, refilled);
    const markov::SuperframeKernel full(
        verify::full_chain_slot_matrices(model, links));
    expect_refilled_product(skeleton.chain().pattern(),
                            workspace.product_values, full.cycle_product());
  }
  EXPECT_EQ(counter("hart.skeleton.refill_fallback"), fallbacks);
}

TEST(PathSkeleton, FingerprintIgnoresAvailabilitiesButNotShape) {
  PathModelConfig config;
  config.hop_slots = {1, 2, 4};
  config.superframe = net::SuperframeConfig::symmetric(6);
  config.reporting_interval = 3;

  const std::string shape = PathAnalysisCache::skeleton_fingerprint(
      config, TransientKernel::kSuperframeProduct);

  // Same shape, any availabilities: the skeleton part is identical.
  EXPECT_EQ(shape, PathAnalysisCache::skeleton_fingerprint(
                       config, TransientKernel::kSuperframeProduct));

  // The kernel is part of the shape (kernels agree only to rounding).
  EXPECT_NE(shape, PathAnalysisCache::skeleton_fingerprint(
                       config, TransientKernel::kPerSlot));

  // Any symbolic-phase input changes it.
  PathModelConfig other = config;
  other.reporting_interval = 4;
  EXPECT_NE(shape, PathAnalysisCache::skeleton_fingerprint(
                       other, TransientKernel::kSuperframeProduct));
  other = config;
  other.hop_slots = {1, 2, 5};
  EXPECT_NE(shape, PathAnalysisCache::skeleton_fingerprint(
                       other, TransientKernel::kSuperframeProduct));
  other = config;
  other.superframe = net::SuperframeConfig::symmetric(7);
  EXPECT_NE(shape, PathAnalysisCache::skeleton_fingerprint(
                       other, TransientKernel::kSuperframeProduct));
  other = config;
  other.ttl = 10;
  EXPECT_NE(shape, PathAnalysisCache::skeleton_fingerprint(
                       other, TransientKernel::kSuperframeProduct));
}

TEST(PathSkeleton, ValueFingerprintExtendsSkeletonFingerprint) {
  // hop_slots starting at 1 are already canonical, so the full value
  // fingerprint must begin with the shape-only prefix and differ only in
  // the appended availability bits.
  PathModelConfig config;
  config.hop_slots = {1, 2, 3};
  config.superframe = net::SuperframeConfig::symmetric(5);
  config.reporting_interval = 2;
  const std::string shape = PathAnalysisCache::skeleton_fingerprint(
      config, TransientKernel::kPerSlot);
  const std::string low = PathAnalysisCache::fingerprint(
      config, {0.7, 0.8, 0.9}, TransientKernel::kPerSlot);
  const std::string high = PathAnalysisCache::fingerprint(
      config, {0.9, 0.9, 0.9}, TransientKernel::kPerSlot);
  ASSERT_GT(low.size(), shape.size());
  EXPECT_EQ(low.substr(0, shape.size()), shape);
  EXPECT_EQ(high.substr(0, shape.size()), shape);
  EXPECT_NE(low, high);  // availabilities live in the value part
}

/// Transmission opportunities of a config: its hops plus its nonzero
/// retry slots.
std::size_t opportunity_count(const PathModelConfig& config) {
  std::size_t count = config.hop_count();
  for (const net::SlotNumber s : config.retry_slots) count += s != 0;
  return count;
}

void expect_one_factor_per_opportunity(const PathModelConfig& config) {
  const PathModelSkeleton skeleton(config);
  const std::size_t expected = opportunity_count(config);
  EXPECT_EQ(skeleton.chain().factor_count(), expected);
  EXPECT_EQ(skeleton.factor_patterns().size(), expected);
  ASSERT_EQ(skeleton.provenance().size(), expected);
  ASSERT_EQ(skeleton.model().opportunities().size(), expected);
  for (std::size_t i = 0; i < expected; ++i) {
    const PathModel::Opportunity& o = skeleton.model().opportunities()[i];
    EXPECT_EQ(skeleton.provenance()[i].slot, o.slot);
    EXPECT_EQ(skeleton.provenance()[i].hop, o.hop);
    // Each opportunity is its hop's dedicated or retry slot.
    EXPECT_TRUE(o.slot == config.hop_slots[o.hop] ||
                (!config.retry_slots.empty() &&
                 o.slot == config.retry_slots[o.hop]));
    if (i > 0) {
      EXPECT_LT(skeleton.model().opportunities()[i - 1].slot, o.slot);
    }
  }
}

TEST(PathSkeleton, ChainHasOneFactorPerTransmissionOpportunity) {
  // The identity slots of a cycle are not chain factors: the skeleton's
  // cost tracks transmissions, not Fup + Fdown.
  PathModelConfig config;
  config.hop_slots = {2, 5, 7};
  config.superframe = net::SuperframeConfig::symmetric(9);
  config.reporting_interval = 4;
  expect_one_factor_per_opportunity(config);

  config.retry_slots = {4, 0, 9};  // two retries, one hop without
  expect_one_factor_per_opportunity(config);

  // The 200-device plant's frame: 780 slots per cycle, 3 factors.
  config = PathModelConfig{};
  config.hop_slots = {17, 203, 388};
  config.superframe = net::SuperframeConfig::symmetric(390);
  config.reporting_interval = 4;
  expect_one_factor_per_opportunity(config);
}

TEST(PathSkeleton, GeneratedPlantChainsTrackHopsNotFrameLength) {
  net::PlantProfile profile;
  profile.device_count = 200;
  profile.seed = 2;
  const net::GeneratedPlant plant = net::generate_plant(profile);
  ASSERT_GT(plant.superframe.cycle_slots(), 100u);
  for (std::size_t p = 0; p < plant.paths.size(); ++p) {
    SCOPED_TRACE("path " + std::to_string(p));
    const PathModelConfig config =
        PathModelConfig::from_schedule(plant.schedule, p, plant.superframe, 4);
    const PathModelSkeleton skeleton(config);
    EXPECT_EQ(skeleton.chain().factor_count(), config.hop_count());
  }
}

/// Refill vs fresh on one explicit shape, plus the product itself: the
/// skeleton's opportunity-only chain against SuperframeKernel's full
/// Fup + Fdown chain, entry for entry.
void expect_explicit_case(const PathModelConfig& config,
                          const std::vector<double>& availabilities) {
  expect_refill_matches_fresh(config, availabilities);
  const PathModel model(config);
  const PathModelSkeleton skeleton(config);
  const SteadyStateLinks links{availabilities};
  PathAnalysisOptions options;
  options.kernel = TransientKernel::kSuperframeProduct;
  SolveWorkspace workspace;
  PathTransientResult refilled;
  skeleton.analyze_into(links, options, workspace, refilled);
  const markov::SuperframeKernel kernel(
      verify::full_chain_slot_matrices(model, links));
  ASSERT_EQ(kernel.period(), config.superframe.cycle_slots());
  // No degenerate probability here, so the patterns agree exactly.
  ASSERT_EQ(skeleton.chain().pattern().nonzeros(),
            kernel.cycle_product().nonzeros());
  expect_refilled_product(skeleton.chain().pattern(), workspace.product_values,
                          kernel.cycle_product());
}

TEST(PathSkeleton, OpportunityChainRefillMatchesFullChainOnExplicitShapes) {
  PathModelConfig config;
  {
    SCOPED_TRACE("out-of-order hops");
    config.hop_slots = {6, 2, 4};
    config.superframe = net::SuperframeConfig::symmetric(7);
    config.reporting_interval = 3;
    expect_explicit_case(config, {0.81, 0.67, 0.93});
  }
  {
    SCOPED_TRACE("retry slots");
    config = PathModelConfig{};
    config.hop_slots = {1, 4, 6};
    config.retry_slots = {3, 0, 8};
    config.superframe = net::SuperframeConfig::symmetric(8);
    config.reporting_interval = 3;
    expect_explicit_case(config, {0.6, 0.75, 0.9});
  }
  {
    SCOPED_TRACE("TTL cuts a cycle between opportunities");
    config = PathModelConfig{};
    config.hop_slots = {2, 5, 7};
    config.retry_slots = {0, 6, 0};
    config.superframe = net::SuperframeConfig::symmetric(9);
    config.reporting_interval = 4;
    config.ttl = 2 * 9 + 5;  // the third cycle ends after slot 5
    expect_explicit_case(config, {0.7, 0.8, 0.65});
    config.ttl = 2 * 9;  // exactly at a cycle boundary
    expect_explicit_case(config, {0.7, 0.8, 0.65});
    config.ttl = 1;  // before any opportunity fires
    expect_explicit_case(config, {0.7, 0.8, 0.65});
  }
  {
    SCOPED_TRACE("Fup = 1");
    config = PathModelConfig{};
    config.hop_slots = {1};
    config.superframe = net::SuperframeConfig::symmetric(1);
    config.reporting_interval = 5;
    expect_explicit_case(config, {0.55});
  }
  {
    SCOPED_TRACE("Fdown = 0");
    config = PathModelConfig{};
    config.hop_slots = {2, 3, 5};
    config.superframe = net::SuperframeConfig{6, 0};
    config.reporting_interval = 3;
    expect_explicit_case(config, {0.9, 0.72, 0.84});
  }
}

TEST(PathSkeleton, StaleInjectionBreaksBitwiseEquality) {
  // The stale-skeleton-value fault must actually perturb the refill —
  // otherwise the oracle's fifth leg (and its WILL_FAIL self-test)
  // verifies nothing.
  PathModelConfig config;
  config.hop_slots = {1, 2, 3};
  config.superframe = net::SuperframeConfig::symmetric(5);
  config.reporting_interval = 3;
  const PathModel model(config);
  const PathModelSkeleton skeleton(config);
  const SteadyStateLinks links{std::vector<double>{0.8, 0.85, 0.9}};
  PathAnalysisOptions options;
  options.kernel = TransientKernel::kSuperframeProduct;
  const PathTransientResult fresh = model.analyze(links, options);

  PathAnalysisOptions stale = options;
  stale.inject_stale_skeleton = 1e-6;
  SolveWorkspace workspace;
  PathTransientResult refilled;
  skeleton.analyze_into(links, stale, workspace, refilled);
  EXPECT_NE(fresh.cycle_probabilities, refilled.cycle_probabilities);
}

}  // namespace
}  // namespace whart::hart
