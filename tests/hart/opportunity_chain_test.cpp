// A path's opportunity chain and the reuse of its solve storage
// (DESIGN.md §11, §12).  The chain has one factor per transmission
// opportunity, never one per slot of the frame, and collapsed through
// markov::SuperframeKernel it gives the full Fup + Fdown slot chain's
// cycle product bit for bit.  PathModel::analyze_into refills a warm
// workspace and result in place and must reproduce a fresh
// PathModel::analyze bit for bit — for both kernels, on cold and warm
// workspaces, across a generated scenario corpus, with degenerate (0 or
// 1) firing probabilities, and over a batch of grid points walked one
// after another through one workspace, as a pooled sweep walks them.
//
// The PathSkeleton and BatchSolve suites keep the names they had when a
// separate skeleton refilled the collapse and solved batches of lanes,
// so their test ids stay stable.
#include "whart/hart/path_model.hpp"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "whart/common/obs.hpp"
#include "whart/hart/link_probability.hpp"
#include "whart/markov/superframe_kernel.hpp"
#include "whart/net/plant_generator.hpp"
#include "whart/net/superframe.hpp"
#include "whart/verify/full_chain.hpp"
#include "whart/verify/scenario.hpp"

namespace whart::hart {
namespace {

// Exact (==, not approximate) comparison: a refill reuses storage, never
// arithmetic, so any rounding difference is a bug.
void expect_identical(const PathTransientResult& fresh,
                      const PathTransientResult& refilled) {
  EXPECT_EQ(refilled.cycle_probabilities, fresh.cycle_probabilities);
  EXPECT_EQ(refilled.discard_probability, fresh.discard_probability);
  ASSERT_EQ(refilled.deliveries.size(), fresh.deliveries.size());
  for (std::size_t k = 0; k < fresh.deliveries.size(); ++k) {
    EXPECT_EQ(refilled.deliveries[k].slot, fresh.deliveries[k].slot);
    EXPECT_EQ(refilled.deliveries[k].cycle, fresh.deliveries[k].cycle);
    EXPECT_EQ(refilled.deliveries[k].mass, fresh.deliveries[k].mass);
  }
  EXPECT_EQ(refilled.expected_transmissions, fresh.expected_transmissions);
  EXPECT_EQ(refilled.expected_transmissions_per_hop,
            fresh.expected_transmissions_per_hop);
  EXPECT_EQ(refilled.expected_transmissions_delivered,
            fresh.expected_transmissions_delivered);
  EXPECT_EQ(refilled.diagnostics.kernel, fresh.diagnostics.kernel);
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

// The collapse folds only the opportunity factors; the verify/ full
// chain (identity slots included) must give the same cycle product
// bitwise.
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
    // must match the fresh solve exactly.
    model.analyze_into(links, options, workspace, refilled);
    expect_identical(fresh, refilled);
    model.analyze_into(links, options, workspace, refilled);
    expect_identical(fresh, refilled);
  }
}

std::uint64_t counter(const char* name) {
  const auto counters = common::obs::Registry::instance().snapshot().counters;
  const auto it = counters.find(name);
  return it == counters.end() ? std::uint64_t{0} : it->second;
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
      model.analyze_into(links, options, workspace, refilled);
      expect_identical(model.analyze(links, options), refilled);
    }
  }
}

TEST(PathSkeleton, DegenerateProbabilitiesRefillBitwiseEqual) {
  // ps of 0 or 1 drops an entry from the opportunity factors; the
  // collapse still equals the full chain bitwise, a warm refill still
  // equals a fresh solve, and the collapse never falls back to the walk
  // for it.
  common::obs::set_metrics_enabled(true);
  const std::uint64_t fallbacks = counter("hart.path_solve.kernel_fallback");
  PathModelConfig config;
  config.hop_slots = {1, 3};
  config.superframe = net::SuperframeConfig::symmetric(5);
  config.reporting_interval = 3;
  for (const std::vector<double>& availabilities :
       {std::vector<double>{0.0, 0.7}, std::vector<double>{1.0, 1.0},
        std::vector<double>{0.8, 0.0}}) {
    SCOPED_TRACE(::testing::PrintToString(availabilities));
    expect_refill_matches_fresh(config, availabilities);
    PathAnalysisOptions options;
    options.kernel = TransientKernel::kSuperframeProduct;
    const PathTransientResult collapsed =
        PathModel(config).analyze(SteadyStateLinks{availabilities}, options);
    EXPECT_EQ(collapsed.diagnostics.kernel,
              TransientKernel::kSuperframeProduct);
  }
  EXPECT_EQ(counter("hart.path_solve.kernel_fallback"), fallbacks);
}

/// Transmission opportunities of a config: its hops plus its nonzero
/// retry slots.
std::size_t opportunity_count(const PathModelConfig& config) {
  std::size_t count = config.hop_count();
  for (const net::SlotNumber s : config.retry_slots) count += s != 0;
  return count;
}

void expect_one_factor_per_opportunity(const PathModelConfig& config) {
  const PathModel model(config);
  const SteadyStateLinks links(config.hop_count(),
                               link::LinkModel::from_availability(0.8));
  const std::size_t expected = opportunity_count(config);
  const std::vector<linalg::CsrMatrix> factors =
      model.opportunity_matrices(links);
  ASSERT_EQ(factors.size(), expected);
  ASSERT_EQ(model.opportunities().size(), expected);
  for (std::size_t i = 0; i < expected; ++i) {
    const PathModel::Opportunity& o = model.opportunities()[i];
    // Each opportunity is its hop's dedicated or retry slot...
    EXPECT_TRUE(o.slot == config.hop_slots[o.hop] ||
                (!config.retry_slots.empty() &&
                 o.slot == config.retry_slots[o.hop]));
    if (i > 0) {
      EXPECT_LT(model.opportunities()[i - 1].slot, o.slot);
    }
    // ...and its factor moves that hop's mass alone: every other row is
    // the identity.
    for (std::size_t r = 0; r < factors[i].rows(); ++r) {
      if (r == o.hop) continue;
      std::vector<std::pair<std::size_t, double>> row;
      factors[i].for_each_in_row(
          r, [&](std::size_t c, double v) { row.emplace_back(c, v); });
      EXPECT_EQ(row, (std::vector<std::pair<std::size_t, double>>{{r, 1.0}}))
          << "factor " << i << " row " << r;
    }
  }
}

TEST(PathSkeleton, ChainHasOneFactorPerTransmissionOpportunity) {
  // The identity slots of a cycle are not chain factors: the chain's
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
    const PathModel model(config);
    const SteadyStateLinks links(plant.paths[p].hop_models(plant.network));
    EXPECT_EQ(model.opportunities().size(), config.hop_count());
    EXPECT_EQ(model.opportunity_matrices(links).size(), config.hop_count());
    // The walk records one delivery per firing of the last hop: one per
    // cycle, whatever the frame length.
    EXPECT_EQ(model.analyze(links).deliveries.size(),
              std::size_t{config.reporting_interval});
  }
}

/// Refill vs fresh on one explicit shape, plus the product itself: the
/// collapsed opportunity-only chain against SuperframeKernel's full
/// Fup + Fdown chain, entry for entry.
void expect_explicit_case(const PathModelConfig& config,
                          const std::vector<double>& availabilities) {
  expect_refill_matches_fresh(config, availabilities);
  const PathModel model(config);
  const SteadyStateLinks links{availabilities};
  const markov::SuperframeKernel full(
      verify::full_chain_slot_matrices(model, links));
  ASSERT_EQ(full.period(), config.superframe.cycle_slots());
  const markov::SuperframeKernel collapsed(model.opportunity_matrices(links));
  expect_same_product(collapsed.cycle_product(), full.cycle_product());
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

// Walk `lane_availabilities` as one batch — each point in turn through
// one shared workspace and result, twice — and check every point against
// its own fresh solve.
void expect_batch_solve_matches_scalar(
    const PathModelConfig& config,
    const std::vector<std::vector<double>>& lane_availabilities) {
  const PathModel model(config);
  for (const TransientKernel kernel :
       {TransientKernel::kPerSlot, TransientKernel::kSuperframeProduct}) {
    PathAnalysisOptions options;
    options.kernel = kernel;
    SolveWorkspace workspace;
    PathTransientResult batched;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t l = 0; l < lane_availabilities.size(); ++l) {
        SCOPED_TRACE("pass " + std::to_string(pass) + " lane " +
                     std::to_string(l));
        const SteadyStateLinks links{lane_availabilities[l]};
        model.analyze_into(links, options, workspace, batched);
        expect_identical(model.analyze(links, options), batched);
      }
    }
  }
}

// Deform base availabilities into `lanes` distinct points, all strictly
// inside (0, 1).
std::vector<std::vector<double>> deformed_lanes(
    const std::vector<double>& base, std::size_t lanes) {
  std::vector<std::vector<double>> out;
  out.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<double> lane = base;
    const double blend = 0.08 * static_cast<double>(l);
    for (double& a : lane)
      a = a * (1.0 - blend) + 0.5 * blend + 0.001 * static_cast<double>(l);
    out.push_back(std::move(lane));
  }
  return out;
}

TEST(BatchSolve, EveryLaneMatchesScalarAcrossScenarioCorpus) {
  const verify::ScenarioGenerator generator;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const verify::Scenario scenario = generator.generate(seed);
    for (std::size_t p = 0; p < scenario.path_count(); ++p) {
      SCOPED_TRACE("path " + std::to_string(p));
      expect_batch_solve_matches_scalar(
          scenario.path_config(p),
          deformed_lanes(scenario.hop_availabilities(p), 4));
    }
  }
}

PathModelConfig three_hop_config() {
  PathModelConfig config;
  config.hop_slots = {2, 5, 7};
  config.superframe = net::SuperframeConfig::symmetric(9);
  config.reporting_interval = 4;
  return config;
}

TEST(BatchSolve, SingleLaneBatchMatchesScalar) {
  expect_batch_solve_matches_scalar(three_hop_config(),
                                    deformed_lanes({0.7, 0.85, 0.9}, 1));
}

TEST(BatchSolve, TtlCutBatchesMatchScalar) {
  PathModelConfig config = three_hop_config();
  config.ttl = 14;  // cuts the horizon mid-cycle
  expect_batch_solve_matches_scalar(config,
                                    deformed_lanes({0.6, 0.8, 0.95}, 5));
}

TEST(BatchSolve, OneSlotFrameBatchesMatchScalar) {
  PathModelConfig config;
  config.hop_slots = {1};
  config.superframe = net::SuperframeConfig::symmetric(1);
  config.reporting_interval = 3;
  expect_batch_solve_matches_scalar(config, deformed_lanes({0.75}, 4));
}

}  // namespace
}  // namespace whart::hart
