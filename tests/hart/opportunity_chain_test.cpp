// A path's firing table and the reuse of its solve storage (DESIGN.md
// §11, §12).  The table holds one entry per transmission opportunity,
// never one per slot of the frame.  PathModel::analyze_into refills a
// warm workspace and result in place and must reproduce a fresh
// PathModel::analyze bit for bit — on cold and warm workspaces, across a
// generated scenario corpus, with degenerate (0 or 1) firing
// probabilities, and over a batch of grid points walked one after
// another through one workspace, as a pooled sweep walks them.  On
// explicit shapes the walk is also held to verify::reference_solve, the
// dense solver of the full unrolled chain.
//
// The PathSkeleton and BatchSolve suites keep the names they had when a
// separate skeleton refilled a cycle-product collapse and solved batches
// of lanes, so their test ids stay stable.
#include "whart/hart/path_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "whart/hart/link_probability.hpp"
#include "whart/net/plant_generator.hpp"
#include "whart/net/superframe.hpp"
#include "whart/verify/reference_solver.hpp"
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
  EXPECT_EQ(refilled.diagnostics, fresh.diagnostics);
}

void expect_refill_matches_fresh(const PathModelConfig& config,
                                 const std::vector<double>& availabilities) {
  const PathModel model(config);
  const SteadyStateLinks links{availabilities};
  const PathTransientResult fresh = model.analyze(links);
  SolveWorkspace workspace;
  PathTransientResult refilled;
  // Cold pass primes the workspace; the warm pass reuses it — both must
  // match the fresh solve exactly.
  model.analyze_into(links, PathAnalysisOptions{}, workspace, refilled);
  expect_identical(fresh, refilled);
  model.analyze_into(links, PathAnalysisOptions{}, workspace, refilled);
  expect_identical(fresh, refilled);
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
  for (const double availability : {0.55, 0.7, 0.83, 0.91, 0.99}) {
    const SteadyStateLinks links(config.hop_count(),
                                 link::LinkModel::from_availability(
                                     availability));
    model.analyze_into(links, PathAnalysisOptions{}, workspace, refilled);
    expect_identical(model.analyze(links), refilled);
  }
}

TEST(PathSkeleton, DegenerateProbabilitiesRefillBitwiseEqual) {
  // ps of 0 or 1 makes a firing deterministic; a warm refill still
  // equals a fresh solve.
  PathModelConfig config;
  config.hop_slots = {1, 3};
  config.superframe = net::SuperframeConfig::symmetric(5);
  config.reporting_interval = 3;
  for (const std::vector<double>& availabilities :
       {std::vector<double>{0.0, 0.7}, std::vector<double>{1.0, 1.0},
        std::vector<double>{0.8, 0.0}}) {
    SCOPED_TRACE(::testing::PrintToString(availabilities));
    expect_refill_matches_fresh(config, availabilities);
  }
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
  const std::size_t expected = opportunity_count(config);
  ASSERT_EQ(model.opportunities().size(), expected);
  for (std::size_t i = 0; i < expected; ++i) {
    const PathModel::Opportunity& o = model.opportunities()[i];
    // Each opportunity is its hop's dedicated or retry slot, in slot
    // order.
    EXPECT_TRUE(o.slot == config.hop_slots[o.hop] ||
                (!config.retry_slots.empty() &&
                 o.slot == config.retry_slots[o.hop]));
    if (i > 0) {
      EXPECT_LT(model.opportunities()[i - 1].slot, o.slot);
    }
  }
}

TEST(PathSkeleton, ChainHasOneFactorPerTransmissionOpportunity) {
  // The idle slots of a cycle are not in the table: the walk's cost
  // tracks transmissions, not Fup + Fdown.
  PathModelConfig config;
  config.hop_slots = {2, 5, 7};
  config.superframe = net::SuperframeConfig::symmetric(9);
  config.reporting_interval = 4;
  expect_one_factor_per_opportunity(config);

  config.retry_slots = {4, 0, 9};  // two retries, one hop without
  expect_one_factor_per_opportunity(config);

  // The 200-device plant's frame: 780 slots per cycle, 3 opportunities.
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
    // The walk records one delivery per firing of the last hop: one per
    // cycle, whatever the frame length.
    EXPECT_EQ(model.analyze(links).deliveries.size(),
              std::size_t{config.reporting_interval});
  }
}

/// Refill vs fresh on one explicit shape, plus the walk against the
/// dense reference solver of the full Fup + Fdown chain.
void expect_explicit_case(const PathModelConfig& config,
                          const std::vector<double>& availabilities) {
  expect_refill_matches_fresh(config, availabilities);
  const PathTransientResult walked =
      PathModel(config).analyze(SteadyStateLinks{availabilities});
  const verify::ReferenceResult reference =
      verify::reference_solve(config, availabilities);
  const auto expect_close = [](double got, double want, const char* what) {
    EXPECT_LE(std::abs(got - want),
              1e-12 * std::max({1.0, std::abs(got), std::abs(want)}))
        << what << ": walk " << got << " vs reference " << want;
  };
  ASSERT_EQ(walked.cycle_probabilities.size(),
            reference.cycle_probabilities.size());
  for (std::size_t i = 0; i < reference.cycle_probabilities.size(); ++i)
    expect_close(walked.cycle_probabilities[i],
                 reference.cycle_probabilities[i], "g(i)");
  expect_close(walked.discard_probability, reference.discard_probability,
               "discard");
  expect_close(walked.expected_transmissions,
               reference.expected_transmissions, "transmissions");
  expect_close(walked.expected_transmissions_delivered,
               reference.expected_transmissions_delivered,
               "delivered transmissions");
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
  SolveWorkspace workspace;
  PathTransientResult batched;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t l = 0; l < lane_availabilities.size(); ++l) {
      SCOPED_TRACE("pass " + std::to_string(pass) + " lane " +
                   std::to_string(l));
      const SteadyStateLinks links{lane_availabilities[l]};
      model.analyze_into(links, PathAnalysisOptions{}, workspace, batched);
      expect_identical(model.analyze(links), batched);
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
