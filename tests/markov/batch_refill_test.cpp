// The lane-equivalence battery of the SoA solve (DESIGN.md §13).  Two
// layers: (1) markov::BatchRefill against a fresh linalg::multiply chain
// on randomized matrix chains, every lane checked bitwise; (2)
// PathModelSkeleton::analyze_batch_into against each lane's own one-point
// analyze_into over the generated scenario corpus and the edge cases —
// single-lane batches, TTL cuts, one-slot frames, degenerate (ps 0/1)
// lanes that batch with the rest, and per-slot lanes that solve alone.
#include "whart/markov/batch_refill.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "whart/common/obs.hpp"
#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/linalg/sparse.hpp"
#include "whart/markov/structure.hpp"
#include "whart/numeric/rng.hpp"
#include "whart/verify/scenario.hpp"

namespace whart::markov {
namespace {

// --- Layer 1: the markov core on randomized chains ---------------------

// A random square CSR pattern with values: every row gets 1..3 entries
// (always the diagonal, so no factor annihilates the chain).
linalg::CsrMatrix random_factor(std::size_t dim, numeric::Xoshiro256& rng) {
  std::vector<linalg::Triplet> entries;
  for (std::size_t r = 0; r < dim; ++r) {
    entries.push_back({r, r, 0.25 + 0.5 * rng.uniform()});
    const std::size_t extra = rng.next() % 3;
    for (std::size_t e = 0; e < extra; ++e) {
      const std::size_t c = rng.next() % dim;
      if (c != r) entries.push_back({r, c, rng.uniform()});
    }
  }
  return linalg::CsrMatrix(dim, dim, std::move(entries));
}

// Same pattern as `base`, fresh values for lane `lane`.
linalg::CsrMatrix lane_variant(const linalg::CsrMatrix& base,
                               std::size_t lane) {
  const CsrPattern pattern = CsrPattern::of(base);
  std::vector<double> values(base.values().begin(), base.values().end());
  for (std::size_t k = 0; k < values.size(); ++k)
    values[k] = values[k] * (1.0 + 0.01 * static_cast<double>(lane)) +
                0.001 * static_cast<double>(lane + k % 3);
  return linalg::CsrMatrix::from_parts(pattern.rows, pattern.cols,
                                       pattern.row_start, pattern.col_index,
                                       std::move(values));
}

// Each lane's multiply/multiply-add sequence is linalg::multiply's, so
// every lane must equal a fresh chain build of its own factors bit for
// bit.
void expect_batch_matches_multiply_chain(std::size_t dim,
                                       std::size_t factor_count,
                                       std::size_t lanes,
                                       std::uint64_t seed) {
  numeric::Xoshiro256 rng(seed);
  std::vector<linalg::CsrMatrix> base;
  base.reserve(factor_count);
  for (std::size_t k = 0; k < factor_count; ++k)
    base.push_back(random_factor(dim, rng));

  std::vector<CsrPattern> patterns;
  patterns.reserve(factor_count);
  for (const linalg::CsrMatrix& factor : base)
    patterns.push_back(CsrPattern::of(factor));
  const ChainProductSkeleton chain(patterns);

  // Per-lane factor sets and their SoA transpose.
  std::vector<std::vector<linalg::CsrMatrix>> lane_factors(lanes);
  std::vector<std::vector<double>> soa(factor_count);
  for (std::size_t k = 0; k < factor_count; ++k)
    soa[k].resize(patterns[k].nonzeros() * lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    lane_factors[l].reserve(factor_count);
    for (std::size_t k = 0; k < factor_count; ++k) {
      lane_factors[l].push_back(lane_variant(base[k], l));
      const auto values = lane_factors[l].back().values();
      for (std::size_t e = 0; e < values.size(); ++e)
        soa[k][e * lanes + l] = values[e];
    }
  }

  BatchLaneArena arena;
  std::vector<double> batched(chain.pattern().nonzeros() * lanes);
  const BatchRefill batch(chain, patterns);
  batch.refill(soa, lanes, arena, std::span<double>(batched));
  // Warm second pass must be identical (arena reuse is value-clean).
  std::vector<double> warm(batched.size(), -1.0);
  batch.refill(soa, lanes, arena, std::span<double>(warm));
  EXPECT_EQ(batched, warm);

  for (std::size_t l = 0; l < lanes; ++l) {
    linalg::CsrMatrix product = lane_factors[l].front();
    for (std::size_t k = 1; k < factor_count; ++k)
      product = linalg::multiply(product, lane_factors[l][k]);
    ASSERT_EQ(CsrPattern::of(product), chain.pattern());
    const auto expected = product.values();
    for (std::size_t k = 0; k < expected.size(); ++k)
      EXPECT_EQ(batched[k * lanes + l], expected[k])
          << "entry " << k << " lane " << l;
  }
}

TEST(BatchRefill, LanesMatchScalarRefillOnRandomChains) {
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{7}}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    expect_batch_matches_multiply_chain(6, 4, lanes, 17 + lanes);
    expect_batch_matches_multiply_chain(7, 5, lanes, 900 + lanes);
    expect_batch_matches_multiply_chain(9, 7, lanes, 400 + lanes);
  }
}

TEST(BatchRefill, SingleFactorChainIsAPassthrough) {
  expect_batch_matches_multiply_chain(5, 1, 3, 7);
}

// --- Layer 2: the hart batch solve against one-point analyze_into ------

using hart::PathAnalysisOptions;
using hart::PathModel;
using hart::PathModelConfig;
using hart::PathModelSkeleton;
using hart::PathTransientResult;
using hart::SteadyStateLinks;
using hart::TransientKernel;

// A lane's arithmetic does not depend on the lane count, so a batched
// lane equals its one-point solve exactly.
void expect_lane_matches_scalar(const PathTransientResult& batched,
                                const PathTransientResult& scalar,
                                const std::string& lane) {
  SCOPED_TRACE(lane);
  EXPECT_EQ(batched.cycle_probabilities, scalar.cycle_probabilities);
  EXPECT_EQ(batched.discard_probability, scalar.discard_probability);
  EXPECT_EQ(batched.expected_transmissions, scalar.expected_transmissions);
  EXPECT_EQ(batched.expected_transmissions_delivered,
            scalar.expected_transmissions_delivered);
  EXPECT_EQ(batched.expected_transmissions_per_hop,
            scalar.expected_transmissions_per_hop);
  EXPECT_EQ(batched.trajectory_stride, scalar.trajectory_stride);
  EXPECT_EQ(batched.goal_trajectory, scalar.goal_trajectory);
}

// Solve `lane_availabilities` as one batch through a shared skeleton and
// check every lane against its own one-point solve.
void expect_batch_solve_matches_scalar(
    const PathModelConfig& config,
    const std::vector<std::vector<double>>& lane_availabilities) {
  const PathModelSkeleton skeleton(config);
  std::vector<SteadyStateLinks> links;
  links.reserve(lane_availabilities.size());
  for (const std::vector<double>& availabilities : lane_availabilities)
    links.emplace_back(availabilities);
  std::vector<const hart::LinkProbabilityProvider*> providers;
  providers.reserve(links.size());
  for (const SteadyStateLinks& provider : links)
    providers.push_back(&provider);

  PathAnalysisOptions options;
  options.kernel = TransientKernel::kSuperframeProduct;

  hart::SolveWorkspace workspace;
  std::vector<PathTransientResult> batched(links.size());
  skeleton.analyze_batch_into(providers, options, workspace, batched);
  // Warm pass through the same workspace must agree too.
  std::vector<PathTransientResult> warm(links.size());
  skeleton.analyze_batch_into(providers, options, workspace, warm);

  hart::SolveWorkspace scalar_ws;
  PathTransientResult scalar;
  for (std::size_t l = 0; l < links.size(); ++l) {
    skeleton.analyze_into(links[l], options, scalar_ws, scalar);
    expect_lane_matches_scalar(batched[l], scalar,
                               "lane " + std::to_string(l));
    expect_lane_matches_scalar(warm[l], scalar,
                               "warm lane " + std::to_string(l));
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

std::uint64_t counter(const char* name) {
  const auto counters = common::obs::Registry::instance().snapshot().counters;
  const auto it = counters.find(name);
  return it == counters.end() ? std::uint64_t{0} : it->second;
}

TEST(BatchSolve, DegenerateLanesFallBackInsideAMixedBatch) {
  // pfl of 0 or 1 leaves +0.0 in the generic pattern's entries a fresh
  // build would drop; those lanes batch with the rest — no lane solves
  // apart — and every lane still matches its one-point solve.
  common::obs::set_metrics_enabled(true);
  const std::uint64_t remainder_before = counter("hart.batch.remainder_points");
  const std::uint64_t filled_before = counter("hart.batch.lanes_filled");
  const std::vector<std::vector<double>> lanes = {
      {0.7, 0.85, 0.9},
      {0.0, 0.85, 0.9},  // dead hop
      {1.0, 1.0, 1.0},   // perfect links
      {0.72, 0.83, 0.88},
      {0.68, 0.8, 0.93}};
  const PathModelSkeleton skeleton(three_hop_config());
  std::vector<SteadyStateLinks> links;
  links.reserve(lanes.size());
  for (const std::vector<double>& availabilities : lanes)
    links.emplace_back(availabilities);
  std::vector<const hart::LinkProbabilityProvider*> providers;
  for (const SteadyStateLinks& provider : links) providers.push_back(&provider);
  PathAnalysisOptions options;
  options.kernel = TransientKernel::kSuperframeProduct;
  hart::SolveWorkspace workspace;
  std::vector<PathTransientResult> batched(lanes.size());
  skeleton.analyze_batch_into(providers, options, workspace, batched);
  EXPECT_EQ(counter("hart.batch.remainder_points"), remainder_before);
  EXPECT_EQ(counter("hart.batch.lanes_filled"), filled_before + lanes.size());
  expect_batch_solve_matches_scalar(three_hop_config(), lanes);
}

TEST(BatchSolve, PerSlotKernelFallsBackToScalarLanes) {
  // The per-slot kernel has no SoA core; analyze_batch_into must solve
  // every lane alone through the firing-table walk and still match.
  const PathModelConfig config = three_hop_config();
  const PathModelSkeleton skeleton(config);
  const std::vector<std::vector<double>> lanes =
      deformed_lanes({0.7, 0.85, 0.9}, 3);
  std::vector<SteadyStateLinks> links;
  links.reserve(lanes.size());
  for (const std::vector<double>& availabilities : lanes)
    links.emplace_back(availabilities);
  std::vector<const hart::LinkProbabilityProvider*> providers;
  providers.reserve(links.size());
  for (const SteadyStateLinks& provider : links)
    providers.push_back(&provider);

  PathAnalysisOptions options;
  options.kernel = TransientKernel::kPerSlot;
  hart::SolveWorkspace workspace;
  std::vector<PathTransientResult> batched(links.size());
  skeleton.analyze_batch_into(providers, options, workspace, batched);

  hart::SolveWorkspace scalar_ws;
  PathTransientResult scalar;
  for (std::size_t l = 0; l < links.size(); ++l) {
    skeleton.analyze_into(links[l], options, scalar_ws, scalar);
    expect_lane_matches_scalar(batched[l], scalar,
                               "lane " + std::to_string(l));
  }
}

TEST(BatchSolve, LaneSwapInjectionBreaksLaneEquivalence) {
  // The lane-swap fault must actually contaminate lanes — otherwise the
  // oracle's batch arm (and its WILL_FAIL self-test) verifies nothing.
  const PathModelConfig config = three_hop_config();
  const PathModelSkeleton skeleton(config);
  const std::vector<std::vector<double>> lanes =
      deformed_lanes({0.7, 0.85, 0.9}, 4);
  std::vector<SteadyStateLinks> links;
  links.reserve(lanes.size());
  for (const std::vector<double>& availabilities : lanes)
    links.emplace_back(availabilities);
  std::vector<const hart::LinkProbabilityProvider*> providers;
  providers.reserve(links.size());
  for (const SteadyStateLinks& provider : links)
    providers.push_back(&provider);

  PathAnalysisOptions options;
  options.kernel = TransientKernel::kSuperframeProduct;
  options.inject_lane_swap = true;
  hart::SolveWorkspace workspace;
  std::vector<PathTransientResult> swapped(links.size());
  skeleton.analyze_batch_into(providers, options, workspace, swapped);

  hart::SolveWorkspace scalar_ws;
  PathTransientResult scalar;
  skeleton.analyze_into(links[0], options, scalar_ws, scalar);
  EXPECT_NE(swapped[0].cycle_probabilities, scalar.cycle_probabilities);
}

}  // namespace
}  // namespace whart::markov
