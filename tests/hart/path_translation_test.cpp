// Translation of a path's schedule within the frame.  Shifting every
// transmission opportunity (hop and retry slots) by the same offset
// leaves the path's solve unchanged bit for bit — the same firings in the
// same order with the same probabilities — and moves only its delays,
// which follow the gateway slot.  A TTL is absolute, so it translates
// only when it moves with the chain, and a missing retry slot (0) is no
// opportunity at all.
//
// The suite keeps the PathAnalysisCache name from when these properties
// keyed a per-call solve cache, so its test ids stay stable.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"
#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_analysis.hpp"
#include "whart/hart/path_model.hpp"

namespace whart::hart {
namespace {

PathModelConfig config_with_slots(std::vector<net::SlotNumber> slots,
                                  std::uint32_t fup = 20,
                                  std::uint32_t is = 4) {
  PathModelConfig config;
  config.hop_slots = std::move(slots);
  config.superframe = net::SuperframeConfig::symmetric(fup);
  config.reporting_interval = is;
  return config;
}

PathTransientResult solve(const PathModelConfig& config,
                          const std::vector<double>& availability) {
  return PathModel(config).analyze(SteadyStateLinks(availability));
}

PathMeasures measures(const PathModelConfig& config,
                      const std::vector<double>& availability) {
  return compute_path_measures(PathModel(config),
                               SteadyStateLinks(availability));
}

/// Two solves are one solve `offset` slots apart: every number is
/// bitwise equal and every delivery sits `offset` slots later.
void expect_translated(const PathTransientResult& base,
                       const PathTransientResult& shifted,
                       std::uint32_t offset) {
  EXPECT_EQ(shifted.cycle_probabilities, base.cycle_probabilities);
  EXPECT_EQ(shifted.discard_probability, base.discard_probability);
  EXPECT_EQ(shifted.expected_transmissions, base.expected_transmissions);
  EXPECT_EQ(shifted.expected_transmissions_per_hop,
            base.expected_transmissions_per_hop);
  EXPECT_EQ(shifted.expected_transmissions_delivered,
            base.expected_transmissions_delivered);
  ASSERT_EQ(shifted.deliveries.size(), base.deliveries.size());
  for (std::size_t k = 0; k < base.deliveries.size(); ++k) {
    EXPECT_EQ(shifted.deliveries[k].slot, base.deliveries[k].slot + offset);
    EXPECT_EQ(shifted.deliveries[k].cycle, base.deliveries[k].cycle);
    EXPECT_EQ(shifted.deliveries[k].mass, base.deliveries[k].mass);
  }
}

TEST(PathAnalysisCache, TranslatedConfigsShareOneSolve) {
  const std::vector<double> availability{0.9, 0.8};
  // Same relative layout, shifted by 0 / 4 / 17 slots.
  const PathTransientResult base = solve(config_with_slots({1, 2}),
                                         availability);
  expect_translated(base, solve(config_with_slots({5, 6}), availability), 4);
  expect_translated(base, solve(config_with_slots({18, 19}), availability),
                    17);
  // A different gap between the hops is a different solve.
  EXPECT_NE(solve(config_with_slots({1, 3}), availability).deliveries.front()
                .slot,
            base.deliveries.front().slot);
}

TEST(PathAnalysisCache, MidFrameTtlIsNotTranslated) {
  const std::vector<double> availability{0.9, 0.8};
  PathModelConfig late = config_with_slots({18, 19});
  late.ttl = 30;
  PathModelConfig early = config_with_slots({1, 2});
  early.ttl = 30;
  // With a mid-frame TTL the late chain gets fewer attempts than the
  // early one, so the two solves differ.
  const PathTransientResult late_solve = solve(late, availability);
  const PathTransientResult early_solve = solve(early, availability);
  EXPECT_NE(late_solve.cycle_probabilities, early_solve.cycle_probabilities);
  EXPECT_LT(late_solve.expected_transmissions,
            early_solve.expected_transmissions);
  EXPECT_LT(measures(late, availability).reachability,
            measures(early, availability).reachability);
  // Moved with the chain, the TTL translates too.
  late.ttl = 30 + 17;
  expect_translated(early_solve, solve(late, availability), 17);
}

TEST(PathAnalysisCache, DelaysFollowTheCallerGatewaySlot) {
  const std::vector<double> availability{0.9};
  const PathMeasures first = measures(config_with_slots({1}), availability);
  const PathMeasures shifted = measures(config_with_slots({7}), availability);
  // One solve...
  EXPECT_EQ(first.cycle_probabilities, shifted.cycle_probabilities);
  EXPECT_EQ(first.reachability, shifted.reachability);
  // ...but each path's delays use its own gateway slot.
  EXPECT_DOUBLE_EQ(first.delay_ms(0), 10.0);
  EXPECT_DOUBLE_EQ(shifted.delay_ms(0), 70.0);
  EXPECT_GT(shifted.expected_delay_ms, first.expected_delay_ms);
}

TEST(PathAnalysisCache, RetrySlotsTranslateWithTheChain) {
  const std::vector<double> availability{0.7, 0.7};
  PathModelConfig with_retry = config_with_slots({3, 5});
  with_retry.retry_slots = {4, 6};
  PathModelConfig shifted = config_with_slots({7, 9});
  shifted.retry_slots = {8, 10};
  expect_translated(solve(with_retry, availability),
                    solve(shifted, availability), 4);
  // A missing retry slot (0) is not a translatable opportunity: one
  // attempt fewer per cycle.
  PathModelConfig partial = config_with_slots({3, 5});
  partial.retry_slots = {4, 0};
  EXPECT_LT(measures(partial, availability).reachability,
            measures(with_retry, availability).reachability);
}

TEST(PathAnalysisCache, RejectsTooFewAvailabilities) {
  EXPECT_THROW((void)measures(config_with_slots({1, 2}), {0.9}),
               precondition_error);
}

}  // namespace
}  // namespace whart::hart
