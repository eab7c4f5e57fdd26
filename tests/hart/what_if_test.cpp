#include "whart/hart/what_if.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/hart/network_analysis.hpp"
#include "whart/hart/schedule_optimizer.hpp"
#include "whart/hart/sensitivity.hpp"
#include "whart/net/plant_generator.hpp"
#include "whart/net/schedule_builder.hpp"
#include "whart/net/typical_network.hpp"

namespace whart::hart {
namespace {

/// Relative agreement of two exact solvers (the oracle's bound).
void expect_rel(double a, double b, double tolerance,
                const char* what = "") {
  EXPECT_LE(std::abs(a - b),
            tolerance * std::max({1.0, std::abs(a), std::abs(b)}))
      << what << ": " << a << " vs " << b;
}

AnalysisOptions superframe_options() {
  AnalysisOptions options;
  options.kernel = TransientKernel::kSuperframeProduct;
  return options;
}

TEST(WhatIfEngine, BaselineMatchesAnalyzeNetwork) {
  const net::TypicalNetwork t = net::make_typical_network();
  const NetworkMeasures measures = analyze_network(
      t.network, t.paths, t.eta_a, t.superframe,
      net::kTypicalReportingInterval, superframe_options());
  WhatIfEngine engine(t.network, t.paths, t.eta_a, t.superframe,
                      net::kTypicalReportingInterval);
  ASSERT_EQ(engine.baseline().size(), t.paths.size());
  for (std::size_t p = 0; p < t.paths.size(); ++p) {
    EXPECT_DOUBLE_EQ(engine.baseline()[p].reachability,
                     measures.per_path[p].reachability);
    EXPECT_DOUBLE_EQ(engine.baseline()[p].expected_delay_ms,
                     measures.per_path[p].expected_delay_ms);
    EXPECT_DOUBLE_EQ(engine.baseline()[p].discard_probability,
                     measures.per_path[p].discard_probability);
  }
}

TEST(WhatIfEngine, EveryLinkWhatIfMatchesFreshReSolve) {
  const net::TypicalNetwork t = net::make_typical_network();
  WhatIfEngine engine(t.network, t.paths, t.eta_a, t.superframe,
                      net::kTypicalReportingInterval);
  for (const net::LinkId link : engine.links()) {
    // Move the link through an exact two-state model so the engine's
    // availability double and the fresh network's agree bitwise.
    const link::LinkModel upgraded(0.25, 0.75);  // availability 0.75 exact
    net::Network modified = t.network;
    modified.set_link_model(link, upgraded);
    const double availability = upgraded.steady_state_availability();

    const WhatIfResult result = engine.what_if(link, availability);
    const NetworkMeasures fresh = analyze_network(
        modified, t.paths, t.eta_a, t.superframe,
        net::kTypicalReportingInterval, superframe_options());
    ASSERT_EQ(result.per_path.size(), t.paths.size());
    EXPECT_EQ(result.paths_resolved + result.paths_reused, t.paths.size());
    EXPECT_EQ(result.paths_resolved, engine.paths_using(link));
    for (std::size_t p = 0; p < t.paths.size(); ++p) {
      expect_rel(result.per_path[p].reachability,
                 fresh.per_path[p].reachability, 1e-12, "reachability");
      expect_rel(result.per_path[p].expected_delay_ms,
                 fresh.per_path[p].expected_delay_ms, 1e-12, "delay");
      expect_rel(result.per_path[p].discard_probability,
                 fresh.per_path[p].discard_probability, 1e-12, "discard");
    }
  }
}

TEST(WhatIfEngine, UntouchedPathsAreReturnedBitwiseUntouched) {
  const net::TypicalNetwork t = net::make_typical_network();
  WhatIfEngine engine(t.network, t.paths, t.eta_a, t.superframe,
                      net::kTypicalReportingInterval);
  // A leaf link: exactly one path uses it, every other path must come
  // back as the cached baseline object, bit for bit.
  net::LinkId leaf{0};
  for (const net::LinkId link : engine.links())
    if (engine.paths_using(link) == 1) leaf = link;
  ASSERT_EQ(engine.paths_using(leaf), 1u);

  const WhatIfResult result = engine.what_if(leaf, 0.6);
  EXPECT_EQ(result.paths_resolved, 1u);
  EXPECT_EQ(result.paths_reused, t.paths.size() - 1);
  const std::span<const std::size_t> affected = engine.affected_paths(leaf);
  for (std::size_t p = 0; p < t.paths.size(); ++p) {
    if (std::find(affected.begin(), affected.end(), p) != affected.end())
      continue;
    EXPECT_EQ(result.per_path[p].reachability,
              engine.baseline()[p].reachability);
    EXPECT_EQ(result.per_path[p].expected_delay_ms,
              engine.baseline()[p].expected_delay_ms);
    EXPECT_EQ(result.per_path[p].expected_transmissions,
              engine.baseline()[p].expected_transmissions);
  }
}

TEST(WhatIfEngine, RepeatedQueriesAreStableAndRevertCleanly) {
  const net::TypicalNetwork t = net::make_typical_network();
  WhatIfEngine engine(t.network, t.paths, t.eta_a, t.superframe,
                      net::kTypicalReportingInterval);
  const net::LinkId link = engine.links().front();

  const WhatIfResult first = engine.what_if(link, 0.7);
  const WhatIfResult second = engine.what_if(link, 0.7);
  for (std::size_t p = 0; p < t.paths.size(); ++p) {
    EXPECT_EQ(first.per_path[p].reachability,
              second.per_path[p].reachability);
    EXPECT_EQ(first.per_path[p].expected_delay_ms,
              second.per_path[p].expected_delay_ms);
  }

  // A what-if back to the baseline availability reproduces the baseline.
  const WhatIfResult back =
      engine.what_if(link, engine.baseline_availability(link));
  for (std::size_t p = 0; p < t.paths.size(); ++p)
    EXPECT_DOUBLE_EQ(back.per_path[p].reachability,
                     engine.baseline()[p].reachability);
}

TEST(WhatIfEngine, PerSlotKernelFallbackAgreesWithIncremental) {
  const net::TypicalNetwork t = net::make_typical_network();
  WhatIfEngine incremental(t.network, t.paths, t.eta_a, t.superframe,
                           net::kTypicalReportingInterval);
  WhatIfOptions per_slot_options;
  per_slot_options.kernel = TransientKernel::kPerSlot;
  WhatIfEngine per_slot(t.network, t.paths, t.eta_a, t.superframe,
                        net::kTypicalReportingInterval, per_slot_options);
  const net::LinkId link = incremental.links()[2];
  const WhatIfResult a = incremental.what_if(link, 0.65);
  const WhatIfResult b = per_slot.what_if(link, 0.65);
  for (std::size_t p = 0; p < t.paths.size(); ++p) {
    expect_rel(a.per_path[p].reachability, b.per_path[p].reachability, 1e-9);
    expect_rel(a.per_path[p].expected_delay_ms,
               b.per_path[p].expected_delay_ms, 1e-9);
  }
}

TEST(WhatIfEngine, DegenerateBaselineLinkFallsBackToFreshSolves) {
  // A perfect link makes the firing probability degenerate at the
  // baseline.  The skeleton's generic pattern refills it like any other
  // value (the dropped entries hold +0.0), so seeding and the queries on
  // that path must still match fresh solves.
  net::TypicalNetwork t = net::make_typical_network();
  const net::LinkId perfect = net::LinkId{0};
  t.network.set_link_model(perfect, link::LinkModel(0.0, 0.9));
  WhatIfEngine engine(t.network, t.paths, t.eta_a, t.superframe,
                      net::kTypicalReportingInterval);
  const NetworkMeasures fresh_baseline = analyze_network(
      t.network, t.paths, t.eta_a, t.superframe,
      net::kTypicalReportingInterval, superframe_options());
  for (std::size_t p = 0; p < t.paths.size(); ++p)
    expect_rel(engine.baseline()[p].reachability,
               fresh_baseline.per_path[p].reachability, 1e-12);

  const link::LinkModel downgraded(0.5, 0.5);  // availability 0.5 exact
  net::Network modified = t.network;
  modified.set_link_model(perfect, downgraded);
  const WhatIfResult result =
      engine.what_if(perfect, downgraded.steady_state_availability());
  const NetworkMeasures fresh = analyze_network(
      modified, t.paths, t.eta_a, t.superframe,
      net::kTypicalReportingInterval, superframe_options());
  for (std::size_t p = 0; p < t.paths.size(); ++p)
    expect_rel(result.per_path[p].reachability,
               fresh.per_path[p].reachability, 1e-12);
}

TEST(WhatIfEngine, DegenerateWhatIfsStayIncremental) {
  // Moving a link to availability 0 or 1 makes its firing probabilities
  // degenerate.  Both queries replay the product incrementally — no
  // fallback — and agree with fresh solves of the modified network.
  common::obs::set_metrics_enabled(true);
  const auto count = [](const char* name) {
    const auto counters =
        common::obs::Registry::instance().snapshot().counters;
    const auto it = counters.find(name);
    return it == counters.end() ? std::uint64_t{0} : it->second;
  };
  const net::TypicalNetwork t = net::make_typical_network();
  WhatIfEngine engine(t.network, t.paths, t.eta_a, t.superframe,
                      net::kTypicalReportingInterval);
  const auto single = std::find_if(
      engine.links().begin(), engine.links().end(),
      [&](net::LinkId link) { return engine.paths_using(link) == 1; });
  ASSERT_NE(single, engine.links().end());
  const net::LinkId link = *single;
  for (const link::LinkModel& model :
       {link::LinkModel(1.0, 0.0), link::LinkModel(0.0, 1.0)}) {
    const double availability = model.steady_state_availability();
    SCOPED_TRACE(availability);
    const std::uint64_t solves = count("hart.whatif.incremental_solves");
    const std::uint64_t fallbacks = count("hart.whatif.incremental_fallback");
    const WhatIfResult result = engine.what_if(link, availability);
    EXPECT_EQ(count("hart.whatif.incremental_solves"), solves + 1);
    EXPECT_EQ(count("hart.whatif.incremental_fallback"), fallbacks);
    net::Network modified = t.network;
    modified.set_link_model(link, model);
    const NetworkMeasures fresh = analyze_network(
        modified, t.paths, t.eta_a, t.superframe,
        net::kTypicalReportingInterval, superframe_options());
    for (std::size_t p = 0; p < t.paths.size(); ++p) {
      expect_rel(result.per_path[p].reachability,
                 fresh.per_path[p].reachability, 1e-12, "reachability");
      expect_rel(result.per_path[p].expected_delay_ms,
                 fresh.per_path[p].expected_delay_ms, 1e-12, "delay");
      expect_rel(result.per_path[p].discard_probability,
                 fresh.per_path[p].discard_probability, 1e-12, "discard");
    }
  }
}

TEST(WhatIfEngine, DeltaMatchesTheFullQuery) {
  const net::TypicalNetwork t = net::make_typical_network();
  WhatIfEngine engine(t.network, t.paths, t.eta_a, t.superframe,
                      net::kTypicalReportingInterval);
  for (const net::LinkId link : engine.links()) {
    const WhatIfDelta delta = engine.what_if_delta(link, 0.7);
    const WhatIfResult full = engine.what_if(link, 0.7);
    double reach_delta = 0.0;
    for (const std::size_t p : engine.affected_paths(link))
      reach_delta += full.per_path[p].reachability -
                     engine.baseline()[p].reachability;
    double worst = 0.0;
    for (const PathMeasures& m : full.per_path)
      worst = std::max(worst, m.expected_delay_ms);
    expect_rel(delta.reachability_delta, reach_delta, 1e-12);
    EXPECT_DOUBLE_EQ(delta.worst_expected_delay_ms, worst);
    EXPECT_EQ(delta.paths_resolved, full.paths_resolved);
  }
}

TEST(WhatIfEngine, WorstExpectedDelayOverloadMatchesFullScoring) {
  const net::TypicalNetwork t = net::make_typical_network();
  WhatIfEngine engine(t.network, t.paths, t.eta_a, t.superframe,
                      net::kTypicalReportingInterval);
  const net::LinkId link = engine.links()[3];
  const link::LinkModel moved(0.5, 0.5);  // availability 0.5 exact
  net::Network modified = t.network;
  modified.set_link_model(link, moved);

  const double incremental = worst_expected_delay(
      engine, link, moved.steady_state_availability());
  const double full = worst_expected_delay(
      modified, t.paths, t.eta_a, t.superframe,
      net::kTypicalReportingInterval, superframe_options());
  expect_rel(incremental, full, 1e-12);
}

TEST(WhatIfEngine, RejectsOutOfRangeAvailability) {
  const net::TypicalNetwork t = net::make_typical_network();
  WhatIfEngine engine(t.network, t.paths, t.eta_a, t.superframe,
                      net::kTypicalReportingInterval);
  EXPECT_THROW((void)engine.what_if(engine.links().front(), 1.5),
               precondition_error);
  EXPECT_THROW((void)engine.what_if_delta(engine.links().front(), -0.1),
               precondition_error);
}

TEST(WhatIfEngine, GeneratedPlantWhatIfsMatchFreshReSolves) {
  net::PlantProfile profile;
  profile.device_count = 50;
  profile.seed = 7;
  const net::GeneratedPlant plant = net::generate_plant(profile);
  WhatIfEngine engine(plant.network, plant.paths, plant.schedule,
                      plant.superframe, 4);
  const link::LinkModel moved(0.25, 0.75);  // availability 0.75 exact
  // Spot-check a spread of links (every link would be slow in debug).
  const std::vector<net::LinkId>& links = engine.links();
  for (std::size_t i = 0; i < links.size(); i += 7) {
    net::Network modified = plant.network;
    modified.set_link_model(links[i], moved);
    const WhatIfResult result =
        engine.what_if(links[i], moved.steady_state_availability());
    const NetworkMeasures fresh =
        analyze_network(modified, plant.paths, plant.schedule,
                        plant.superframe, 4, superframe_options());
    for (std::size_t p = 0; p < plant.paths.size(); ++p)
      expect_rel(result.per_path[p].reachability,
                 fresh.per_path[p].reachability, 1e-12);
  }
}

TEST(WhatIfEngine, PlantQueriesReplayRowsPerTransmissionNotPerSlot) {
  // The incremental chain has one factor per transmission opportunity,
  // so a propagate re-accumulates at most opportunities x (hops + 2)
  // partial rows — never a multiple of the plant's 780-slot cycle.  Each
  // re-solved path propagates twice per query: the what-if and its
  // revert.
  common::obs::set_metrics_enabled(true);
  const auto rows_replayed = [] {
    const auto counters =
        common::obs::Registry::instance().snapshot().counters;
    const auto it = counters.find("markov.incremental.rows_replayed");
    return it == counters.end() ? std::uint64_t{0} : it->second;
  };
  net::PlantProfile profile;
  profile.device_count = 200;
  profile.seed = 2;
  const net::GeneratedPlant plant = net::generate_plant(profile);
  WhatIfEngine engine(plant.network, plant.paths, plant.schedule,
                      plant.superframe, 4);
  std::vector<std::uint64_t> rows_per_propagate(plant.paths.size());
  for (std::size_t p = 0; p < plant.paths.size(); ++p) {
    const PathModel model(
        PathModelConfig::from_schedule(plant.schedule, p, plant.superframe, 4));
    rows_per_propagate[p] =
        model.opportunities().size() * (model.config().hop_count() + 2);
  }
  const std::vector<net::LinkId>& links = engine.links();
  for (std::size_t i = 0; i < links.size(); i += 5) {
    const std::uint64_t before = rows_replayed();
    (void)engine.what_if_delta(links[i], 0.75);
    std::uint64_t bound = 0;
    for (const std::size_t p : engine.affected_paths(links[i]))
      bound += 2 * rows_per_propagate[p];
    const std::uint64_t replayed = rows_replayed() - before;
    EXPECT_LE(replayed, bound) << "link index " << i;
    if (bound > 0) {
      EXPECT_GT(replayed, 0u) << "link index " << i;
    }
  }
}

TEST(EvaluateLinkUpgrades, PricesEveryLinkAndAgreesWithTheRankingScreen) {
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  WhatIfEngine engine(t.network, t.paths, t.eta_a, t.superframe,
                      net::kTypicalReportingInterval);
  const std::vector<LinkUpgradeImpact> impacts =
      evaluate_link_upgrades(engine, 0.99);
  ASSERT_EQ(impacts.size(), engine.links().size());
  for (std::size_t i = 1; i < impacts.size(); ++i)
    EXPECT_GE(impacts[i - 1].reachability_delta,
              impacts[i].reachability_delta);
  // On the homogeneous typical network the exact pricing and the
  // derivative screen agree on the winner: the shared n3-G bottleneck.
  const auto ranking = rank_link_upgrades(t.network, t.paths, t.eta_a,
                                          t.superframe,
                                          net::kTypicalReportingInterval);
  EXPECT_EQ(impacts.front().link, ranking.front().link);
  EXPECT_EQ(impacts.front().paths_using, 4u);
  // Each impact is reproducible through a direct delta query.
  for (const LinkUpgradeImpact& impact : impacts) {
    const WhatIfDelta delta = engine.what_if_delta(impact.link, 0.99);
    EXPECT_DOUBLE_EQ(impact.reachability_delta, delta.reachability_delta);
    EXPECT_DOUBLE_EQ(impact.worst_expected_delay_ms,
                     delta.worst_expected_delay_ms);
  }
}

TEST(EvaluateLinkUpgrades, EqualScoreTiesKeepAscendingLinkIdOrder) {
  // A star of identical one-hop paths: every upgrade is worth exactly
  // the same, so the ranking must preserve ascending link-id order.
  net::Network star;
  std::vector<net::Path> paths;
  for (int d = 0; d < 5; ++d) {
    const net::NodeId node = star.add_node("d" + std::to_string(d + 1));
    star.add_link(net::kGateway, node,
                  link::LinkModel::from_availability(0.8));
    paths.push_back(net::Path({node, net::kGateway}));
  }
  const net::Schedule schedule = net::build_schedule(
      paths, 5, net::SchedulingPolicy::kShortestPathsFirst);
  WhatIfEngine engine(star, paths, schedule,
                      net::SuperframeConfig::symmetric(5), 3);
  const std::vector<LinkUpgradeImpact> impacts =
      evaluate_link_upgrades(engine, 0.95);
  ASSERT_EQ(impacts.size(), 5u);
  for (std::size_t i = 0; i < impacts.size(); ++i)
    EXPECT_EQ(impacts[i].link.value, static_cast<std::uint32_t>(i));
}

}  // namespace
}  // namespace whart::hart
