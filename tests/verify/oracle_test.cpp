#include "whart/verify/oracle.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "whart/verify/scenario.hpp"

namespace whart::verify {
namespace {

OracleConfig fast_config() {
  OracleConfig config;
  config.sim_intervals = 2000;
  config.sim_shards = 2;
  return config;
}

// A fixed scenario with several cycles and an imperfect link, so every
// injection has mass to corrupt.
Scenario two_hop_scenario() {
  Scenario scenario;
  scenario.seed = 99;
  scenario.superframe = {2, 1};
  scenario.reporting_interval = 3;
  scenario.paths.resize(1);
  scenario.paths[0].hop_slots = {1, 2};
  scenario.paths[0].links = {link::LinkModel(0.2, 0.8),
                             link::LinkModel(0.3, 0.7)};
  scenario.validate();
  return scenario;
}

TEST(Oracle, CleanScenariosProduceNoFindings) {
  const ScenarioGenerator generator;
  const OracleConfig config = fast_config();
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const Scenario scenario = generator.generate(seed);
    const OracleReport report = cross_validate(scenario, config);
    for (const OracleFinding& finding : report.findings)
      ADD_FAILURE() << "seed " << seed << " path " << finding.path_index
                    << ": " << finding.check << " — " << finding.detail;
    // Retry slots have no net::Schedule encoding, so the simulator leg
    // must be skipped for them and run for everything else.
    EXPECT_EQ(report.simulated, !scenario.has_retry_slots());
    if (report.simulated) {
      EXPECT_GT(report.statistical_checks, 0u);
    }
  }
}

TEST(Oracle, RetryScenarioSkipsTheSimulatorLeg) {
  Scenario scenario = two_hop_scenario();
  scenario.superframe.uplink_slots = 3;
  scenario.paths[0].retry_slots = {3, 0};  // hop 1 retries in slot 3
  scenario.validate();
  const OracleReport report = cross_validate(scenario, fast_config());
  EXPECT_FALSE(report.simulated);
  EXPECT_EQ(report.statistical_checks, 0u);
  EXPECT_TRUE(report.ok());
}

TEST(Oracle, CatchesAnInjectedLinkBias) {
  OracleConfig config = fast_config();
  config.injection = Injection::kLinkBias;
  const OracleReport report = cross_validate(two_hop_scenario(), config);
  ASSERT_FALSE(report.ok());
  bool deterministic = false;
  bool statistical = false;
  for (const OracleFinding& finding : report.findings) {
    deterministic = deterministic || finding.check.starts_with("reference:");
    statistical = statistical || finding.check.starts_with("simulator:");
  }
  // A biased production solver disagrees with BOTH independent legs.
  EXPECT_TRUE(deterministic);
  EXPECT_TRUE(statistical);
}

TEST(Oracle, CatchesAnInjectedDiscardLeak) {
  OracleConfig config = fast_config();
  config.injection = Injection::kDiscardLeak;
  const OracleReport report = cross_validate(two_hop_scenario(), config);
  ASSERT_FALSE(report.ok());
  bool closure = false;
  for (const OracleFinding& finding : report.findings)
    closure = closure || finding.check.starts_with("closure:");
  // Leaked discard mass breaks R + P(discard) = 1 before any
  // cross-solver comparison is even needed.
  EXPECT_TRUE(closure);
}

TEST(Oracle, CatchesAnInjectedCycleShift) {
  OracleConfig config = fast_config();
  config.injection = Injection::kCycleShift;
  // Needs reporting_interval > 1: rotating a single cycle is a no-op.
  const OracleReport report = cross_validate(two_hop_scenario(), config);
  ASSERT_FALSE(report.ok());
  bool cycle_finding = false;
  for (const OracleFinding& finding : report.findings)
    cycle_finding = cycle_finding || finding.check.starts_with("reference:");
  EXPECT_TRUE(cycle_finding);
}

TEST(Oracle, SimulatorLegIsSeededDeterministically) {
  const Scenario scenario = two_hop_scenario();
  const OracleConfig config = fast_config();
  const OracleReport a = cross_validate(scenario, config);
  const OracleReport b = cross_validate(scenario, config);
  EXPECT_EQ(a.findings.size(), b.findings.size());
  EXPECT_EQ(a.statistical_checks, b.statistical_checks);
}

}  // namespace
}  // namespace whart::verify
