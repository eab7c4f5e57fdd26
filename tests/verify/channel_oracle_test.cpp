// The Gilbert-Elliott cross-validation battery (the headline gate of
// the correlated-channel feature): the generator must emit seeded
// channel overlays into the fuzz stream, a 40+-seed corpus of channel
// scenarios must pass the full deterministic oracle (channel-enlarged
// production vs the independent dense channel reference),
// a sampled subset must also pass the statistical simulator leg in the
// kChannel regime, and the channel-state-leak injection must be caught
// — a battery that cannot fail verifies nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "whart/verify/oracle.hpp"
#include "whart/verify/runner.hpp"
#include "whart/verify/scenario.hpp"

namespace whart::verify {
namespace {

GeneratorLimits channel_rich_limits() {
  GeneratorLimits limits;
  limits.channel_probability = 1.0;
  return limits;
}

TEST(ChannelOracle, GeneratorEmitsSeededChannelOverlays) {
  const ScenarioGenerator generator;  // default limits, p = 0.45
  std::size_t with_channel = 0;
  std::set<std::size_t> state_counts;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Scenario scenario = generator.generate(seed);
    if (!scenario.channel.has_value()) continue;
    ++with_channel;
    state_counts.insert(scenario.channel->state_count());
    // Seeded burst parameters stay inside the generator's ranges.
    if (scenario.channel->state_count() == 2) {
      const double burst = scenario.channel->mean_bad_burst_length();
      EXPECT_GE(burst, 1.0 / 0.8 - 1e-12) << "seed " << seed;
      EXPECT_LE(burst, 1.0 / 0.1 + 1e-12) << "seed " << seed;
    }
  }
  // Around 45% of 200 seeds; the exact count is deterministic.
  EXPECT_GT(with_channel, 60u);
  EXPECT_LT(with_channel, 130u);
  // Both channel shapes appear: Gilbert-Elliott and the 3-state chain.
  EXPECT_TRUE(state_counts.count(2) == 1) << "no GE overlay in 200 seeds";
  EXPECT_TRUE(state_counts.count(3) == 1)
      << "no 3-state chain in 200 seeds";
  // Determinism: the overlay is part of the seed's identity.
  EXPECT_EQ(generator.generate(42).to_string(),
            generator.generate(42).to_string());
}

TEST(ChannelOracle, FortySeedGeCorpusPassesTheDeterministicBattery) {
  const ScenarioGenerator generator(channel_rich_limits());
  OracleConfig config;
  config.run_simulation = false;
  std::size_t channel_scenarios = 0;
  for (std::uint64_t seed = 1; channel_scenarios < 40; ++seed) {
    ASSERT_LT(seed, 200u) << "generator stopped emitting overlays";
    const Scenario scenario = generator.generate(seed);
    if (!scenario.channel.has_value()) continue;
    ++channel_scenarios;
    const OracleReport report = cross_validate(scenario, config);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": "
                             << scenario.to_string() << "\nfirst finding: "
                             << (report.findings.empty()
                                     ? std::string("-")
                                     : report.findings.front().check +
                                           " " +
                                           report.findings.front().detail);
  }
  EXPECT_EQ(channel_scenarios, 40u);
}

TEST(ChannelOracle, SimulatorLegCrossValidatesTheChannelAnalytics) {
  // A smaller simulated sample: every channel scenario without retry
  // slots runs the kChannel Monte-Carlo leg against the channel-enlarged
  // analytics under Wilson/Hoeffding bounds.
  const ScenarioGenerator generator(channel_rich_limits());
  OracleConfig config;
  config.sim_intervals = 3000;
  config.sim_shards = 2;
  std::size_t simulated = 0;
  for (std::uint64_t seed = 1; simulated < 6; ++seed) {
    ASSERT_LT(seed, 100u);
    const Scenario scenario = generator.generate(seed);
    if (!scenario.channel.has_value() || scenario.has_retry_slots())
      continue;
    const OracleReport report = cross_validate(scenario, config);
    if (!report.simulated) continue;
    ++simulated;
    EXPECT_GT(report.statistical_checks, 0u) << "seed " << seed;
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": "
                             << scenario.to_string();
  }
  EXPECT_EQ(simulated, 6u);
}

TEST(ChannelOracle, ChannelStateLeakInjectionIsCaught) {
  // The leak only shows on repeat attempts; the oracle forces a fixed
  // overlay and a multi-cycle interval, so even a seed without its own
  // channel must produce findings.
  const ScenarioGenerator generator;
  OracleConfig config;
  config.run_simulation = false;
  config.injection = Injection::kChannelStateLeak;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const OracleReport report =
        cross_validate(generator.generate(seed), config);
    EXPECT_FALSE(report.ok()) << "seed " << seed
                              << ": channel-state leak went unnoticed";
  }
}

TEST(ChannelOracle, RunnerCarriesChannelScenariosEndToEnd) {
  // The campaign runner over a channel-rich stream: fresh seeds flow
  // through invariants + oracle and come back clean.
  VerifyConfig config;
  config.seed = 1;
  config.runs = 12;
  config.limits = channel_rich_limits();
  config.oracle.run_simulation = false;
  config.threads = 1;
  const VerifyReport report = run_verification(config);
  EXPECT_EQ(report.scenarios_run, 12u);
  EXPECT_TRUE(report.ok()) << (report.failures.empty()
                                   ? std::string("-")
                                   : report.failures.front().summary());
}

}  // namespace
}  // namespace whart::verify
