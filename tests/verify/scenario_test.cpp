#include "whart/verify/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "whart/common/contracts.hpp"

namespace whart::verify {
namespace {

TEST(ScenarioGenerator, IsDeterministic) {
  const ScenarioGenerator generator;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const Scenario a = generator.generate(seed);
    const Scenario b = generator.generate(seed);
    EXPECT_EQ(a.to_string(), b.to_string());
    EXPECT_EQ(a.seed, seed);
    EXPECT_EQ(a.superframe, b.superframe);
    EXPECT_EQ(a.ttl, b.ttl);
  }
}

TEST(ScenarioGenerator, DistinctSeedsDiffer) {
  const ScenarioGenerator generator;
  std::set<std::string> rendered;
  for (std::uint64_t seed = 1; seed <= 50; ++seed)
    rendered.insert(generator.generate(seed).to_string());
  // Collisions are astronomically unlikely; a few identical tiny
  // scenarios would indicate a broken seed expansion.
  EXPECT_GT(rendered.size(), 45u);
}

TEST(ScenarioGenerator, EveryScenarioValidatesAndRespectsLimits) {
  const ScenarioGenerator generator;
  const GeneratorLimits& limits = generator.limits();
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Scenario scenario = generator.generate(seed);
    EXPECT_NO_THROW(scenario.validate());
    EXPECT_LE(scenario.path_count(), limits.max_paths);
    EXPECT_LE(scenario.max_hops(), limits.max_hops);
    EXPECT_LE(scenario.reporting_interval, limits.max_reporting_interval);
    if (scenario.ttl.has_value()) {
      EXPECT_GE(*scenario.ttl, 1u);
      EXPECT_LE(*scenario.ttl, scenario.reporting_interval *
                                   scenario.superframe.uplink_slots);
    }
  }
}

TEST(ScenarioGenerator, CoversEdgeRegimes) {
  const ScenarioGenerator generator;
  bool saw_retry = false;
  bool saw_ttl = false;
  bool saw_perfect_link = false;
  bool saw_broken_link = false;
  bool saw_out_of_order = false;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const Scenario scenario = generator.generate(seed);
    saw_retry = saw_retry || scenario.has_retry_slots();
    saw_ttl = saw_ttl || scenario.ttl.has_value();
    for (std::size_t p = 0; p < scenario.path_count(); ++p) {
      saw_out_of_order = saw_out_of_order || !scenario.slots_sorted(p);
      for (const link::LinkModel& link : scenario.paths[p].links) {
        saw_perfect_link =
            saw_perfect_link || link.failure_probability() == 0.0;
        saw_broken_link = saw_broken_link || link.failure_probability() == 1.0;
      }
    }
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_ttl);
  EXPECT_TRUE(saw_perfect_link);
  EXPECT_TRUE(saw_broken_link);
  EXPECT_TRUE(saw_out_of_order);
}

TEST(Scenario, ValidateRejectsSlotCollisions) {
  Scenario scenario;
  scenario.superframe = {4, 0};
  scenario.paths.resize(2);
  scenario.paths[0].hop_slots = {1};
  scenario.paths[0].links = {link::LinkModel(0.1, 0.9)};
  scenario.paths[1].hop_slots = {1};  // collides with path 1
  scenario.paths[1].links = {link::LinkModel(0.1, 0.9)};
  EXPECT_THROW(scenario.validate(), invariant_error);
}

TEST(Scenario, ValidateRejectsOutOfFrameSlots) {
  Scenario scenario;
  scenario.superframe = {2, 0};
  scenario.paths.resize(1);
  scenario.paths[0].hop_slots = {3};
  scenario.paths[0].links = {link::LinkModel(0.1, 0.9)};
  EXPECT_THROW(scenario.validate(), invariant_error);
}

TEST(Scenario, BuildNetworkMatchesPathConfigs) {
  const ScenarioGenerator generator;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const Scenario scenario = generator.generate(seed);
    if (scenario.has_retry_slots()) continue;
    const BuiltScenario built = build_network(scenario);
    ASSERT_EQ(built.paths.size(), scenario.path_count());
    for (std::size_t p = 0; p < scenario.path_count(); ++p) {
      // The schedule reproduces each path's hop slots in hop order.
      EXPECT_EQ(built.schedule.path_slots(p).hop_slots,
                scenario.paths[p].hop_slots);
      // Each path's chain ends at the gateway.
      EXPECT_EQ(built.paths[p].nodes().back(), net::kGateway);
      EXPECT_EQ(built.paths[p].hop_count(), scenario.paths[p].hop_count());
    }
    EXPECT_NO_THROW(built.schedule.validate_complete(built.paths));
  }
}

TEST(Scenario, BuildNetworkRejectsRetrySlots) {
  Scenario scenario;
  scenario.superframe = {4, 0};
  scenario.paths.resize(1);
  scenario.paths[0].hop_slots = {1};
  scenario.paths[0].retry_slots = {2};
  scenario.paths[0].links = {link::LinkModel(0.1, 0.9)};
  EXPECT_THROW((void)build_network(scenario), precondition_error);
}

TEST(Corpus, RoundTripsAndDeduplicates) {
  const std::string path =
      ::testing::TempDir() + "/whart_verify_corpus_test.txt";
  std::remove(path.c_str());

  EXPECT_TRUE(load_corpus(path).empty());  // missing file = empty corpus
  append_corpus(path, 42);
  append_corpus(path, 7);
  append_corpus(path, 42);  // duplicate is dropped
  const std::vector<std::uint64_t> seeds = load_corpus(path);
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{42, 7}));
  std::remove(path.c_str());
}

TEST(Corpus, MalformedLinesThrowNamingTheLine) {
  const std::string path =
      ::testing::TempDir() + "/whart_verify_bad_corpus_test.txt";
  for (const char* bad : {"abc", "18446744073709551616", "12x", "-5"}) {
    std::ofstream(path) << "# seeds\n12\n  " << bad << "\n7\n";
    try {
      (void)load_corpus(path);
      ADD_FAILURE() << "'" << bad << "' was read as a seed";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("line 3: '" +
                                               std::string(bad) + "'"),
                std::string::npos)
          << error.what();
    }
  }
  // Surrounding blanks (and a CRLF line end) are not part of the token.
  std::ofstream(path) << "12 \r\n\t18446744073709551615\n";
  EXPECT_EQ(load_corpus(path),
            (std::vector<std::uint64_t>{12, 18446744073709551615u}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace whart::verify
