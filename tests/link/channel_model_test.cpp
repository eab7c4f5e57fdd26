// Unit tests of link::ChannelModel: closed-form Gilbert-Elliott
// stationary distribution and burst lengths, spec parsing round-trips
// (including chain files), marginal rescaling, and the degenerate
// corners the channel-enlarged solver leans on.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "whart/common/contracts.hpp"
#include "whart/link/channel_model.hpp"
#include "whart/link/link_model.hpp"
#include "whart/markov/steady_state.hpp"

namespace whart::link {
namespace {

TEST(ChannelModel, IidIsOneStateWithTheGivenSuccess) {
  const ChannelModel channel = ChannelModel::iid(0.83);
  EXPECT_EQ(channel.state_count(), 1u);
  EXPECT_TRUE(channel.is_iid());
  EXPECT_DOUBLE_EQ(channel.transition(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(channel.success_in_state(0), 0.83);
  EXPECT_DOUBLE_EQ(channel.marginal_success(), 0.83);
  EXPECT_DOUBLE_EQ(channel.stationary()[0], 1.0);
}

TEST(ChannelModel, GilbertElliottStationaryIsClosedForm) {
  const double p_gb = 0.12;
  const double p_bg = 0.48;
  const ChannelModel channel =
      ChannelModel::gilbert_elliott(p_gb, p_bg, 0.01, 0.8);
  ASSERT_EQ(channel.state_count(), 2u);
  EXPECT_FALSE(channel.is_iid());
  // pi = (p_bg, p_gb) / (p_gb + p_bg).
  EXPECT_NEAR(channel.stationary()[0], p_bg / (p_gb + p_bg), 1e-15);
  EXPECT_NEAR(channel.stationary()[1], p_gb / (p_gb + p_bg), 1e-15);
  EXPECT_NEAR(channel.marginal_success(),
              1.0 - (channel.stationary()[0] * 0.01 +
                     channel.stationary()[1] * 0.8),
              1e-15);
}

TEST(ChannelModel, MeanBadBurstLengthIsInverseRecovery) {
  const ChannelModel channel =
      ChannelModel::gilbert_elliott(0.2, 0.25, 0.0, 1.0);
  EXPECT_NEAR(channel.mean_bad_burst_length(), 1.0 / 0.25, 1e-15);
  EXPECT_NEAR(channel.mean_sojourn_slots(0), 1.0 / 0.2, 1e-15);
}

TEST(ChannelModel, ChainStationarySolvesTheThreeStateChain) {
  const ChannelModel channel = ChannelModel::chain(
      {0.8, 0.15, 0.05,  //
       0.2, 0.7, 0.1,    //
       0.1, 0.3, 0.6},
      {0.01, 0.3, 0.9});
  ASSERT_EQ(channel.state_count(), 3u);
  // Stationarity: pi P = pi, rows of P sum to 1.
  for (std::size_t c = 0; c < 3; ++c) {
    double mass = 0.0;
    for (std::size_t r = 0; r < 3; ++r)
      mass += channel.stationary()[r] * channel.transition(r, c);
    EXPECT_NEAR(mass, channel.stationary()[c], 1e-12) << "state " << c;
  }
  double total = 0.0;
  for (double pi : channel.stationary()) total += pi;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ChannelModel, ParseRoundTripsGeSpecs) {
  const ChannelModel parsed = ChannelModel::parse("ge:0.1,0.4,0.02,0.7");
  const ChannelModel direct =
      ChannelModel::gilbert_elliott(0.1, 0.4, 0.02, 0.7);
  EXPECT_EQ(parsed, direct);
  EXPECT_EQ(ChannelModel::parse(parsed.to_string()), parsed);
  EXPECT_EQ(ChannelModel::parse("iid"), ChannelModel::iid());
}

TEST(ChannelModel, ParseReadsChainFiles) {
  const std::string path = ::testing::TempDir() + "channel_chain_test.txt";
  {
    std::ofstream file(path);
    file << "# three-state fading ladder\n"
         << "3\n"
         << "0.8 0.15 0.05  # good row\n"
         << "0.2 0.7 0.1\n"
         << "0.1 0.3 0.6\n"
         << "0.01 0.3 0.9\n";
  }
  const ChannelModel parsed = ChannelModel::parse("chain:" + path);
  const ChannelModel direct = ChannelModel::chain(
      {0.8, 0.15, 0.05, 0.2, 0.7, 0.1, 0.1, 0.3, 0.6}, {0.01, 0.3, 0.9});
  EXPECT_EQ(parsed, direct);
  std::remove(path.c_str());
}

/// The typed error `parse` throws for `spec`, or "" when it throws none
/// (any other exception fails the test).
std::string spec_error(const std::string& spec) {
  try {
    (void)ChannelModel::parse(spec);
  } catch (const channel_spec_error& error) {
    return error.what();
  }
  return "";
}

/// A chain file holding `body`, for the chain-file rejections.
std::string chain_file(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream(path) << body;
  return path;
}

TEST(ChannelModel, ParseRejectsMalformedSpecs) {
  // Outside input gets a typed error naming the spec and the problem.
  const std::pair<std::string, std::string> cases[] = {
      {"bogus", "expected iid, ge:pgb,pbg,eg,eb or chain:<file>"},
      {"foo", "expected iid, ge:pgb,pbg,eg,eb or chain:<file>"},
      {"ge:0.1,0.4",
       "expected four comma-separated numbers ge:pgb,pbg,eg,eb"},
      {"ge:0.1,0.2",
       "expected four comma-separated numbers ge:pgb,pbg,eg,eb"},
      {"ge:0.1,0.4,0.02,0.7,9", "trailing characters after eb"},
      {"ge:2,0,0,1", "pgb = 2 is outside [0, 1]"},
      {"ge:0.1,0.2,0.3,1.5", "eb = 1.5 is outside [0, 1]"},
      {"ge:0,0,0.1,0.5", "pgb + pbg = 0 freezes the chain in place"},
      {"chain:/no/such/file", "cannot read '/no/such/file'"},
      {"chain:/nonexistent", "cannot read '/nonexistent'"},
  };
  for (const auto& [spec, problem] : cases)
    EXPECT_EQ(spec_error(spec), "channel spec '" + spec + "': " + problem);

  const std::string bad_rows =
      chain_file("bad_rows.chain", "2\n0.5 0.4\n0.3 0.7\n0.1 0.9\n");
  EXPECT_EQ(spec_error("chain:" + bad_rows),
            "channel spec 'chain:" + bad_rows +
                "': transition row 1 sums to 0.9, not 1");
  const std::string short_file =
      chain_file("short.chain", "3\n0.8 0.1 0.1\n0.2 0.7 0.1\n0.1 0.5 0.9\n");
  EXPECT_NE(spec_error("chain:" + short_file).find("the file ends early"),
            std::string::npos);
  const std::string two_classes = chain_file(
      "two_classes.chain", "3\n1 0 0\n0 1 0\n0.5 0.5 0\n0 0.5 1\n");
  EXPECT_NE(spec_error("chain:" + two_classes).find("no unique stationary"),
            std::string::npos);
  for (const std::string& path : {bad_rows, short_file, two_classes})
    std::remove(path.c_str());

  // The factories keep their contracts for internal callers.
  EXPECT_THROW(ChannelModel::gilbert_elliott(0.0, 0.0, 0.0, 1.0),
               precondition_error);
  EXPECT_THROW(ChannelModel::chain({0.5, 0.4}, {0.0, 1.0}),
               precondition_error);
}

TEST(ChannelModel, WithMarginalSuccessHitsTheTargetKeepingBursts) {
  // Expected stationary error 0.156; targets down to 1 - 0.156/0.7 pi_b
  // stay exactly reachable before the bad state clamps at error 1.
  const ChannelModel base =
      ChannelModel::gilbert_elliott(0.1, 0.4, 0.02, 0.7);
  for (double target : {0.99, 0.83, 0.78}) {
    const ChannelModel scaled = base.with_marginal_success(target);
    EXPECT_NEAR(scaled.marginal_success(), target, 1e-12) << target;
    // The chain — and hence the burst structure — is untouched.
    EXPECT_DOUBLE_EQ(scaled.transition(0, 1), base.transition(0, 1));
    EXPECT_DOUBLE_EQ(scaled.mean_bad_burst_length(),
                     base.mean_bad_burst_length());
  }
}

TEST(ChannelModel, RescalesShareTheTemplatesDynamicsAndCompareByValue) {
  const ChannelModel base =
      ChannelModel::chain({0.8, 0.15, 0.05, 0.2, 0.7, 0.1, 0.1, 0.3, 0.6},
                          {0.01, 0.3, 0.9});
  const ChannelModel scaled = base.with_marginal_success(0.83);
  // The transition matrix and stationary law are the template's storage,
  // so the walk's P^gap cache (keyed by that storage) serves both.
  EXPECT_EQ(scaled.transition_matrix().data(),
            base.transition_matrix().data());
  EXPECT_EQ(&scaled.stationary(), &base.stationary());
  EXPECT_NE(scaled, base);  // the error rates differ
  // Equality compares contents: the same chain built afresh, with the
  // rescale's error rates, equals the rescale, bit for bit down to the
  // stationary law it re-solves.
  std::vector<double> transition;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      transition.push_back(base.transition(r, c));
  const ChannelModel rebuilt = ChannelModel::chain(
      transition,
      {scaled.error_rate(0), scaled.error_rate(1), scaled.error_rate(2)});
  EXPECT_NE(rebuilt.transition_matrix().data(),
            base.transition_matrix().data());
  EXPECT_EQ(rebuilt, scaled);
  EXPECT_EQ(rebuilt.stationary(), scaled.stationary());
  EXPECT_EQ(rebuilt.marginal_success(), scaled.marginal_success());
}

TEST(ChannelModel, WithMarginalSuccessClampsWhenTheTargetIsUnreachable) {
  // Scaling toward a very low availability saturates the bad state at
  // error 1; the result is clamped, valid, and as close as possible.
  const ChannelModel base =
      ChannelModel::gilbert_elliott(0.05, 0.9, 0.0, 0.5);
  const ChannelModel scaled = base.with_marginal_success(0.1);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_GE(scaled.error_rate(s), 0.0);
    EXPECT_LE(scaled.error_rate(s), 1.0);
  }
  // An error-free template gets the uniform error rate.
  const ChannelModel flat =
      ChannelModel::gilbert_elliott(0.2, 0.3, 0.0, 0.0)
          .with_marginal_success(0.75);
  EXPECT_NEAR(flat.error_rate(0), 0.25, 1e-15);
  EXPECT_NEAR(flat.error_rate(1), 0.25, 1e-15);
  EXPECT_NEAR(flat.marginal_success(), 0.75, 1e-15);
}

TEST(ChannelModel, ToDtmcAgreesWithTheCachedStationary) {
  const ChannelModel channel = ChannelModel::chain(
      {0.7, 0.2, 0.1, 0.3, 0.6, 0.1, 0.05, 0.15, 0.8}, {0.0, 0.4, 1.0});
  const linalg::Vector pi = markov::steady_state_direct(channel.to_dtmc());
  for (std::size_t s = 0; s < channel.state_count(); ++s)
    EXPECT_NEAR(pi[s], channel.stationary()[s], 1e-12) << "state " << s;
}

}  // namespace
}  // namespace whart::link
