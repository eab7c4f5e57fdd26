#include "whart/hart/sensitivity.hpp"

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"
#include "whart/net/typical_network.hpp"
#include "whart/numeric/rng.hpp"

namespace whart::hart {
namespace {

PathModelConfig example_config(std::uint32_t is) {
  PathModelConfig config;
  config.hop_slots = {3, 6, 7};
  config.superframe = net::SuperframeConfig::symmetric(7);
  config.reporting_interval = is;
  return config;
}

double reachability_at(const PathModel& model,
                       const std::vector<double>& availabilities) {
  std::vector<link::LinkModel> links;
  for (double pi : availabilities)
    links.push_back(link::LinkModel::from_availability(pi));
  const PathTransientResult result =
      model.analyze(SteadyStateLinks(links));
  return std::accumulate(result.cycle_probabilities.begin(),
                         result.cycle_probabilities.end(), 0.0);
}

/// The walk's adjoint against central differences of the forward solve.
void expect_matches_finite_differences(const PathModelConfig& config,
                                       const std::vector<double>& base) {
  const PathModel model(config);
  std::vector<link::LinkModel> models;
  for (double pi : base)
    models.push_back(link::LinkModel::from_availability(pi));
  const std::vector<double> adjoint =
      reachability_sensitivity(model, SteadyStateLinks(models));
  ASSERT_EQ(adjoint.size(), base.size());

  const double eps = 1e-7;
  for (std::size_t h = 0; h < base.size(); ++h) {
    std::vector<double> up = base;
    std::vector<double> down = base;
    up[h] += eps;
    down[h] -= eps;
    const double fd = (reachability_at(model, up) -
                       reachability_at(model, down)) /
                      (2.0 * eps);
    EXPECT_NEAR(adjoint[h], fd, 1e-6) << "hop " << h;
  }
}

TEST(Sensitivity, MatchesFiniteDifferences) {
  expect_matches_finite_differences(example_config(4), {0.9, 0.75, 0.85});

  // Retry slots: a hop's dedicated and retry attempts all move with its
  // success probability, so the adjoint must count both.
  PathModelConfig retry;
  retry.hop_slots = {2, 5, 7};
  retry.retry_slots = {3, 0, 9};
  retry.superframe = net::SuperframeConfig::symmetric(10);
  retry.reporting_interval = 3;
  expect_matches_finite_differences(retry, {0.7, 0.8, 0.6});
}

TEST(Sensitivity, ChannelHopsPriceAUniformShiftOfTheirSuccess) {
  // On a channel path the walk's adjoint is dR/d(delta) for every
  // per-state success probability of the hop moving by delta together.
  PathModelConfig config;
  config.hop_slots = {2, 5, 7};
  config.retry_slots = {3, 0, 9};
  config.superframe = net::SuperframeConfig::symmetric(10);
  config.reporting_interval = 3;
  const PathModel model(config);
  const auto channels = [](double shift) {
    std::vector<link::ChannelModel> hops;
    for (double error_bad : {0.6, 0.8, 0.7})
      hops.push_back(link::ChannelModel::gilbert_elliott(
          0.1, 0.3, 0.05 - shift, error_bad - shift));
    return hops;
  };
  const std::vector<double> adjoint =
      reachability_sensitivity(model, ChannelLinks(channels(0.0)));
  const double eps = 1e-7;
  for (std::size_t h = 0; h < 3; ++h) {
    std::vector<link::ChannelModel> up = channels(0.0);
    std::vector<link::ChannelModel> down = up;
    up[h] = channels(eps)[h];
    down[h] = channels(-eps)[h];
    const auto reachability = [&](const std::vector<link::ChannelModel>& c) {
      const PathTransientResult r = model.analyze(ChannelLinks(c));
      return std::accumulate(r.cycle_probabilities.begin(),
                             r.cycle_probabilities.end(), 0.0);
    };
    const double fd = (reachability(up) - reachability(down)) / (2.0 * eps);
    EXPECT_NEAR(adjoint[h], fd, 1e-6) << "hop " << h;
  }
}

TEST(Sensitivity, WorstLinkHasTheLargestGradient) {
  const PathModel model(example_config(4));
  std::vector<link::LinkModel> links{
      link::LinkModel::from_availability(0.95),
      link::LinkModel::from_availability(0.70),
      link::LinkModel::from_availability(0.92)};
  const auto s = reachability_sensitivity(model, SteadyStateLinks(links));
  EXPECT_GT(s[1], s[0]);
  EXPECT_GT(s[1], s[2]);
}

TEST(Sensitivity, NonNegativeEverywhere) {
  numeric::Xoshiro256 rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    PathModelConfig config;
    const auto hops = static_cast<std::uint32_t>(1 + rng.below(4));
    for (std::uint32_t h = 0; h < hops; ++h)
      config.hop_slots.push_back(h + 1);
    config.superframe = net::SuperframeConfig::symmetric(hops + 2);
    config.reporting_interval = static_cast<std::uint32_t>(1 + rng.below(6));
    const PathModel model(config);
    std::vector<link::LinkModel> links;
    for (std::uint32_t h = 0; h < hops; ++h)
      links.push_back(
          link::LinkModel::from_availability(0.55 + 0.4 * rng.uniform()));
    for (double g :
         reachability_sensitivity(model, SteadyStateLinks(links)))
      ASSERT_GE(g, 0.0);
  }
}

TEST(Sensitivity, PerfectPathHasZeroGradient) {
  const PathModel model(example_config(3));
  const SteadyStateLinks links(3, link::LinkModel::from_availability(1.0));
  for (double g : reachability_sensitivity(model, links))
    EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(RankLinkUpgrades, SharedBottleneckLinkWinsOnTypicalNetwork) {
  // e3 = <n3, G> carries four paths (3, 7, 8, 10) — upgrading it buys
  // the most total reachability.
  const net::TypicalNetwork t = net::make_typical_network(
      link::LinkModel::from_availability(0.83));
  const auto ranking = rank_link_upgrades(t.network, t.paths, t.eta_a,
                                          t.superframe, 4);
  ASSERT_EQ(ranking.size(), 10u);
  const net::Link& best = t.network.link(ranking.front().link);
  EXPECT_TRUE(best.connects(*t.network.find_node("n3"), net::kGateway));
  EXPECT_EQ(ranking.front().paths_using, 4u);
  // Sorted descending.
  for (std::size_t i = 1; i < ranking.size(); ++i)
    EXPECT_GE(ranking[i - 1].total_dR_dpi, ranking[i].total_dR_dpi);
  // Leaf links each serve one path.
  EXPECT_EQ(ranking.back().paths_using, 1u);
}

TEST(RankLinkUpgrades, EmptyPathsThrow) {
  const net::TypicalNetwork t = net::make_typical_network();
  EXPECT_THROW(
      rank_link_upgrades(t.network, {}, t.eta_a, t.superframe, 4),
      precondition_error);
}

}  // namespace
}  // namespace whart::hart
