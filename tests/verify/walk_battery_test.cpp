// Seeded batteries of the firing-table walk (hart::PathModel under
// kPerSlot) against the independent references: the dense grid solver
// under time-varying providers (steady-state, transient and scripted
// links), and the channel grid solver under Gilbert-Elliott and
// three-state chains.  Shapes cover retries, out-of-order hops, a TTL
// cut mid-cycle and one at a cycle boundary, TTL = 1, Fup = 1 with
// Fdown = 0, hops without channel memory on a channel path, and a
// 390-slot frame whose retries are hundreds of slots apart.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/link/channel_model.hpp"
#include "whart/link/failure_script.hpp"
#include "whart/link/link_model.hpp"
#include "whart/verify/reference_solver.hpp"

namespace whart::verify {
namespace {

constexpr double kTolerance = 1e-12;

bool close(double a, double b) {
  return std::abs(a - b) <=
         kTolerance * std::max({1.0, std::abs(a), std::abs(b)});
}

void expect_matches(const hart::PathTransientResult& walk,
                    const ReferenceResult& ref, const std::string& label) {
  ASSERT_EQ(walk.cycle_probabilities.size(), ref.cycle_probabilities.size())
      << label;
  for (std::size_t i = 0; i < ref.cycle_probabilities.size(); ++i)
    EXPECT_PRED2(close, walk.cycle_probabilities[i],
                 ref.cycle_probabilities[i])
        << label << " g(" << i + 1 << ")";
  EXPECT_PRED2(close, walk.discard_probability, ref.discard_probability)
      << label;
  EXPECT_PRED2(close, walk.expected_transmissions, ref.expected_transmissions)
      << label;
  EXPECT_PRED2(close, walk.expected_transmissions_delivered,
               ref.expected_transmissions_delivered)
      << label;
  for (std::size_t h = 0; h < ref.expected_transmissions_per_hop.size(); ++h)
    EXPECT_PRED2(close, walk.expected_transmissions_per_hop[h],
                 ref.expected_transmissions_per_hop[h])
        << label << " hop " << h;
}

/// The hand-picked shapes every battery runs, before the random ones.
std::vector<hart::PathModelConfig> edge_shapes() {
  hart::PathModelConfig retries;  // out-of-order hops with retry slots
  retries.hop_slots = {5, 2, 7};
  retries.retry_slots = {3, 0, 8};
  retries.superframe = net::SuperframeConfig{9, 4};
  retries.reporting_interval = 3;
  hart::PathModelConfig mid_cycle = retries;
  mid_cycle.ttl = 13;
  hart::PathModelConfig cycle_boundary = retries;
  cycle_boundary.ttl = 18;
  hart::PathModelConfig ttl_one;
  ttl_one.hop_slots = {1, 3};
  ttl_one.superframe = net::SuperframeConfig{4, 2};
  ttl_one.reporting_interval = 2;
  ttl_one.ttl = 1;
  hart::PathModelConfig one_slot;  // Fup = 1, Fdown = 0
  one_slot.hop_slots = {1};
  one_slot.superframe = net::SuperframeConfig{1, 0};
  one_slot.reporting_interval = 4;
  return {retries, mid_cycle, cycle_boundary, ttl_one, one_slot};
}

/// A seeded random shape: 1-4 hops in shuffled slots (so often out of
/// order), optional retry slots, Fdown 0-8, Is 1-4 and a TTL that is
/// absent, random, or on a cycle boundary.
hart::PathModelConfig random_shape(std::mt19937_64& rng) {
  const auto pick = [&](std::uint32_t lo, std::uint32_t hi) {
    return std::uniform_int_distribution<std::uint32_t>(lo, hi)(rng);
  };
  hart::PathModelConfig config;
  const std::uint32_t hops = pick(1, 4);
  const std::uint32_t frame = pick(hops, 10);
  std::vector<net::SlotNumber> slots(frame);
  for (std::uint32_t s = 0; s < frame; ++s) slots[s] = s + 1;
  std::shuffle(slots.begin(), slots.end(), rng);
  std::size_t used = 0;
  for (std::uint32_t h = 0; h < hops; ++h)
    config.hop_slots.push_back(slots[used++]);
  if (pick(0, 1) == 1)
    for (std::uint32_t h = 0; h < hops; ++h)
      config.retry_slots.push_back(used < frame && pick(0, 1) == 1
                                       ? slots[used++]
                                       : 0);
  config.superframe = net::SuperframeConfig{frame, pick(0, 8)};
  config.reporting_interval = pick(1, 4);
  switch (pick(0, 2)) {
    case 1:
      config.ttl = pick(1, config.horizon());
      break;
    case 2:
      config.ttl = pick(1, config.reporting_interval) * frame;
      break;
    default:
      break;
  }
  return config;
}

/// Steady-state, transient and scripted links over `hops` hops; every
/// 13th draw pins the availabilities to 0 or 1.
struct Providers {
  hart::SteadyStateLinks steady;
  hart::TransientLinks transient;
  hart::ScriptedLinks scripted;
};

Providers random_providers(std::mt19937_64& rng, std::size_t hops,
                           bool degenerate) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> availability(hops);
  std::vector<link::LinkModel> models;
  std::vector<double> initial(hops);
  for (std::size_t h = 0; h < hops; ++h) {
    availability[h] = degenerate ? (unit(rng) < 0.5 ? 0.0 : 1.0)
                                 : 0.05 + 0.95 * unit(rng);
    models.emplace_back(0.01 + 0.3 * unit(rng), 0.05 + 0.9 * unit(rng));
    initial[h] = unit(rng);
  }
  const auto begin = static_cast<std::uint64_t>(30 * unit(rng));
  return {hart::SteadyStateLinks(availability),
          hart::TransientLinks(models, initial),
          hart::ScriptedLinks(models, hops - 1,
                              {link::FailureWindow{begin, begin + 12}})};
}

TEST(WalkBattery, TimeVaryingProvidersMatchTheDenseReference) {
  std::mt19937_64 rng(20261019);
  std::vector<hart::PathModelConfig> shapes = edge_shapes();
  for (int i = 0; i < 150; ++i) shapes.push_back(random_shape(rng));
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const hart::PathModelConfig& config = shapes[i];
    const hart::PathModel model(config);
    const Providers links =
        random_providers(rng, config.hop_count(), i % 13 == 12);
    const std::string label = "shape " + std::to_string(i);
    expect_matches(model.analyze(links.steady),
                   reference_solve(config, links.steady), label + " steady");
    expect_matches(model.analyze(links.transient),
                   reference_solve(config, links.transient),
                   label + " transient");
    expect_matches(model.analyze(links.scripted),
                   reference_solve(config, links.scripted),
                   label + " scripted");
  }
}

/// A random channel per hop: Gilbert-Elliott, a three-state chain, or
/// (one draw in four) a memoryless k = 1 channel.
link::ChannelModel random_channel(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double draw = unit(rng);
  if (draw < 0.25) return link::ChannelModel::iid(0.5 + 0.5 * unit(rng));
  if (draw < 0.7)
    return link::ChannelModel::gilbert_elliott(
        0.001 + 0.2 * unit(rng), 0.01 + 0.4 * unit(rng), 0.1 * unit(rng),
        0.3 + 0.7 * unit(rng));
  return link::ChannelModel::chain(
      {0.9, 0.08, 0.02, 0.1, 0.8, 0.1, 0.05, 0.25, 0.7},
      {0.1 * unit(rng), 0.2 + 0.3 * unit(rng), 0.6 + 0.4 * unit(rng)});
}

void expect_channel_walk_matches(const hart::PathModelConfig& config,
                                 const std::vector<link::ChannelModel>& hops,
                                 const std::string& label) {
  const hart::PathModel model(config);
  const hart::PathTransientResult walk =
      model.analyze(hart::ChannelLinks(hops));
  expect_matches(walk, reference_solve_channel(config, hops), label);
}

TEST(WalkBattery, ChannelWalkMatchesTheChannelReference) {
  std::mt19937_64 rng(1019);
  std::vector<hart::PathModelConfig> shapes = edge_shapes();
  for (int i = 0; i < 100; ++i) shapes.push_back(random_shape(rng));
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    std::vector<link::ChannelModel> channels;
    for (std::size_t h = 0; h < shapes[i].hop_count(); ++h)
      channels.push_back(random_channel(rng));
    expect_channel_walk_matches(shapes[i], channels,
                                "shape " + std::to_string(i));
  }
}

TEST(WalkBattery, ChannelPathWithMemorylessHops) {
  // Only the middle hop carries channel memory; its neighbours are k = 1
  // hops whose success comes from the provider.
  hart::PathModelConfig config = edge_shapes().front();
  expect_channel_walk_matches(
      config,
      {link::ChannelModel::iid(0.8),
       link::ChannelModel::gilbert_elliott(0.05, 0.1, 0.02, 0.65),
       link::ChannelModel::iid(0.9)},
      "memoryless neighbours");
}

TEST(WalkBattery, LongGapsOnAPlantSizedFrame) {
  // Fup = Fdown = 390: a hop's retries sit 389 and 391 absolute slots
  // apart, so each lazy mix raises a slow-mixing burst chain to a high
  // power.  The TTL cuts the second cycle to keep the reference small.
  hart::PathModelConfig config;
  config.hop_slots = {1, 200};
  config.retry_slots = {390, 0};
  config.superframe = net::SuperframeConfig{390, 390};
  config.reporting_interval = 2;
  config.ttl = 400;
  const link::ChannelModel bursty =
      link::ChannelModel::gilbert_elliott(0.0025, 1.0 / 80.0, 0.02, 0.9);
  expect_channel_walk_matches(config, {bursty, bursty}, "Gilbert-Elliott");
  expect_channel_walk_matches(
      config,
      {link::ChannelModel::chain(
           {0.99, 0.008, 0.002, 0.01, 0.98, 0.01, 0.005, 0.015, 0.98},
           {0.02, 0.4, 0.95}),
       link::ChannelModel::iid(0.85)},
      "three-state chain");
}

}  // namespace
}  // namespace whart::verify
