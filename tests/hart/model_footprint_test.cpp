// A PathModel holds its firing table — the ordered transmission
// opportunities and each hop's first time layer — and nothing sized by
// the frame: built with the same hops at Fup = 390 and at
// Fup = 3,900,000 it requests the same heap bytes.  Its walk allocates
// O(Is x opportunities), never O(Fup): a cold analyze requests the same
// bytes at Fup = 390 and 39,000, and a walk on a warm workspace requests
// only its result's vectors.  A path's measures store only g(i) on the
// heap (the delays and their distribution are derived on read), and the
// network's delay distribution Gamma bins by slot without an array
// sized by the frame.  Warm walks and sweep points keep to allocation
// budgets: a link model builds no string, a warm walk allocates nothing
// at any block width (i.i.d., Gilbert-Elliott, a three-state chain), and
// a sweep point allocates its links and its measures.  The test counts
// bytes and calls by replacing the global allocator, so it is a binary
// of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "whart/common/obs.hpp"
#include "whart/hart/network_analysis.hpp"
#include "whart/hart/path_analysis.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/hart/sweep.hpp"
#include "whart/link/channel_model.hpp"

// GCC pairs the replaced operator new with the library free() at inlined
// call sites and reports a mismatch; the replacement below routes every
// new through malloc, so new/free pairing is correct by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::size_t> g_alloc_bytes{0};
std::atomic<std::size_t> g_alloc_calls{0};

}  // namespace

void* operator new(std::size_t size) {
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace whart::hart {
namespace {

std::size_t allocated() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}

std::size_t allocations() {
  return g_alloc_calls.load(std::memory_order_relaxed);
}

/// Four hops (hop 0 and hop 2 with a retry slot) over `frame` uplink
/// slots, Is = 4.
PathModelConfig plant_path(std::uint32_t frame) {
  PathModelConfig config;
  config.hop_slots = {1, 2, 3, 4};
  config.retry_slots = {5, 0, 6, 0};
  config.superframe = net::SuperframeConfig{frame, frame};
  config.reporting_interval = 4;
  return config;
}

std::size_t build_bytes(std::uint32_t frame) {
  PathModelConfig config = plant_path(frame);
  const std::size_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  const PathModel model(std::move(config));
  const std::size_t bytes =
      g_alloc_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(model.opportunities().size(), 6u);
  return bytes;
}

TEST(PathModelFootprint, HeapBytesDoNotGrowWithTheFrame) {
  const std::size_t plant_frame = build_bytes(390);
  EXPECT_GT(plant_frame, 0u);
  EXPECT_EQ(build_bytes(3'900'000), plant_frame);
}

// The walk's flight-recorder event fills a per-thread ring that grows on
// first use up to a fixed capacity; the walk tests switch the recorder
// off so they count the walk's own bytes.
std::size_t cold_analyze_bytes(std::uint32_t frame) {
  const PathModel model(plant_path(frame));
  const SteadyStateLinks links(4, link::LinkModel::from_availability(0.83));
  const std::size_t before = allocated();
  const PathTransientResult result = model.analyze(links);
  const std::size_t bytes = allocated() - before;
  EXPECT_EQ(result.deliveries.size(), 4u);  // the last hop, once a cycle
  return bytes;
}

TEST(PathModelFootprint, ColdWalkBytesDoNotGrowWithTheFrame) {
  common::obs::set_events_enabled(false);
  // The process's first walk also builds its call sites' function-local
  // statics (the obs name handles); that one-time cost is not the walk's.
  (void)cold_analyze_bytes(7);
  const std::size_t plant_frame = cold_analyze_bytes(390);
  EXPECT_GT(plant_frame, 0u);
  EXPECT_EQ(cold_analyze_bytes(39'000), plant_frame);
}

TEST(PathModelFootprint, WarmWalkAllocatesOnlyItsResult) {
  common::obs::set_events_enabled(false);
  const PathModel model(plant_path(390));
  const SteadyStateLinks links(4, link::LinkModel::from_availability(0.83));
  SolveWorkspace workspace;
  PathTransientResult result;
  model.analyze_into(links, {}, workspace, result);  // sizes both

  std::size_t before = allocated();
  model.analyze_into(links, {}, workspace, result);
  EXPECT_EQ(allocated() - before, 0u) << "warm workspace, warm result";

  before = allocated();
  PathTransientResult fresh;
  model.analyze_into(links, {}, workspace, fresh);
  // Is cycle probabilities, one attempt count per hop, Is deliveries.
  EXPECT_EQ(allocated() - before,
            4 * sizeof(double) + 4 * sizeof(double) + 4 * sizeof(Delivery))
      << "warm workspace, fresh result";
  EXPECT_EQ(fresh.cycle_probabilities, result.cycle_probabilities);
}

TEST(AllocationBudget, LinkModelsBuildNoString) {
  std::size_t before = allocations();
  const link::LinkModel model(0.1, 0.9);
  EXPECT_EQ(allocations() - before, 0u) << "LinkModel(0.1, 0.9)";
  before = allocations();
  const link::LinkModel derived = link::LinkModel::from_availability(0.8);
  EXPECT_EQ(allocations() - before, 0u) << "from_availability(0.8)";
  EXPECT_DOUBLE_EQ(model.steady_state_availability(), 0.9);
  EXPECT_DOUBLE_EQ(derived.steady_state_availability(), 0.8);
}

/// A Gilbert-Elliott overlay: short bad bursts that lose most attempts.
link::ChannelModel bursty_channel() {
  return link::ChannelModel::gilbert_elliott(0.05, 0.3, 0.02, 0.6);
}

/// A three-state fading chain: the walk's runtime block width.
link::ChannelModel fading_channel() {
  return link::ChannelModel::chain({0.8, 0.15, 0.05,  //
                                    0.2, 0.7, 0.1,    //
                                    0.1, 0.3, 0.6},
                                   {0.01, 0.3, 0.9});
}

TEST(AllocationBudget, WarmWalksAllocateNothing) {
  // One walk per block width: i.i.d. (1), Gilbert-Elliott (2) and a
  // three-state chain (the runtime width).
  const PathModel model(plant_path(390));
  const SteadyStateLinks iid(4, link::LinkModel::from_availability(0.83));
  const ChannelLinks bursty(4, bursty_channel().with_marginal_success(0.83));
  const ChannelLinks fading(4, fading_channel().with_marginal_success(0.83));
  const std::pair<const LinkProbabilityProvider*, const char*> walks[] = {
      {&iid, "i.i.d."}, {&bursty, "Gilbert-Elliott"}, {&fading, "3-state"}};
  for (const auto& [links, name] : walks) {
    SolveWorkspace workspace;
    PathTransientResult result;
    model.analyze_into(*links, {}, workspace, result);  // sizes both
    const std::size_t before = allocations();
    model.analyze_into(*links, {}, workspace, result);
    EXPECT_EQ(allocations() - before, 0u) << name << " walk";
  }
}

/// Allocations of a single-threaded availability sweep of `points` grid
/// points, after one identical sweep has built the call sites' statics.
std::size_t sweep_allocations(std::size_t points,
                              const link::ChannelModel* channel) {
  const PathModelConfig config = plant_path(20);
  const std::vector<double> grid = linspace(0.65, 0.99, points);
  const auto sweep = [&] {
    return sweep_availability(config, grid, 1, TransientKernel::kPerSlot,
                              true, 1, channel);
  };
  (void)sweep();
  const std::size_t before = allocations();
  const SweepSeries series = sweep();
  const std::size_t calls = allocations() - before;
  EXPECT_EQ(series.points.size(), points);
  return calls;
}

TEST(AllocationBudget, SweepPointsAllocateTheirLinksAndMeasures) {
  // The 64 points a 128-point sweep adds to a 64-point one: the fixed
  // cost (buffers, the shape, the cold first walk) cancels.  The flight
  // recorder's ring grows on use up to its capacity, so it is off.
  common::obs::set_events_enabled(false);
  const link::ChannelModel channel = bursty_channel();
  const double iid =
      static_cast<double>(sweep_allocations(128, nullptr) -
                          sweep_allocations(64, nullptr)) / 64.0;
  const double bursty =
      static_cast<double>(sweep_allocations(128, &channel) -
                          sweep_allocations(64, &channel)) / 64.0;
  // i.i.d.: the point's availabilities and its measures.  Gilbert-
  // Elliott: the rescaled channel's error rates (its dynamics are the
  // template's), ChannelLinks' channel and marginal, the measures.
  EXPECT_LE(iid, 2.0) << "i.i.d. sweep, allocations per point";
  EXPECT_LE(bursty, 4.0) << "Gilbert-Elliott sweep, allocations per point";
}

TEST(PathMeasuresFootprint, CopyRequestsOnlyTheCycleProbabilities) {
  const PathMeasures measures =
      measures_from_cycles(plant_path(390), {0.4, 0.3, 0.2, 0.05}, 5.0);
  const std::size_t before = allocated();
  const PathMeasures copy = measures;
  EXPECT_EQ(allocated() - before, 4 * sizeof(double));
  EXPECT_EQ(copy.delay_ms(3), measures.delay_ms(3));
}

TEST(NetworkMeasuresFootprint, AggregateBytesDoNotGrowWithTheFrame) {
  // Two one-hop paths, Is = 2, on a frame of 2 uplink and a million
  // downlink slots: their four delays span a million slots.
  std::vector<PathMeasures> per_path;
  for (const net::SlotNumber slot : {1u, 2u}) {
    PathModelConfig config;
    config.hop_slots = {slot};
    config.superframe = net::SuperframeConfig{2, 1'000'000};
    config.reporting_interval = 2;
    per_path.push_back(measures_from_cycles(config, {0.5, 0.25}, 1.5));
  }
  const std::size_t before = allocated();
  const NetworkMeasures network = aggregate_measures(std::move(per_path));
  EXPECT_LT(allocated() - before, std::size_t{64} << 10);
  EXPECT_EQ(network.overall_delay_distribution.size(), 4u);
}

}  // namespace
}  // namespace whart::hart
