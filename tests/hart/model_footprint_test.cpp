// A PathModel holds its firing table — the ordered transmission
// opportunities and each hop's first time layer — and nothing sized by
// the frame: built with the same hops at Fup = 390 and at
// Fup = 3,900,000 it requests the same heap bytes.  Its walk allocates
// O(Is x opportunities), never O(Fup): a cold analyze requests the same
// bytes at Fup = 390 and 39,000, and a walk on a warm workspace requests
// only its result's vectors.  The test counts bytes by replacing the
// global allocator, so it is a binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "whart/common/obs.hpp"
#include "whart/hart/path_model.hpp"

// GCC pairs the replaced operator new with the library free() at inlined
// call sites and reports a mismatch; the replacement below routes every
// new through malloc, so new/free pairing is correct by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::size_t> g_alloc_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
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

}  // namespace
}  // namespace whart::hart
