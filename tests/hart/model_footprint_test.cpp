// A PathModel holds its firing table — the ordered transmission
// opportunities and each hop's first time layer — and nothing sized by
// the frame: built with the same hops at Fup = 390 and at
// Fup = 3,900,000 it requests the same heap bytes.  The test counts
// bytes by replacing the global allocator, so it is a binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

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

std::size_t build_bytes(std::uint32_t frame) {
  PathModelConfig config;
  config.hop_slots = {1, 2, 3, 4};
  config.retry_slots = {5, 0, 6, 0};
  config.superframe = net::SuperframeConfig{frame, frame};
  config.reporting_interval = 4;
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

}  // namespace
}  // namespace whart::hart
