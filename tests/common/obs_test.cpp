// Observability subsystem: metric primitives, the process-wide registry
// (including thread-safety under the pool's fan-out), log-bucketed
// histogram boundaries, trace spans and the runtime enable flags.
#include "whart/common/obs.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "whart/common/parallel.hpp"

namespace whart::common::obs {
namespace {

/// Restores the global enable flags on scope exit so tests compose.
struct FlagGuard {
  bool metrics = metrics_enabled();
  bool trace = trace_enabled();
  bool events = events_enabled();
  ~FlagGuard() {
    set_metrics_enabled(metrics);
    set_trace_enabled(trace);
    set_events_enabled(events);
  }
};

TEST(Counter, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  g.set(1.5);
  g.set(-2.25);
  EXPECT_EQ(g.value(), -2.25);
}

TEST(Histogram, BucketBoundariesArePowersOfTwo) {
  // Bucket 0 = {0}; bucket i >= 1 = [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(UINT64_MAX), 64u);
  for (std::size_t i = 1; i < Histogram::kBucketCount; ++i) {
    const std::uint64_t lower = Histogram::bucket_lower_bound(i);
    const std::uint64_t upper = Histogram::bucket_upper_bound(i);
    EXPECT_EQ(lower, std::uint64_t{1} << (i - 1));
    EXPECT_EQ(Histogram::bucket_index(lower), i);
    EXPECT_EQ(Histogram::bucket_index(upper), i);
    if (i + 1 < Histogram::kBucketCount) {
      EXPECT_EQ(upper + 1, Histogram::bucket_lower_bound(i + 1));
    }
  }
  EXPECT_EQ(Histogram::bucket_lower_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound(64), UINT64_MAX);
}

TEST(Histogram, RecordsCountSumMinMax) {
  Histogram h;
  h.record(0);
  h.record(7);
  h.record(1024);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1031u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_EQ(h.bucket_count(0), 1u);   // the 0
  EXPECT_EQ(h.bucket_count(3), 1u);   // 7 in [4, 7]
  EXPECT_EQ(h.bucket_count(11), 1u);  // 1024 in [1024, 2047]
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramQuantile, ExactWhenOneValuePerBucket) {
  Registry& reg = Registry::instance();
  Histogram& h = reg.histogram("test.obs.quantile.single");
  h.reset();
  h.record(4);
  const HistogramSnapshot snap =
      reg.snapshot().histograms.at("test.obs.quantile.single");
  // A single observation: every quantile collapses to it.
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 4.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 4.0);
}

TEST(HistogramQuantile, ClampedToObservedRange) {
  Registry& reg = Registry::instance();
  Histogram& h = reg.histogram("test.obs.quantile.clamp");
  h.reset();
  h.record(100);
  h.record(120);
  const HistogramSnapshot snap =
      reg.snapshot().histograms.at("test.obs.quantile.clamp");
  // Both values land in bucket [64, 127]; interpolation must stay
  // inside [min, max], not wander to the bucket boundaries.
  EXPECT_GE(snap.quantile(0.01), 100.0);
  EXPECT_LE(snap.quantile(0.99), 120.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 120.0);
}

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  Registry& reg = Registry::instance();
  reg.histogram("test.obs.quantile.empty").reset();
  const HistogramSnapshot snap =
      reg.snapshot().histograms.at("test.obs.quantile.empty");
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.p99(), 0.0);
}

TEST(HistogramQuantile, GoldenUniformDistribution) {
  Registry& reg = Registry::instance();
  Histogram& h = reg.histogram("test.obs.quantile.golden");
  h.reset();
  // Uniform 1..1000: the true quantile q sits near 1000 * q.  Log
  // buckets blur within a factor of 2, and linear interpolation inside
  // the crossing bucket recovers most of it; assert a generous +-25%
  // relative window plus the hard bucket-boundary bound.
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const HistogramSnapshot snap =
      reg.snapshot().histograms.at("test.obs.quantile.golden");
  const struct {
    double q;
    double expected;
  } cases[] = {{0.50, 500.0}, {0.90, 900.0}, {0.99, 990.0}};
  for (const auto& c : cases) {
    const double estimate = snap.quantile(c.q);
    EXPECT_GE(estimate, c.expected * 0.75) << "q=" << c.q;
    EXPECT_LE(estimate, c.expected * 1.25) << "q=" << c.q;
  }
  // Monotone in q.
  EXPECT_LE(snap.p50(), snap.p90());
  EXPECT_LE(snap.p90(), snap.p99());
}

TEST(EventLogTest, RecordsAndDrains) {
  FlagGuard guard;
  set_events_enabled(true);
  EventLog& log = EventLog::instance();
  log.clear();
  WHART_EVENT(kSolveDone, "test.obs.events.solve", 7, 9);
  WHART_EVENT(kGeneric, "test.obs.events.generic", 1, 0);
  const std::vector<EventRecord> events = log.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kSolveDone);
  EXPECT_EQ(log.name(events[0].name_id), "test.obs.events.solve");
  EXPECT_EQ(events[0].payload0, 7u);
  EXPECT_EQ(events[0].payload1, 9u);
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);

  std::ostringstream jsonl;
  log.write_jsonl(jsonl);
  const std::string text = jsonl.str();
  EXPECT_NE(text.find("\"kind\": \"solve_done\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"test.obs.events.generic\""),
            std::string::npos);
  log.clear();
  EXPECT_TRUE(log.events().empty());
}

TEST(EventLogTest, DisabledRecordsNothing) {
  FlagGuard guard;
  EventLog& log = EventLog::instance();
  log.clear();
  set_events_enabled(false);
  WHART_EVENT(kGeneric, "test.obs.events.off", 0, 0);
  EXPECT_TRUE(log.events().empty());
}

TEST(EventLogTest, RingOverwritesOldestAndCountsDrops) {
  FlagGuard guard;
  set_events_enabled(true);
  EventLog& log = EventLog::instance();
  log.clear();
  const std::uint64_t dropped_before = log.dropped();
  constexpr std::uint64_t kTotal = 5000;  // well past the ring capacity
  for (std::uint64_t i = 0; i < kTotal; ++i)
    WHART_EVENT(kGeneric, "test.obs.events.flood", i, 0);
  const std::vector<EventRecord> events = log.events();
  ASSERT_FALSE(events.empty());
  EXPECT_LT(events.size(), kTotal);
  EXPECT_GT(log.dropped(), dropped_before);
  // The survivors are the newest records, in order.
  EXPECT_EQ(events.back().payload0, kTotal - 1);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_EQ(events[i].payload0, events[i - 1].payload0 + 1);
  log.clear();
}

TEST(EventKindNames, AreSnakeCase) {
  EXPECT_STREQ(event_kind_name(EventKind::kGeneric), "generic");
  EXPECT_STREQ(event_kind_name(EventKind::kRequestBegin), "request_begin");
  EXPECT_STREQ(event_kind_name(EventKind::kTaskSubmit), "task_submit");
  EXPECT_STREQ(event_kind_name(EventKind::kContractFailure),
               "contract_failure");
}

TEST(Registry, SameNameSameMetric) {
  Registry& reg = Registry::instance();
  Counter& a = reg.counter("test.obs.same_name");
  Counter& b = reg.counter("test.obs.same_name");
  EXPECT_EQ(&a, &b);
  // A histogram and a counter may share a name (separate namespaces).
  Histogram& h = reg.histogram("test.obs.same_name");
  EXPECT_NE(static_cast<void*>(&h), static_cast<void*>(&a));
}

TEST(Registry, SnapshotSeesRecordedValues) {
  FlagGuard guard;
  set_metrics_enabled(true);
  Registry& reg = Registry::instance();
  reg.counter("test.obs.snapshot.counter").reset();
  reg.counter("test.obs.snapshot.counter").add(5);
  reg.gauge("test.obs.snapshot.gauge").set(2.5);
  reg.histogram("test.obs.snapshot.hist").reset();
  reg.histogram("test.obs.snapshot.hist").record(100);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("test.obs.snapshot.counter"), 5u);
  EXPECT_EQ(snap.gauges.at("test.obs.snapshot.gauge"), 2.5);
  const HistogramSnapshot& h = snap.histograms.at("test.obs.snapshot.hist");
  EXPECT_EQ(h.count, 1u);
  EXPECT_EQ(h.sum, 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 100.0);
  ASSERT_EQ(h.buckets.size(), 1u);
  EXPECT_LE(h.buckets[0].lower, 100u);
  EXPECT_GE(h.buckets[0].upper, 100u);
}

TEST(Registry, ReferencesSurviveReset) {
  Registry& reg = Registry::instance();
  Counter& c = reg.counter("test.obs.reset.survivor");
  c.add(3);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // zeroed, not dangling
  c.add(1);
  EXPECT_EQ(reg.snapshot().counters.at("test.obs.reset.survivor"), 1u);
}

TEST(Registry, ConcurrentRegistrationAndIncrementUnderParallelFor) {
  FlagGuard guard;
  set_metrics_enabled(true);
  Registry& reg = Registry::instance();
  reg.counter("test.obs.parallel.counter").reset();
  reg.histogram("test.obs.parallel.hist").reset();

  constexpr std::size_t kTasks = 1000;
  parallel_for(
      kTasks,
      [&](std::size_t i) {
        // Mixed first-lookup and hot-path traffic from every worker.
        WHART_COUNT("test.obs.parallel.counter");
        WHART_OBSERVE("test.obs.parallel.hist", i);
        Registry::instance().gauge("test.obs.parallel.gauge").set(
            static_cast<double>(i));
      },
      8);

  EXPECT_EQ(reg.counter("test.obs.parallel.counter").value(), kTasks);
  EXPECT_EQ(reg.histogram("test.obs.parallel.hist").count(), kTasks);
}

TEST(RuntimeFlags, DisabledMetricsRecordNothing) {
  FlagGuard guard;
  Registry& reg = Registry::instance();
  reg.counter("test.obs.flag.counter").reset();
  set_metrics_enabled(false);
  WHART_COUNT("test.obs.flag.counter");
  EXPECT_EQ(reg.counter("test.obs.flag.counter").value(), 0u);
  set_metrics_enabled(true);
  WHART_COUNT("test.obs.flag.counter");
  EXPECT_EQ(reg.counter("test.obs.flag.counter").value(), 1u);
}

TEST(Trace, DisabledByDefaultAndRecordsWhenEnabled) {
  FlagGuard guard;
  TraceCollector& collector = TraceCollector::instance();
  set_trace_enabled(false);
  collector.clear();
  { WHART_SPAN("test_span_off"); }
  EXPECT_TRUE(collector.events().empty());

  set_trace_enabled(true);
  {
    WHART_SPAN("test_span_outer");
    WHART_SPAN("test_span_inner");
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  set_trace_enabled(false);

  const std::vector<SpanRecord> events = collector.events();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: outer opened first.
  EXPECT_STREQ(events[0].name, "test_span_outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_STREQ(events[1].name, "test_span_inner");
  EXPECT_EQ(events[1].depth, 1u);
  // The inner span nests inside the outer one.
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(events[1].start_ns + events[1].duration_ns,
            events[0].start_ns + events[0].duration_ns);

  const std::vector<SpanAggregate> aggregates = collector.aggregate();
  ASSERT_EQ(aggregates.size(), 2u);
  for (const SpanAggregate& a : aggregates) {
    EXPECT_EQ(a.count, 1u);
    EXPECT_EQ(a.total_ns, a.min_ns);
    EXPECT_EQ(a.total_ns, a.max_ns);
  }
  collector.clear();
  EXPECT_TRUE(collector.events().empty());
}

TEST(Trace, MergesSpansAcrossPoolThreads) {
  FlagGuard guard;
  TraceCollector& collector = TraceCollector::instance();
  collector.clear();
  set_trace_enabled(true);
  constexpr std::size_t kTasks = 64;
  parallel_for(
      kTasks, [&](std::size_t) { WHART_SPAN("test_span_worker"); }, 4);
  set_trace_enabled(false);

  std::size_t worker_spans = 0;
  for (const SpanRecord& e : collector.events())
    if (std::string_view(e.name) == "test_span_worker") ++worker_spans;
  // parallel_for itself opens a span on the calling thread.
  EXPECT_EQ(worker_spans, kTasks);
  collector.clear();
}

TEST(ScopedTimerTest, RecordsIntoHistogram) {
  Histogram h;
  {
    ScopedTimer timer(&h);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 1000u);  // at least 1us of the 100us slept
  ScopedTimer noop(nullptr);  // must be safe
}

// Overhead guard: with metrics runtime-disabled, an instrumented loop
// must cost essentially the same as the identical macro-free loop (the
// macro is one relaxed atomic load).  The bound is deliberately loose
// (3x) so sanitizer/CI jitter cannot fail it; the real regression this
// catches is accidental work (locks, allocation) on the disabled path.
TEST(Overhead, RuntimeDisabledPathIsCheap) {
  FlagGuard guard;
  set_metrics_enabled(false);
  constexpr int kIterations = 20000;

  const auto work = [](int i) {
    double acc = 0.0;
    for (int k = 0; k < 50; ++k)
      acc += std::sin(static_cast<double>(i + k));
    return acc;
  };

  const auto time_loop = [&](bool instrumented) {
    double sink = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIterations; ++i) {
      if (instrumented) {
        WHART_COUNT("test.obs.overhead.counter");
        WHART_OBSERVE("test.obs.overhead.hist", i);
      }
      sink += work(i);
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_NE(sink, 0.0);  // keep the work alive
    return std::chrono::duration<double>(elapsed).count();
  };

  time_loop(false);  // warm up
  const double plain = time_loop(false);
  const double instrumented = time_loop(true);
  EXPECT_LT(instrumented, plain * 3.0 + 1e-3);
}

}  // namespace
}  // namespace whart::common::obs
