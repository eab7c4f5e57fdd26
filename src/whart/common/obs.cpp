#include "whart/common/obs.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <ostream>

namespace whart::common::obs {

// ---------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------

std::size_t Histogram::bucket_index(std::uint64_t value) noexcept {
  return static_cast<std::size_t>(std::bit_width(value));
}

std::uint64_t Histogram::bucket_lower_bound(std::size_t index) noexcept {
  if (index == 0) return 0;
  return std::uint64_t{1} << (index - 1);
}

std::uint64_t Histogram::bucket_upper_bound(std::size_t index) noexcept {
  if (index == 0) return 0;
  if (index >= 64) return UINT64_MAX;
  return (std::uint64_t{1} << index) - 1;
}

void Histogram::record(std::uint64_t value) noexcept {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::min() const noexcept {
  const std::uint64_t value = min_.load(std::memory_order_relaxed);
  return value == UINT64_MAX ? 0 : value;
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min);
  if (q >= 1.0) return static_cast<double>(max);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (const Bucket& bucket : buckets) {
    const std::uint64_t next = cumulative + bucket.count;
    if (static_cast<double>(next) >= target && bucket.count > 0) {
      // The log buckets are coarse at the top end; the observed min/max
      // bound the samples more tightly than the bucket edges do.
      const double lo = std::max(static_cast<double>(bucket.lower),
                                 static_cast<double>(min));
      const double hi = std::min(static_cast<double>(bucket.upper),
                                 static_cast<double>(max));
      if (hi <= lo) return lo;
      const double position = (target - static_cast<double>(cumulative)) /
                              static_cast<double>(bucket.count);
      return lo + position * (hi - lo);
    }
    cumulative = next;
  }
  return static_cast<double>(max);
}

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

namespace {

template <typename Map, typename Metric = typename Map::mapped_type::element_type>
Metric& find_or_create(Map& map, std::string_view name, std::mutex& mutex) {
  const std::lock_guard lock(mutex);
  if (const auto it = map.find(name); it != map.end()) return *it->second;
  auto [it, inserted] =
      map.emplace(std::string(name), std::make_unique<Metric>());
  return *it->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  return find_or_create(counters_, name, mutex_);
}

Gauge& Registry::gauge(std::string_view name) {
  return find_or_create(gauges_, name, mutex_);
}

Histogram& Registry::histogram(std::string_view name) {
  return find_or_create(histograms_, name, mutex_);
}

MetricsSnapshot Registry::snapshot() const {
  const std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_)
    snap.counters.emplace(name, counter->value());
  for (const auto& [name, gauge] : gauges_)
    snap.gauges.emplace(name, gauge->value());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.count = histogram->count();
    h.sum = histogram->sum();
    h.min = histogram->min();
    h.max = histogram->max();
    for (std::size_t b = 0; b < Histogram::kBucketCount; ++b) {
      const std::uint64_t in_bucket = histogram->bucket_count(b);
      if (in_bucket == 0) continue;
      h.buckets.push_back({Histogram::bucket_lower_bound(b),
                           Histogram::bucket_upper_bound(b), in_bucket});
    }
    snap.histograms.emplace(name, std::move(h));
  }
  return snap;
}

void Registry::reset() {
  const std::lock_guard lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->reset();
  for (const auto& [name, gauge] : gauges_) gauge->reset();
  for (const auto& [name, histogram] : histograms_) histogram->reset();
}

// ---------------------------------------------------------------------
// Runtime flags.
// ---------------------------------------------------------------------

namespace {
std::atomic<bool> g_metrics_enabled{true};
std::atomic<bool> g_trace_enabled{false};
std::atomic<bool> g_events_enabled{true};
}  // namespace

bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool enabled) noexcept {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}
bool trace_enabled() noexcept {
  return g_trace_enabled.load(std::memory_order_relaxed);
}
void set_trace_enabled(bool enabled) noexcept {
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}
bool events_enabled() noexcept {
  return g_events_enabled.load(std::memory_order_relaxed);
}
void set_events_enabled(bool enabled) noexcept {
  g_events_enabled.store(enabled, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Trace clock, epochs and causality ids.
// ---------------------------------------------------------------------

namespace {

/// Epoch shared by every span; advanced by TraceCollector::clear().
std::atomic<std::int64_t> g_epoch_ns{0};

/// Generation counter bumped by TraceCollector::clear(): spans and task
/// links stamped with an older epoch discard themselves instead of
/// polluting the fresh buffers.  Starts at 1 so a default-constructed
/// TaskLink's epoch 0 never matches a live epoch.
std::atomic<std::uint64_t> g_clear_epoch{1};

std::atomic<std::uint64_t> g_next_span_id{0};
std::atomic<std::uint64_t> g_next_request_id{0};
std::atomic<std::uint64_t> g_next_flow_id{0};

thread_local TraceContext g_trace_context;

std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr const char* kPoolTaskSpanName = "pool_task";

}  // namespace

TraceContext current_trace_context() noexcept { return g_trace_context; }

std::uint64_t trace_now_ns() noexcept {
  std::int64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
  if (epoch == 0) {
    // First use: pin the epoch (benign race — first writer wins).
    std::int64_t expected = 0;
    const std::int64_t now = steady_ns();
    g_epoch_ns.compare_exchange_strong(expected, now,
                                       std::memory_order_relaxed);
    epoch = g_epoch_ns.load(std::memory_order_relaxed);
  }
  const std::int64_t now = steady_ns();
  return now > epoch ? static_cast<std::uint64_t>(now - epoch) : 0;
}

// ---------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------

const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kGeneric: return "generic";
    case EventKind::kRequestBegin: return "request_begin";
    case EventKind::kRequestEnd: return "request_end";
    case EventKind::kTaskSubmit: return "task_submit";
    case EventKind::kTaskStart: return "task_start";
    case EventKind::kSolveDone: return "solve_done";
    case EventKind::kContractFailure: return "contract_failure";
    case EventKind::kTraceClear: return "trace_clear";
  }
  return "unknown";
}

/// One thread's event ring.  `records` grows to kRingCapacity and then
/// wraps (cursor `next`); guarded by `mutex` so drains can read while
/// the owner appends.
struct EventLog::ThreadRing {
  std::mutex mutex;
  std::vector<EventRecord> records;
  std::size_t next = 0;
  std::uint32_t thread_id = 0;
};

EventLog& EventLog::instance() {
  static EventLog log;
  return log;
}

EventLog::ThreadRing& EventLog::local_ring() {
  thread_local std::shared_ptr<ThreadRing> ring = [this] {
    auto fresh = std::make_shared<ThreadRing>();
    const std::lock_guard lock(mutex_);
    fresh->thread_id = next_thread_id_++;
    rings_.push_back(fresh);
    return fresh;
  }();
  return *ring;
}

std::uint16_t EventLog::intern(const char* name) {
  const std::lock_guard lock(mutex_);
  if (names_.empty()) {
    names_.push_back("");  // id 0 = unnamed
  }
  const std::string_view key(name);
  if (const auto it = ids_.find(key); it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint16_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(std::string_view(names_.back()), id);
  return id;
}

void EventLog::record(EventKind kind, std::uint16_t name_id, std::uint64_t p0,
                      std::uint64_t p1) noexcept {
  ThreadRing& ring = local_ring();
  EventRecord rec;
  rec.ts_ns = trace_now_ns();
  rec.payload0 = p0;
  rec.payload1 = p1;
  rec.thread_id = ring.thread_id;
  rec.kind = kind;
  rec.name_id = name_id;
  const std::lock_guard lock(ring.mutex);
  if (ring.records.size() < kRingCapacity) {
    ring.records.push_back(rec);
  } else {
    ring.records[ring.next] = rec;
    ring.next = (ring.next + 1) % kRingCapacity;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<EventRecord> EventLog::events() const {
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    const std::lock_guard lock(mutex_);
    rings = rings_;
  }
  std::vector<EventRecord> merged;
  for (const auto& ring : rings) {
    const std::lock_guard lock(ring->mutex);
    // Ring order: [next, end) is oldest when the ring has wrapped.
    merged.insert(merged.end(), ring->records.begin() + static_cast<std::ptrdiff_t>(ring->next),
                  ring->records.end());
    merged.insert(merged.end(), ring->records.begin(),
                  ring->records.begin() + static_cast<std::ptrdiff_t>(ring->next));
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const EventRecord& a, const EventRecord& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return merged;
}

std::string EventLog::name(std::uint16_t id) const {
  const std::lock_guard lock(mutex_);
  if (id >= names_.size()) return "";
  return names_[id];
}

std::uint64_t EventLog::dropped() const noexcept {
  return dropped_.load(std::memory_order_relaxed);
}

void EventLog::clear() {
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    const std::lock_guard lock(mutex_);
    rings = rings_;
  }
  for (const auto& ring : rings) {
    const std::lock_guard lock(ring->mutex);
    ring->records.clear();
    ring->next = 0;
  }
  dropped_.store(0, std::memory_order_relaxed);
}

namespace {

/// Minimal JSON string escaping for event names / contract messages.
std::string jsonl_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void EventLog::write_jsonl(std::ostream& out, std::size_t last_n) const {
  std::vector<EventRecord> records = events();
  // Snapshot the name table once (id -> text) instead of locking per
  // record.
  std::vector<std::string> names;
  {
    const std::lock_guard lock(mutex_);
    names.assign(names_.begin(), names_.end());
  }
  std::size_t first = 0;
  if (last_n > 0 && records.size() > last_n) first = records.size() - last_n;
  for (std::size_t i = first; i < records.size(); ++i) {
    const EventRecord& rec = records[i];
    const std::string_view name =
        rec.name_id < names.size() ? std::string_view(names[rec.name_id])
                                   : std::string_view{};
    out << "{\"ts_ns\": " << rec.ts_ns << ", \"thread\": " << rec.thread_id
        << ", \"kind\": \"" << event_kind_name(rec.kind) << "\", \"name\": \""
        << jsonl_escape(name) << "\", \"p0\": " << rec.payload0
        << ", \"p1\": " << rec.payload1 << "}\n";
  }
}

// ---------------------------------------------------------------------
// Contract-failure dump.
// ---------------------------------------------------------------------

namespace {

std::mutex g_dump_path_mutex;
std::string g_dump_path;
bool g_dump_path_set = false;

/// Keep crash dumps small and readable; the full ring is available via
/// the normal events.jsonl drain.
constexpr std::size_t kContractDumpEvents = 256;

}  // namespace

void set_contract_dump_path(std::string path) {
  const std::lock_guard lock(g_dump_path_mutex);
  g_dump_path = std::move(path);
  g_dump_path_set = true;
}

std::string contract_dump_path() {
  const std::lock_guard lock(g_dump_path_mutex);
  if (!g_dump_path_set) {
    if (const char* env = std::getenv("WHART_EVENTS_DUMP")) g_dump_path = env;
    g_dump_path_set = true;
  }
  return g_dump_path;
}

}  // namespace whart::common::obs

namespace whart::detail {

void notify_contract_failure(const char* what) noexcept {
  using namespace whart::common::obs;
  try {
    if (!events_enabled()) return;
    EventLog& log = EventLog::instance();
    const std::uint16_t name_id = log.intern("contract.failure");
    log.record(EventKind::kContractFailure, name_id, 0, 0);
    const std::string path = contract_dump_path();
    if (path.empty()) return;
    std::ofstream out(path, std::ios::trunc);
    if (!out) return;
    out << "{\"kind\": \"contract_failure\", \"what\": \""
        << jsonl_escape(what != nullptr ? what : "") << "\"}\n";
    log.write_jsonl(out, kContractDumpEvents);
  } catch (...) {
    // The dump is best-effort context for the real failure; never let
    // it mask the contract exception about to be thrown.
  }
}

}  // namespace whart::detail

namespace whart::common::obs {

// ---------------------------------------------------------------------
// Trace collector.
// ---------------------------------------------------------------------

/// One thread's completed spans/flows plus its live nesting depth.
/// `depth` is touched only by the owning thread; `records` and `flows`
/// are guarded by `mutex` so the collector can read while the owner
/// appends.
struct TraceCollector::ThreadBuffer {
  std::mutex mutex;
  std::vector<SpanRecord> records;
  std::vector<FlowRecord> flows;
  std::uint32_t thread_id = 0;
  std::uint32_t depth = 0;
};

TraceCollector& TraceCollector::instance() {
  static TraceCollector collector;
  return collector;
}

TraceCollector::ThreadBuffer& TraceCollector::local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [this] {
    auto fresh = std::make_shared<ThreadBuffer>();
    const std::lock_guard lock(mutex_);
    fresh->thread_id = next_thread_id_++;
    buffers_.push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

void TraceCollector::record_flow(std::uint64_t flow_id, std::uint64_t ts_ns,
                                 bool begin) {
  ThreadBuffer& buffer = local_buffer();
  const std::lock_guard lock(buffer.mutex);
  buffer.flows.push_back({flow_id, ts_ns, buffer.thread_id, begin});
}

std::vector<SpanRecord> TraceCollector::events() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::lock_guard lock(mutex_);
    buffers = buffers_;
  }
  std::vector<SpanRecord> merged;
  for (const auto& buffer : buffers) {
    const std::lock_guard lock(buffer->mutex);
    merged.insert(merged.end(), buffer->records.begin(),
                  buffer->records.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.thread_id != b.thread_id) return a.thread_id < b.thread_id;
              return a.span_id < b.span_id;
            });
  return merged;
}

std::vector<FlowRecord> TraceCollector::flows() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::lock_guard lock(mutex_);
    buffers = buffers_;
  }
  std::vector<FlowRecord> merged;
  for (const auto& buffer : buffers) {
    const std::lock_guard lock(buffer->mutex);
    merged.insert(merged.end(), buffer->flows.begin(), buffer->flows.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              if (a.flow_id != b.flow_id) return a.flow_id < b.flow_id;
              // begin sorts before end within a flow.
              return a.begin && !b.begin;
            });
  return merged;
}

std::vector<SpanAggregate> TraceCollector::aggregate() const {
  struct NamedDurations {
    SpanAggregate agg;
    std::vector<std::uint64_t> durations;
  };
  std::map<std::string, NamedDurations> by_name;
  for (const SpanRecord& record : events()) {
    NamedDurations& entry = by_name[record.name];
    SpanAggregate& agg = entry.agg;
    if (agg.count == 0) {
      agg.name = record.name;
      agg.min_ns = record.duration_ns;
    }
    ++agg.count;
    agg.total_ns += record.duration_ns;
    agg.min_ns = std::min(agg.min_ns, record.duration_ns);
    agg.max_ns = std::max(agg.max_ns, record.duration_ns);
    entry.durations.push_back(record.duration_ns);
  }
  std::vector<SpanAggregate> result;
  result.reserve(by_name.size());
  for (auto& [name, entry] : by_name) {
    std::sort(entry.durations.begin(), entry.durations.end());
    // Exact nearest-rank quantiles over the full duration list.
    const auto rank = [&](double q) {
      const std::size_t n = entry.durations.size();
      const auto idx = static_cast<std::size_t>(q * static_cast<double>(n));
      return entry.durations[std::min(idx, n - 1)];
    };
    entry.agg.p50_ns = rank(0.50);
    entry.agg.p90_ns = rank(0.90);
    entry.agg.p99_ns = rank(0.99);
    result.push_back(std::move(entry.agg));
  }
  std::sort(result.begin(), result.end(),
            [](const SpanAggregate& a, const SpanAggregate& b) {
              if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
              return a.name < b.name;
            });
  return result;
}

void TraceCollector::clear() {
  // Advance the generation first: spans/links already in flight see the
  // new epoch at completion and discard themselves.
  g_clear_epoch.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::lock_guard lock(mutex_);
    buffers = buffers_;
  }
  for (const auto& buffer : buffers) {
    const std::lock_guard lock(buffer->mutex);
    buffer->records.clear();
    buffer->flows.clear();
  }
  g_epoch_ns.store(steady_ns(), std::memory_order_relaxed);
  WHART_EVENT(kTraceClear, "obs.trace", 0, 0);
}

// ---------------------------------------------------------------------
// Spans, request spans, task links and timers.
// ---------------------------------------------------------------------

ScopedSpan::ScopedSpan(const char* name) noexcept : ScopedSpan(name, 0) {}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t flow_id) noexcept
    : name_(name) {
  if (!trace_enabled()) return;
  active_ = true;
  epoch_ = g_clear_epoch.load(std::memory_order_relaxed);
  span_id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed) + 1;
  saved_ = g_trace_context;
  parent_id_ = saved_.span_id;
  request_id_ = saved_.request_id;
  flow_id_ = flow_id;
  g_trace_context.span_id = span_id_;
  ++TraceCollector::instance().local_buffer().depth;
  start_ns_ = trace_now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const std::uint64_t end_ns = trace_now_ns();
  TraceCollector::ThreadBuffer& buffer =
      TraceCollector::instance().local_buffer();
  --buffer.depth;
  g_trace_context = saved_;
  // A clear() advanced the epoch while this span was open: its start
  // time belongs to the discarded timeline, so drop the record.
  if (g_clear_epoch.load(std::memory_order_relaxed) != epoch_) return;
  SpanRecord record;
  record.name = name_;
  record.thread_id = buffer.thread_id;
  record.depth = buffer.depth;
  record.start_ns = start_ns_;
  record.duration_ns = end_ns >= start_ns_ ? end_ns - start_ns_ : 0;
  record.span_id = span_id_;
  record.parent_id = parent_id_;
  record.request_id = request_id_;
  record.flow_id = flow_id_;
  const std::lock_guard lock(buffer.mutex);
  buffer.records.push_back(record);
}

ScopedRequestSpan::RequestMark::RequestMark(const char* name_in) noexcept
    : name(name_in) {
  const bool events = events_enabled();
  if (!events && !trace_enabled()) return;
  marked = true;
  saved = g_trace_context.request_id;
  root = saved == 0;
  id = root ? g_next_request_id.fetch_add(1, std::memory_order_relaxed) + 1
            : saved;
  g_trace_context.request_id = id;
  start_ns = trace_now_ns();
  if (events && root) {
    // The name is a per-instantiation literal but this is not a macro
    // expansion, so intern on every entry (requests are coarse).
    EventLog& log = EventLog::instance();
    log.record(EventKind::kRequestBegin, log.intern(name), id, 0);
  }
}

ScopedRequestSpan::RequestMark::~RequestMark() {
  if (!marked) return;
  g_trace_context.request_id = saved;
  if (root && events_enabled()) {
    const std::uint64_t end_ns = trace_now_ns();
    EventLog& log = EventLog::instance();
    log.record(EventKind::kRequestEnd, log.intern(name), id,
               end_ns >= start_ns ? end_ns - start_ns : 0);
  }
}

// Member order matters: request_ first, so the span (constructed after)
// inherits the fresh request id from the ambient context, and the
// request_end event (emitted after the span closes) covers it fully.
ScopedRequestSpan::ScopedRequestSpan(const char* name) noexcept
    : request_(name), span_(name) {}

ScopedRequestSpan::~ScopedRequestSpan() = default;

TaskLink TaskLink::begin() noexcept {
  TaskLink link;
  if (!trace_enabled()) return link;
  link.ctx_ = g_trace_context;
  link.epoch_ = g_clear_epoch.load(std::memory_order_relaxed);
  link.flow_id_ = g_next_flow_id.fetch_add(1, std::memory_order_relaxed) + 1;
  TraceCollector::instance().record_flow(link.flow_id_, trace_now_ns(),
                                         /*begin=*/true);
  return link;
}

TaskScope::TaskScope(const TaskLink& link) noexcept {
  if (!link.active() || !trace_enabled()) return;
  if (g_clear_epoch.load(std::memory_order_relaxed) != link.epoch_) return;
  active_ = true;
  epoch_ = link.epoch_;
  saved_ = g_trace_context;
  parent_id_ = link.ctx_.span_id;
  request_id_ = link.ctx_.request_id;
  flow_id_ = link.flow_id_;
  span_id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed) + 1;
  g_trace_context = {span_id_, request_id_};
  TraceCollector& collector = TraceCollector::instance();
  ++collector.local_buffer().depth;
  start_ns_ = trace_now_ns();
  collector.record_flow(flow_id_, start_ns_, /*begin=*/false);
}

TaskScope::~TaskScope() {
  if (!active_) return;
  const std::uint64_t end_ns = trace_now_ns();
  TraceCollector::ThreadBuffer& buffer =
      TraceCollector::instance().local_buffer();
  --buffer.depth;
  g_trace_context = saved_;
  if (g_clear_epoch.load(std::memory_order_relaxed) != epoch_) return;
  SpanRecord record;
  record.name = kPoolTaskSpanName;
  record.thread_id = buffer.thread_id;
  record.depth = buffer.depth;
  record.start_ns = start_ns_;
  record.duration_ns = end_ns >= start_ns_ ? end_ns - start_ns_ : 0;
  record.span_id = span_id_;
  record.parent_id = parent_id_;
  record.request_id = request_id_;
  record.flow_id = flow_id_;
  const std::lock_guard lock(buffer.mutex);
  buffer.records.push_back(record);
}

ScopedTimer::ScopedTimer(Histogram* histogram) noexcept
    : histogram_(histogram) {
  if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
}

ScopedTimer::~ScopedTimer() {
  if (histogram_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  histogram_->record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
          .count()));
}

}  // namespace whart::common::obs
