// JSON export of metrics snapshots and Chrome trace_event span dumps:
// structural well-formedness (checked by a tiny JSON scanner — no JSON
// library is available by design), escaping, and the derived figures.
#include "whart/report/metrics_export.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "whart/common/obs.hpp"

namespace whart::report {
namespace {

using common::obs::FlowRecord;
using common::obs::HistogramSnapshot;
using common::obs::MetricsSnapshot;
using common::obs::SpanAggregate;
using common::obs::SpanRecord;

/// Minimal structural JSON validator: tracks bracket/brace nesting and
/// string/escape state.  Catches unbalanced structure, raw control
/// characters and bare inf/nan tokens — the failure modes a
/// hand-written serializer can actually produce.
bool json_well_formed(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped)
        escaped = false;
      else if (c == '\\')
        escaped = true;
      else if (c == '"')
        in_string = false;
      else if (static_cast<unsigned char>(c) < 0x20)
        return false;  // raw control char inside a string
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  if (in_string || !stack.empty()) return false;
  if (text.find("inf") != std::string::npos) return false;
  if (text.find("nan") != std::string::npos) return false;
  return true;
}

MetricsSnapshot sample_snapshot() {
  MetricsSnapshot snapshot;
  snapshot.counters["hart.path_cache.hits"] = 30;
  snapshot.counters["hart.path_cache.misses"] = 10;
  snapshot.counters["parallel.tasks"] = 4;
  snapshot.counters["parallel.busy_ns"] = 4000;
  snapshot.gauges["parallel.pool.size"] = 8.0;
  HistogramSnapshot hist;
  hist.count = 2;
  hist.sum = 12;
  hist.min = 4;
  hist.max = 8;
  hist.buckets = {{4, 7, 1}, {8, 15, 1}};
  snapshot.histograms["hart.path_solve.ns"] = hist;
  return snapshot;
}

TEST(MetricsExport, WritesWellFormedJsonWithAllSections) {
  std::ostringstream out;
  write_metrics_json(out, sample_snapshot());
  const std::string text = out.str();
  EXPECT_TRUE(json_well_formed(text)) << text;
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("\"gauges\""), std::string::npos);
  EXPECT_NE(text.find("\"histograms\""), std::string::npos);
  EXPECT_NE(text.find("\"derived\""), std::string::npos);
  EXPECT_NE(text.find("\"hart.path_cache.hits\": 30"), std::string::npos);
  EXPECT_NE(text.find("\"hart.path_solve.ns\""), std::string::npos);
}

TEST(MetricsExport, DerivesMeanTaskTime) {
  std::ostringstream out;
  write_metrics_json(out, sample_snapshot());
  const std::string text = out.str();
  // 4000 ns / 4 tasks; cache counters in a snapshot derive nothing.
  EXPECT_NE(text.find("\"parallel_mean_task_ns\": 1000"), std::string::npos);
  EXPECT_EQ(text.find("cache_hit_ratio"), std::string::npos);
}

TEST(MetricsExport, EmptySnapshotStillValid) {
  std::ostringstream out;
  write_metrics_json(out, MetricsSnapshot{});
  EXPECT_TRUE(json_well_formed(out.str())) << out.str();
}

TEST(MetricsExport, NonFiniteGaugeBecomesNull) {
  MetricsSnapshot snapshot;
  snapshot.gauges["bad.gauge"] = std::numeric_limits<double>::infinity();
  std::ostringstream out;
  write_metrics_json(out, snapshot);
  const std::string text = out.str();
  EXPECT_TRUE(json_well_formed(text)) << text;
  EXPECT_NE(text.find("\"bad.gauge\": null"), std::string::npos);
}

TEST(MetricsExport, EscapesMetricNames) {
  MetricsSnapshot snapshot;
  snapshot.counters["evil\"name\\with\nnewline"] = 1;
  std::ostringstream out;
  write_metrics_json(out, snapshot);
  EXPECT_TRUE(json_well_formed(out.str())) << out.str();
}

TEST(MetricsExport, SpansSectionPresentOnlyWhenGiven) {
  std::ostringstream without;
  write_metrics_json(without, sample_snapshot());
  EXPECT_EQ(without.str().find("\"spans\""), std::string::npos);

  std::vector<SpanAggregate> spans = {
      {"analyze_network", 2, 5000, 2000, 3000}};
  std::ostringstream with;
  write_metrics_json(with, sample_snapshot(), spans);
  const std::string text = with.str();
  EXPECT_TRUE(json_well_formed(text)) << text;
  EXPECT_NE(text.find("\"spans\""), std::string::npos);
  EXPECT_NE(text.find("\"analyze_network\""), std::string::npos);
  EXPECT_NE(text.find("\"total_ns\": 5000"), std::string::npos);
}

TEST(ChromeTrace, WritesCompleteEventsWithMicrosecondTimes) {
  std::vector<SpanRecord> events;
  events.push_back({"path_solve", 0, 0, 1'000'000, 2'500'000});
  events.push_back({"sim_shard", 3, 1, 2'000'000, 500'000});
  std::ostringstream out;
  write_chrome_trace_json(out, events);
  const std::string text = out.str();
  EXPECT_TRUE(json_well_formed(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"tid\": 3"), std::string::npos);
  // 1'000'000 ns -> 1000 us.
  EXPECT_NE(text.find("\"ts\": 1000"), std::string::npos);
  EXPECT_NE(text.find("\"dur\": 2500"), std::string::npos);
  EXPECT_NE(text.find("\"depth\": 1"), std::string::npos);
}

TEST(ChromeTrace, EmptyEventListStillValid) {
  std::ostringstream out;
  write_chrome_trace_json(out, {});
  const std::string text = out.str();
  EXPECT_TRUE(json_well_formed(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\": []"), std::string::npos);
}

TEST(MetricsExport, HistogramJsonCarriesQuantileEstimates) {
  std::ostringstream out;
  write_metrics_json(out, sample_snapshot());
  const std::string text = out.str();
  EXPECT_NE(text.find("\"p50\""), std::string::npos);
  EXPECT_NE(text.find("\"p90\""), std::string::npos);
  EXPECT_NE(text.find("\"p99\""), std::string::npos);
}

TEST(ChromeTrace, CausalityIdsAppearOnlyWhenNonzero) {
  std::vector<SpanRecord> events;
  SpanRecord with_ids{"pool_task", 1, 0, 1'000, 2'000};
  with_ids.span_id = 7;
  with_ids.parent_id = 3;
  with_ids.request_id = 2;
  with_ids.flow_id = 5;
  events.push_back(with_ids);
  events.push_back({"legacy_span", 0, 0, 500, 100});
  std::ostringstream out;
  write_chrome_trace_json(out, events);
  const std::string text = out.str();
  EXPECT_TRUE(json_well_formed(text)) << text;
  EXPECT_NE(text.find("\"span\": 7"), std::string::npos);
  EXPECT_NE(text.find("\"parent\": 3"), std::string::npos);
  EXPECT_NE(text.find("\"request\": 2"), std::string::npos);
  EXPECT_NE(text.find("\"flow\": 5"), std::string::npos);
  // The pre-causality record gets no id keys at all.
  EXPECT_EQ(text.find("\"span\": 0"), std::string::npos);
  EXPECT_EQ(text.find("\"parent\": 0"), std::string::npos);
}

TEST(ChromeTrace, FlowEventsPairStartAndFinish) {
  std::vector<FlowRecord> flows;
  flows.push_back({9, 1'000, 0, true});
  flows.push_back({9, 3'000, 2, false});
  std::ostringstream out;
  write_chrome_trace_json(out, {}, flows);
  const std::string text = out.str();
  EXPECT_TRUE(json_well_formed(text)) << text;
  EXPECT_NE(text.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(text.find("\"id\": 9"), std::string::npos);
  // Chrome requires bp:"e" on the finish side to bind to the enclosing
  // slice; the start side must not carry it.
  const std::size_t f_pos = text.find("\"ph\": \"f\"");
  EXPECT_NE(text.find("\"bp\": \"e\"", f_pos), std::string::npos);
  EXPECT_EQ(text.find("\"bp\": \"e\""), text.find("\"bp\": \"e\"", f_pos));
}

TEST(SpanTable, PrintsQuantileColumns) {
  std::vector<SpanAggregate> spans = {
      {"path_solve", 10, 2'000'000, 100'000, 400'000, 150'000, 350'000,
       400'000}};
  std::ostringstream out;
  print_span_table(out, spans);
  const std::string text = out.str();
  EXPECT_NE(text.find("p50 ms"), std::string::npos);
  EXPECT_NE(text.find("p99 ms"), std::string::npos);
  EXPECT_NE(text.find("0.150"), std::string::npos);
  EXPECT_NE(text.find("0.400"), std::string::npos);
}

TEST(SpanTable, PrintsOneRowPerSpan) {
  std::vector<SpanAggregate> spans = {
      {"analyze_network", 1, 4'000'000, 4'000'000, 4'000'000},
      {"path_solve", 10, 2'000'000, 100'000, 400'000}};
  std::ostringstream out;
  print_span_table(out, spans);
  const std::string text = out.str();
  EXPECT_NE(text.find("analyze_network"), std::string::npos);
  EXPECT_NE(text.find("path_solve"), std::string::npos);
  EXPECT_NE(text.find("total ms"), std::string::npos);
}

}  // namespace
}  // namespace whart::report
