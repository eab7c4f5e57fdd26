#include "whart/report/metrics_export.hpp"

#include <cmath>
#include <ostream>
#include <string>
#include <string_view>

#include "whart/report/table.hpp"

namespace whart::report {

namespace {

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
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

/// Doubles rendered so the output stays valid JSON (no inf/nan tokens).
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::string text = std::to_string(value);
  return text;
}

void write_histogram(std::ostream& out,
                     const common::obs::HistogramSnapshot& histogram) {
  out << "{\"count\": " << histogram.count << ", \"sum\": " << histogram.sum
      << ", \"min\": " << histogram.min << ", \"max\": " << histogram.max
      << ", \"mean\": " << json_number(histogram.mean())
      << ", \"p50\": " << json_number(histogram.p50())
      << ", \"p90\": " << json_number(histogram.p90())
      << ", \"p99\": " << json_number(histogram.p99())
      << ", \"buckets\": [";
  bool first = true;
  for (const auto& bucket : histogram.buckets) {
    if (!first) out << ", ";
    first = false;
    out << "{\"lower\": " << bucket.lower << ", \"upper\": " << bucket.upper
        << ", \"count\": " << bucket.count << "}";
  }
  out << "]}";
}

}  // namespace

void write_metrics_json(std::ostream& out,
                        const common::obs::MetricsSnapshot& snapshot,
                        const std::vector<common::obs::SpanAggregate>& spans) {
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << json_number(value);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : snapshot.histograms) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": ";
    write_histogram(out, histogram);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"derived\": {";

  // Figures worth computing once instead of in every consumer.
  first = true;
  const auto counter = [&](std::string_view name) -> std::uint64_t {
    const auto it = snapshot.counters.find(std::string(name));
    return it != snapshot.counters.end() ? it->second : 0;
  };
  const std::uint64_t busy_ns = counter("parallel.busy_ns");
  const std::uint64_t tasks = counter("parallel.tasks");
  if (tasks > 0) {
    out << (first ? "\n" : ",\n")
        << "    \"parallel_mean_task_ns\": "
        << json_number(static_cast<double>(busy_ns) /
                       static_cast<double>(tasks));
    first = false;
  }
  out << (first ? "" : "\n  ") << "}";

  if (!spans.empty()) {
    out << ",\n  \"spans\": [";
    first = true;
    for (const auto& span : spans) {
      out << (first ? "\n" : ",\n") << "    {\"name\": \""
          << json_escape(span.name) << "\", \"count\": " << span.count
          << ", \"total_ns\": " << span.total_ns
          << ", \"min_ns\": " << span.min_ns
          << ", \"max_ns\": " << span.max_ns
          << ", \"p50_ns\": " << span.p50_ns
          << ", \"p90_ns\": " << span.p90_ns
          << ", \"p99_ns\": " << span.p99_ns << "}";
      first = false;
    }
    out << "\n  ]";
  }
  out << "\n}\n";
}

void write_chrome_trace_json(
    std::ostream& out, const std::vector<common::obs::SpanRecord>& events,
    const std::vector<common::obs::FlowRecord>& flows) {
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const auto& event : events) {
    out << (first ? "\n" : ",\n") << "  {\"name\": \""
        << json_escape(event.name)
        << "\", \"cat\": \"whart\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << event.thread_id << ", \"ts\": "
        << json_number(static_cast<double>(event.start_ns) / 1000.0)
        << ", \"dur\": "
        << json_number(static_cast<double>(event.duration_ns) / 1000.0)
        << ", \"args\": {\"depth\": " << event.depth;
    if (event.span_id != 0) out << ", \"span\": " << event.span_id;
    if (event.parent_id != 0) out << ", \"parent\": " << event.parent_id;
    if (event.request_id != 0) out << ", \"request\": " << event.request_id;
    if (event.flow_id != 0) out << ", \"flow\": " << event.flow_id;
    out << "}}";
    first = false;
  }
  // Cross-thread causality: one "s"/"f" pair per pool-task handoff; the
  // flow id ties the arrow to the destination span's "flow" arg.
  for (const auto& flow : flows) {
    out << (first ? "\n" : ",\n") << "  {\"name\": \"task\", \"cat\": "
        << "\"flow\", \"ph\": \"" << (flow.begin ? 's' : 'f')
        << "\", \"pid\": 1, \"tid\": " << flow.thread_id << ", \"ts\": "
        << json_number(static_cast<double>(flow.ts_ns) / 1000.0)
        << ", \"id\": " << flow.flow_id;
    if (!flow.begin) out << ", \"bp\": \"e\"";
    out << "}";
    first = false;
  }
  out << (first ? "" : "\n") << "]}\n";
}

void print_span_table(std::ostream& out,
                      const std::vector<common::obs::SpanAggregate>& spans) {
  Table table({"span", "count", "total ms", "mean ms", "p50 ms", "p99 ms",
               "min ms", "max ms"});
  for (const auto& span : spans) {
    const double total_ms = static_cast<double>(span.total_ns) / 1e6;
    const double mean_ms =
        span.count > 0 ? total_ms / static_cast<double>(span.count) : 0.0;
    table.add_row({span.name, std::to_string(span.count),
                   Table::fixed(total_ms, 3), Table::fixed(mean_ms, 3),
                   Table::fixed(static_cast<double>(span.p50_ns) / 1e6, 3),
                   Table::fixed(static_cast<double>(span.p99_ns) / 1e6, 3),
                   Table::fixed(static_cast<double>(span.min_ns) / 1e6, 3),
                   Table::fixed(static_cast<double>(span.max_ns) / 1e6, 3)});
  }
  table.print(out);
}

}  // namespace whart::report
