// Export surface of the observability subsystem: metrics snapshots as
// JSON (with quantiles, span aggregates and derived figures) and Chrome
// trace_event dumps (complete events plus cross-thread flow arrows).
// These are the writers behind `whart_cli --metrics=<file>`,
// `--trace=<file>` and the `--obs-dir=<dir>` bundle.
#pragma once

#include <iosfwd>
#include <vector>

#include "whart/common/obs.hpp"

namespace whart::report {

/// Serialize a metrics snapshot as a JSON object with "counters",
/// "gauges", "histograms" (each with p50/p90/p99 estimates), "derived"
/// (figures computable from the counters, e.g. the mean pool-task time)
/// and, when `spans` is non-empty, a "spans" array of flat per-name
/// aggregates including exact quantiles.
void write_metrics_json(std::ostream& out,
                        const common::obs::MetricsSnapshot& snapshot,
                        const std::vector<common::obs::SpanAggregate>& spans =
                            {});

/// Serialize completed spans in Chrome trace_event format: one complete
/// ("ph":"X") event per span, timestamps/durations in microseconds,
/// causality ids in args, plus one flow-start ("ph":"s") / flow-finish
/// ("ph":"f") pair per ThreadPool task handoff when `flows` is given.
void write_chrome_trace_json(
    std::ostream& out, const std::vector<common::obs::SpanRecord>& events,
    const std::vector<common::obs::FlowRecord>& flows = {});

/// Human-readable aggregate table: name, count, total/mean/p50/p99/
/// min/max ms.
void print_span_table(std::ostream& out,
                      const std::vector<common::obs::SpanAggregate>& spans);

}  // namespace whart::report
