// The engine side of `--obs-dir=<dir>`: one RAII session that turns on
// every observability surface (metrics, tracing, the flight recorder),
// points the contract-failure crash dump into the directory, and on
// finish() writes the three-artifact bundle:
//
//   metrics.json   registry snapshot + span aggregates + derived
//   trace.json     Chrome trace_event spans + cross-thread flow arrows
//   events.jsonl   flight-recorder drain, one JSON object per line
//
// Both CLIs (whart_cli, whart_verify) and examples/typical_network
// drive their `--obs-dir` flag through this class so the bundle layout
// stays identical everywhere.
#pragma once

#include <string>

namespace whart::report {

class ObsDirSession {
 public:
  /// Creates `dir` (and parents), enables metrics/trace/events, clears
  /// the trace and event buffers and redirects the contract crash dump
  /// to `<dir>/events_crash.jsonl`.  Throws std::runtime_error naming
  /// `dir` when the directory cannot be created; nothing is enabled
  /// then.
  explicit ObsDirSession(std::string dir);

  /// finish()es if the caller did not.
  ~ObsDirSession();

  ObsDirSession(const ObsDirSession&) = delete;
  ObsDirSession& operator=(const ObsDirSession&) = delete;

  /// Write the three artifacts (idempotent).  Throws std::runtime_error
  /// naming the first artifact it cannot write.
  void finish();

 private:
  std::string dir_;
  bool finished_ = false;
};

}  // namespace whart::report
