#include "whart/report/obs_dir.hpp"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <system_error>

#include "whart/common/obs.hpp"
#include "whart/report/metrics_export.hpp"

namespace whart::report {

namespace obs = common::obs;

namespace {

std::ofstream open_artifact(const std::filesystem::path& dir,
                            const char* name) {
  const std::filesystem::path path = dir / name;
  std::ofstream file(path);
  if (!file)
    throw std::runtime_error("cannot write '" + path.string() + "'");
  return file;
}

}  // namespace

ObsDirSession::ObsDirSession(std::string dir) : dir_(std::move(dir)) {
  std::error_code error;
  std::filesystem::create_directories(dir_, error);
  if (error)
    throw std::runtime_error("cannot create directory '" + dir_ +
                             "': " + error.message());
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  obs::set_events_enabled(true);
  obs::TraceCollector::instance().clear();
  obs::EventLog::instance().clear();
  obs::set_contract_dump_path(
      (std::filesystem::path(dir_) / "events_crash.jsonl").string());
}

ObsDirSession::~ObsDirSession() {
  try {
    finish();
  } catch (...) {
    // Destructor path: the bundle is best-effort; the analysis result
    // already reached the caller.
  }
}

void ObsDirSession::finish() {
  if (finished_) return;
  finished_ = true;

  const std::filesystem::path dir(dir_);
  const obs::TraceCollector& collector = obs::TraceCollector::instance();
  {
    std::ofstream file = open_artifact(dir, "metrics.json");
    write_metrics_json(file, obs::Registry::instance().snapshot(),
                       collector.aggregate());
  }
  {
    std::ofstream file = open_artifact(dir, "trace.json");
    write_chrome_trace_json(file, collector.events(), collector.flows());
  }
  {
    std::ofstream file = open_artifact(dir, "events.jsonl");
    obs::EventLog::instance().write_jsonl(file);
  }
  std::cout << "wrote observability bundle (metrics.json, trace.json, "
               "events.jsonl) to "
            << dir_ << "\n";
}

}  // namespace whart::report
