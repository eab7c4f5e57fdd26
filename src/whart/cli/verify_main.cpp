// whart_verify — property-based verification of the analysis engine:
// fuzz random scenarios, check structural invariants and cross-validate
// the production solver against an independent dense reference solver
// and the Monte-Carlo simulator (statistical confidence bounds, no
// fixed epsilons).  Failures are shrunk to minimal reproducers and
// their seeds persisted to a corpus for replay.
//
// Usage:
//   whart_verify [options]
//
// Options:
//   --seed <s>           base seed of the fresh-scenario stream (default 1)
//   --runs <n>           fresh scenarios to generate (default 100)
//   --corpus <file>      seed corpus to replay and extend
//   --no-shrink          report failures without shrinking them
//   --no-sim             deterministic legs only (skip the simulator)
//   --intervals <n>      Monte-Carlo intervals per scenario (default 4000)
//   --shards <n>         Monte-Carlo shards (default 4)
//   --threads <n>        scenario fan-out workers (default: WHART_THREADS)
//   --channel-prob <p>   probability [0, 1] that a generated scenario
//                        carries a correlated-channel overlay (default
//                        0.45; 1 makes every scenario a channel one —
//                        the GE row of the CI fuzz matrix)
//   --inject <fault>     corrupt the production leg on purpose:
//                        link-bias | discard-leak | cycle-shift |
//                        channel-state-leak | channel-gap-shift |
//                        what-if-skip-path (a healthy harness must
//                        then FAIL)
//   --metrics[=<file>]   dump the obs metrics snapshot as JSON
//                        (default file: whart_verify_metrics.json)
//   --obs-dir=<dir>      full observability bundle (metrics.json,
//                        trace.json, events.jsonl) written into <dir>
//
// Numeric flag values are whole-token numbers of the option's own type
// (--intervals and --shards at least 1); a bad one prints usage naming
// the flag.
//
// Exit status: 0 when every scenario passes, 1 on any finding, 2 on
// usage errors and on output paths (--corpus, --metrics, --obs-dir)
// that cannot be written.  Reproduce any reported failure with --seed
// <seed> --runs 1.
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "whart/cli/parse_number.hpp"
#include "whart/common/obs.hpp"
#include "whart/report/metrics_export.hpp"
#include "whart/report/obs_dir.hpp"
#include "whart/verify/runner.hpp"

namespace {

int usage(const std::string& complaint = "") {
  if (!complaint.empty()) std::cerr << "whart_verify: " << complaint << "\n";
  std::cerr << "usage: whart_verify [--seed <s>] [--runs <n>] "
               "[--corpus <file>] [--no-shrink] [--no-sim] "
               "[--intervals <n>] [--shards <n>] [--threads <n>] "
               "[--channel-prob <p>] "
               "[--inject link-bias|discard-leak|cycle-shift|"
               "channel-state-leak|channel-gap-shift|what-if-skip-path] "
               "[--metrics[=<file>]] [--obs-dir=<dir>]\n";
  return 2;
}

/// A missing or malformed flag value: usage naming the flag and value.
int bad_value(const std::string& flag, const char* value) {
  if (value == nullptr) return usage();
  return usage("invalid value '" + std::string(value) + "' for " + flag);
}

}  // namespace

int main(int argc, char** argv) {
  using whart::cli::parse_number;
  whart::verify::VerifyConfig config;
  std::string metrics_path;
  std::string obs_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr || !parse_number(v, config.seed))
        return bad_value(arg, v);
    } else if (arg == "--runs") {
      const char* v = value();
      if (v == nullptr || !parse_number(v, config.runs))
        return bad_value(arg, v);
    } else if (arg == "--corpus") {
      const char* v = value();
      if (v == nullptr) return usage();
      config.corpus_path = v;
    } else if (arg == "--no-shrink") {
      config.shrink = false;
    } else if (arg == "--no-sim") {
      config.oracle.run_simulation = false;
    } else if (arg == "--intervals") {
      const char* v = value();
      if (v == nullptr || !parse_number(v, config.oracle.sim_intervals) ||
          config.oracle.sim_intervals == 0)
        return bad_value(arg, v);
    } else if (arg == "--shards") {
      const char* v = value();
      if (v == nullptr || !parse_number(v, config.oracle.sim_shards) ||
          config.oracle.sim_shards == 0)
        return bad_value(arg, v);
    } else if (arg == "--threads") {
      const char* v = value();
      if (v == nullptr || !parse_number(v, config.threads))
        return bad_value(arg, v);
    } else if (arg == "--channel-prob") {
      const char* v = value();
      double p = 0.0;
      if (v == nullptr || !parse_number(v, p) || !(p >= 0.0 && p <= 1.0))
        return bad_value(arg, v);
      config.limits.channel_probability = p;
    } else if (arg == "--inject") {
      const char* v = value();
      if (v == nullptr) return usage();
      const std::string fault = v;
      if (fault == "link-bias")
        config.oracle.injection = whart::verify::Injection::kLinkBias;
      else if (fault == "discard-leak")
        config.oracle.injection = whart::verify::Injection::kDiscardLeak;
      else if (fault == "cycle-shift")
        config.oracle.injection = whart::verify::Injection::kCycleShift;
      else if (fault == "channel-state-leak")
        config.oracle.injection = whart::verify::Injection::kChannelStateLeak;
      else if (fault == "channel-gap-shift")
        config.oracle.injection = whart::verify::Injection::kChannelGapShift;
      else if (fault == "what-if-skip-path")
        config.oracle.injection = whart::verify::Injection::kWhatIfSkipPath;
      else
        return usage();
    } else if (arg == "--metrics") {
      metrics_path = "whart_verify_metrics.json";
    } else if (arg.starts_with("--metrics=")) {
      metrics_path = arg.substr(std::string("--metrics=").size());
    } else if (arg.starts_with("--obs-dir=")) {
      obs_dir = arg.substr(std::string("--obs-dir=").size());
    } else {
      return usage();
    }
  }

  if (!metrics_path.empty()) whart::common::obs::set_metrics_enabled(true);
  whart::verify::VerifyReport report;
  try {
    std::unique_ptr<whart::report::ObsDirSession> obs_session;
    if (!obs_dir.empty())
      obs_session = std::make_unique<whart::report::ObsDirSession>(obs_dir);
    report = whart::verify::run_verification(config);
    if (obs_session) obs_session->finish();
  } catch (const std::runtime_error& error) {
    std::cerr << "whart_verify: " << error.what() << "\n";
    return 2;
  }

  std::cout << "scenarios: " << report.scenarios_run << " ("
            << report.corpus_replayed << " from corpus), simulated "
            << report.scenarios_simulated << ", statistical checks "
            << report.statistical_checks << "\n"
            << "invariant violations: " << report.invariant_violations
            << ", deterministic misses: " << report.deterministic_misses
            << ", CI-bound misses: " << report.ci_bound_misses << "\n";

  for (const whart::verify::VerifyFailure& failure : report.failures)
    std::cout << failure.summary();

  if (!metrics_path.empty()) {
    std::ofstream file(metrics_path);
    if (!file) {
      std::cerr << "whart_verify: cannot write '" << metrics_path << "'\n";
      return 2;
    }
    whart::report::write_metrics_json(
        file, whart::common::obs::Registry::instance().snapshot());
    std::cout << "wrote metrics snapshot to " << metrics_path << "\n";
  }

  if (!report.ok()) {
    std::cout << report.failures.size()
              << " failing scenario(s); reproduce with --seed <seed> "
                 "--runs 1\n";
    return 1;
  }
  std::cout << "all scenarios passed\n";
  return 0;
}
