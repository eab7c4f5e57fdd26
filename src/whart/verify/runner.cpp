#include "whart/verify/runner.hpp"

#include <sstream>
#include <utility>

#include "whart/common/obs.hpp"
#include "whart/common/parallel.hpp"
#include "whart/numeric/rng.hpp"
#include "whart/verify/shrink.hpp"

namespace whart::verify {

std::string VerifyFailure::summary() const {
  std::ostringstream out;
  out << "FAIL seed=" << seed << "\n  " << scenario.to_string() << "\n";
  for (const InvariantViolation& v : invariant_violations)
    out << "  invariant " << v.invariant << ": " << v.detail << "\n";
  for (const OracleFinding& f : oracle.findings)
    out << "  path " << f.path_index + 1 << " " << f.check << ": " << f.detail
        << "\n";
  if (shrunk.has_value())
    out << "  shrunk to: " << shrunk->to_string() << "\n";
  return out.str();
}

VerifyFailure check_scenario(const Scenario& scenario,
                             const InvariantOptions& invariants,
                             const OracleConfig& oracle) {
  VerifyFailure result;
  result.seed = scenario.seed;
  result.scenario = scenario;

  const InvariantChecker checker(invariants);
  for (std::size_t p = 0; p < scenario.path_count(); ++p) {
    std::vector<InvariantViolation> violations =
        checker.check(scenario.path_config(p), scenario.hop_availabilities(p));
    for (InvariantViolation& v : violations) {
      v.detail = "path " + std::to_string(p + 1) + ": " + v.detail;
      result.invariant_violations.push_back(std::move(v));
    }
  }
  result.oracle = cross_validate(scenario, oracle);
  return result;
}

bool has_findings(const VerifyFailure& failure) {
  return !failure.invariant_violations.empty() ||
         !failure.oracle.findings.empty();
}

VerifyReport run_verification(const VerifyConfig& config) {
  WHART_REQUEST_SPAN("verify_run");

  // Seed schedule: corpus first, then a splitmix64 stream off the base
  // seed (the base seed itself is the first fresh seed).
  std::vector<std::uint64_t> seeds;
  if (!config.corpus_path.empty()) seeds = load_corpus(config.corpus_path);
  const std::size_t corpus_seeds = seeds.size();
  std::uint64_t stream = config.seed;
  for (std::uint64_t i = 0; i < config.runs; ++i) {
    seeds.push_back(stream);
    stream = numeric::splitmix64(stream);
  }

  const ScenarioGenerator generator(config.limits);
  std::vector<VerifyFailure> results(seeds.size());
  common::parallel_for(
      seeds.size(),
      [&](std::size_t i) {
        results[i] = check_scenario(generator.generate(seeds[i]),
                                    config.invariants, config.oracle);
      },
      config.threads);

  VerifyReport report;
  report.scenarios_run = seeds.size();
  report.corpus_replayed = corpus_seeds;
  for (VerifyFailure& result : results) {
    report.statistical_checks += result.oracle.statistical_checks;
    if (result.oracle.simulated) ++report.scenarios_simulated;
    report.invariant_violations += result.invariant_violations.size();
    for (const OracleFinding& finding : result.oracle.findings) {
      if (finding.check.starts_with("simulator:"))
        ++report.ci_bound_misses;
      else
        ++report.deterministic_misses;
    }
    if (has_findings(result)) report.failures.push_back(std::move(result));
  }

  if (config.shrink) {
    // Shrink against the deterministic legs only, so the predicate is
    // exact (no resampling noise) and cheap.
    OracleConfig deterministic = config.oracle;
    deterministic.run_simulation = false;
    const StillFails still_fails = [&](const Scenario& candidate) {
      return has_findings(
          check_scenario(candidate, config.invariants, deterministic));
    };
    for (VerifyFailure& failure : report.failures) {
      VerifyFailure probe =
          check_scenario(failure.scenario, config.invariants, deterministic);
      if (!has_findings(probe)) continue;  // only statistical: not shrinkable
      const ShrinkResult shrunk =
          shrink_scenario(failure.scenario, still_fails);
      if (shrunk.steps_taken > 0) failure.shrunk = shrunk.minimal;
      WHART_COUNT_N("verify.shrink.steps", shrunk.steps_taken);
    }
  }

  if (!config.corpus_path.empty())
    for (const VerifyFailure& failure : report.failures)
      append_corpus(config.corpus_path, failure.seed);

  WHART_COUNT_N("verify.scenarios", report.scenarios_run);
  WHART_COUNT_N("verify.invariant_violations", report.invariant_violations);
  WHART_COUNT_N("verify.deterministic_misses", report.deterministic_misses);
  WHART_COUNT_N("verify.ci_bound_misses", report.ci_bound_misses);
  WHART_COUNT_N("verify.statistical_checks", report.statistical_checks);
  return report;
}

}  // namespace whart::verify
