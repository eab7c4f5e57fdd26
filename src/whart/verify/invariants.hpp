// Structural invariants of the path DTMC machinery — properties that
// must hold for EVERY scenario, independent of the paper's numbers:
//   - every row of the materialized chain is stochastic (to 1e-12,
//     tighter than the 1e-9 the Dtmc constructor enforces);
//   - probability mass is conserved under every transient step;
//   - the goal and Discard states are absorbing and all mass is
//     absorbed by the end of the horizon;
//   - R + P(discard) = 1;
//   - the delay CDF over received messages is monotone and normalized,
//     and every goal's transient trajectory is non-decreasing in time.
// A violation is a finding, not an exception: the checker returns all
// of them so the fuzzer can report and shrink.
#pragma once

#include <string>
#include <vector>

#include "whart/hart/network_analysis.hpp"
#include "whart/hart/path_analysis.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/markov/dtmc.hpp"

namespace whart::verify {

/// One violated invariant.
struct InvariantViolation {
  /// Stable identifier, e.g. "row-stochastic", "mass-conservation".
  std::string invariant;
  /// Human-readable specifics (which state/cycle, by how much).
  std::string detail;
};

struct InvariantOptions {
  /// Bound on |1 - row sum| of the materialized chain.
  double row_sum_tolerance = 1e-12;
  /// Bound on |1 - total mass| after each transient step.
  double mass_tolerance = 1e-12;
  /// Bound on |R + P(discard) - 1| from the production solver.
  double closure_tolerance = 1e-12;
  /// Slack for CDF monotonicity / normalization.
  double cdf_tolerance = 1e-12;
};

class InvariantChecker {
 public:
  explicit InvariantChecker(InvariantOptions options = {})
      : options_(options) {}

  /// Run every invariant on one path under steady-state links.  Returns
  /// all violations (empty = the scenario upholds the contract).
  [[nodiscard]] std::vector<InvariantViolation> check(
      const hart::PathModelConfig& config,
      const std::vector<double>& availabilities) const;

  /// Aggregation invariants of whole-network measures: the mean delay,
  /// utilization sums and bottleneck indices must decompose exactly
  /// over the per-path measures.
  [[nodiscard]] std::vector<InvariantViolation> check_network(
      const hart::NetworkMeasures& measures) const;

  [[nodiscard]] const InvariantOptions& options() const noexcept {
    return options_;
  }

 private:
  void check_chain(const markov::Dtmc& chain,
                   const hart::PathModelConfig& config,
                   std::vector<InvariantViolation>& out) const;
  void check_solution(const hart::PathTransientResult& transient,
                      const hart::PathMeasures& measures,
                      std::vector<InvariantViolation>& out) const;

  InvariantOptions options_;
};

}  // namespace whart::verify
