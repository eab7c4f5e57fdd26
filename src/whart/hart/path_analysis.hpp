// Quality-of-service measures of a path (paper Section V): reachability R
// (Eq. 6), delay distribution tau and expected delay E[tau] (Eqs. 7-9),
// slot utilization U (Eq. 10), and the expected number of reporting
// intervals until the first message loss (geometric, E[N] = 1/(1-R)).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/phy/frame.hpp"

namespace whart::hart {

/// All per-path measures of paper Section V.
struct PathMeasures {
  /// g(i): probability that the message is delivered in cycle i (1-based).
  std::vector<double> cycle_probabilities;

  /// R = sum_i g(i)  (Eq. 6).
  double reachability = 0.0;

  /// 1 - R: the message is discarded (TTL expiry / "package loss").
  double discard_probability = 0.0;

  /// a0: the frame slot (1-based) of the path's gateway transmission.
  std::uint32_t gateway_slot = 0;

  /// Fup + Fdown: slots per superframe cycle.
  std::uint32_t cycle_slots = 0;

  /// E[tau] = sum_i d_i tau(d_i)  (Eq. 9), in milliseconds.
  double expected_delay_ms = 0.0;

  /// Expected number of transmission attempts during the interval.
  double expected_transmissions = 0.0;

  /// U_p = E[transmissions] / (Is * Fup)  (Eq. 10: the fraction of the
  /// path's schedule slots that actually carried a transmission),
  /// counting every attempt including those of eventually-discarded
  /// messages.
  double utilization = 0.0;

  /// The paper's Table II accounting: only messages that reach the
  /// gateway are charged (n + i - 1 attempts for a cycle-i delivery);
  /// discarded messages contribute nothing.  Reproduces Table II exactly.
  double utilization_delivered = 0.0;

  /// E[N] = 1 / (1 - R): expected reporting intervals until the first
  /// loss (infinite when R = 1).
  double expected_intervals_to_first_loss = 0.0;

  /// Standard deviation of the delay over received messages, ms — the
  /// control engineer's jitter figure.
  double delay_jitter_ms = 0.0;

  /// Solver provenance: present when the measures came from an exact DTMC
  /// solve; absent for measures derived analytically from known cycle
  /// probabilities.
  std::optional<SolverDiagnostics> diagnostics;

  /// Delay of a cycle-(i+1) delivery, (a0 + i (Fup + Fdown)) * 10 ms for
  /// the 0-based index i: the paper's d_{i+1} (Eq. 7: the age at the
  /// gateway plus the downlink half of every elapsed superframe).
  [[nodiscard]] double delay_ms(std::size_t i) const noexcept {
    return static_cast<double>(gateway_slot * phy::kSlotMilliseconds) +
           static_cast<double>(i) *
               static_cast<double>(cycle_slots * phy::kSlotMilliseconds);
  }

  /// Probability of that delay among *received* messages,
  /// cycle_probabilities[i] / R: the paper's tau(d_{i+1}) (Eq. 8).  0
  /// when R = 0.
  [[nodiscard]] double delay_probability(std::size_t i) const noexcept {
    return reachability > 0.0 ? cycle_probabilities[i] / reachability : 0.0;
  }

  /// Smallest delay d with P(delay <= d | received) >= q.  Returns the
  /// last delay when R = 0.  q in [0, 1].
  [[nodiscard]] double delay_percentile_ms(double quantile) const;

  /// P(delay <= d | received).
  [[nodiscard]] double delay_cdf(double delay) const;
};

/// Exact measures from the path DTMC under the given link regime.
PathMeasures compute_path_measures(const PathModel& model,
                                   const LinkProbabilityProvider& links);

/// Exact measures with the verification harness's walk fault
/// (PathAnalysisOptions::inject_channel_fault).
PathMeasures compute_path_measures(const PathModel& model,
                                   const LinkProbabilityProvider& links,
                                   const PathAnalysisOptions& options);

/// Reduce a transient solve to measures — the exact reduction
/// compute_path_measures applies (measures_from_cycles plus the exact
/// delivered-only utilization override), for callers that solve through
/// PathModel::analyze_into.
PathMeasures measures_from_transient(const PathModelConfig& config,
                                     const PathTransientResult& transient);

/// Derive the measures implied by known per-cycle delivery probabilities
/// (used by the analytic model and by path composition, where no DTMC is
/// re-solved).  `expected_transmissions` may be the exact count or the
/// closed-form estimate below.
PathMeasures measures_from_cycles(const PathModelConfig& config,
                                  std::vector<double> cycle_probabilities,
                                  double expected_transmissions);

/// Closed-form expected transmissions: a message absorbed in cycle i has
/// made n + i - 1 attempts (n successes, i-1 retries); a discarded message
/// is charged n + Is - 1 (the calibrated variant of paper Eq. 10 — see
/// DESIGN.md).
double closed_form_transmissions(const std::vector<double>& cycle_probs,
                                 std::size_t hops,
                                 std::uint32_t reporting_interval);

/// Expected transmissions of *delivered* messages only — the accounting
/// that reproduces the paper's Table II (discarded messages are ignored).
double delivered_transmissions(const std::vector<double>& cycle_probs,
                               std::size_t hops,
                               std::uint32_t reporting_interval);

}  // namespace whart::hart
