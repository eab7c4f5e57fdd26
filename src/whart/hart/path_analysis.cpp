#include "whart/hart/path_analysis.hpp"

#include <cmath>
#include <limits>
#include <numeric>

#include "whart/common/contracts.hpp"

namespace whart::hart {

PathMeasures compute_path_measures(const PathModel& model,
                                   const LinkProbabilityProvider& links) {
  return compute_path_measures(model, links, PathAnalysisOptions{});
}

PathMeasures compute_path_measures(const PathModel& model,
                                   const LinkProbabilityProvider& links,
                                   const PathAnalysisOptions& options) {
  return measures_from_transient(model.config(),
                                 model.analyze(links, options));
}

PathMeasures measures_from_transient(const PathModelConfig& config,
                                     const PathTransientResult& transient) {
  PathMeasures m = measures_from_cycles(config, transient.cycle_probabilities,
                                        transient.expected_transmissions);
  // Replace the closed-form delivered-only estimate (exact only for
  // in-order schedules) with the exact backward-pass count.
  m.utilization_delivered =
      transient.expected_transmissions_delivered /
      (static_cast<double>(config.reporting_interval) *
       config.superframe.uplink_slots);
  m.diagnostics = transient.diagnostics;
  return m;
}

PathMeasures measures_from_cycles(const PathModelConfig& config,
                                  std::vector<double> cycle_probabilities,
                                  double expected_transmissions) {
  expects(cycle_probabilities.size() == config.reporting_interval,
          "one cycle probability per cycle of the reporting interval");
  PathMeasures m;
  m.cycle_probabilities = std::move(cycle_probabilities);
  m.reachability = std::accumulate(m.cycle_probabilities.begin(),
                                   m.cycle_probabilities.end(), 0.0);
  m.discard_probability = 1.0 - m.reachability;
  m.gateway_slot = config.gateway_slot();
  m.cycle_slots = config.superframe.cycle_slots();
  for (std::uint32_t i = 0; i < config.reporting_interval; ++i)
    m.expected_delay_ms += m.delay_ms(i) * m.delay_probability(i);

  const double schedule_slots =
      static_cast<double>(config.reporting_interval) *
      config.superframe.uplink_slots;
  m.expected_transmissions = expected_transmissions;
  m.utilization = expected_transmissions / schedule_slots;
  m.utilization_delivered =
      delivered_transmissions(m.cycle_probabilities, config.hop_count(),
                              config.reporting_interval) /
      schedule_slots;
  m.expected_intervals_to_first_loss =
      m.discard_probability > 0.0
          ? 1.0 / m.discard_probability
          : std::numeric_limits<double>::infinity();

  double second_moment = 0.0;
  for (std::uint32_t i = 0; i < config.reporting_interval; ++i)
    second_moment += m.delay_ms(i) * m.delay_ms(i) * m.delay_probability(i);
  const double variance =
      second_moment - m.expected_delay_ms * m.expected_delay_ms;
  m.delay_jitter_ms = variance > 0.0 ? std::sqrt(variance) : 0.0;
  return m;
}

double PathMeasures::delay_percentile_ms(double quantile) const {
  expects(quantile >= 0.0 && quantile <= 1.0, "0 <= quantile <= 1");
  const std::size_t cycles = cycle_probabilities.size();
  double cumulative = 0.0;
  for (std::size_t i = 0; i < cycles; ++i) {
    cumulative += delay_probability(i);
    if (cumulative >= quantile - 1e-12) return delay_ms(i);
  }
  return cycles == 0 ? 0.0 : delay_ms(cycles - 1);
}

double PathMeasures::delay_cdf(double delay) const {
  double cumulative = 0.0;
  for (std::size_t i = 0; i < cycle_probabilities.size(); ++i)
    if (delay_ms(i) <= delay + 1e-12) cumulative += delay_probability(i);
  return cumulative;
}

double closed_form_transmissions(const std::vector<double>& cycle_probs,
                                 std::size_t hops,
                                 std::uint32_t reporting_interval) {
  expects(cycle_probs.size() == reporting_interval,
          "one probability per cycle");
  double attempts = 0.0;
  double reachability = 0.0;
  for (std::uint32_t i = 0; i < reporting_interval; ++i) {
    attempts += cycle_probs[i] * static_cast<double>(hops + i);
    reachability += cycle_probs[i];
  }
  attempts += (1.0 - reachability) *
              static_cast<double>(hops + reporting_interval - 1);
  return attempts;
}

double delivered_transmissions(const std::vector<double>& cycle_probs,
                               std::size_t hops,
                               std::uint32_t reporting_interval) {
  expects(cycle_probs.size() == reporting_interval,
          "one probability per cycle");
  double attempts = 0.0;
  for (std::uint32_t i = 0; i < reporting_interval; ++i)
    attempts += cycle_probs[i] * static_cast<double>(hops + i);
  return attempts;
}

}  // namespace whart::hart
