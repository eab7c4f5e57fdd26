#include "whart/verify/invariants.hpp"

#include <cmath>
#include <sstream>

#include "whart/hart/link_probability.hpp"
#include "whart/markov/structure.hpp"

namespace whart::verify {

namespace {

std::string format_double(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

}  // namespace

std::vector<InvariantViolation> InvariantChecker::check(
    const hart::PathModelConfig& config,
    const std::vector<double>& availabilities) const {
  std::vector<InvariantViolation> out;
  const hart::PathModel model(config);
  const hart::SteadyStateLinks links{availabilities};

  check_chain(model.to_dtmc(links), config, out);

  const hart::PathTransientResult transient = model.analyze(links);
  const hart::PathMeasures measures = compute_path_measures(model, links);
  check_solution(transient, measures, out);
  return out;
}

void InvariantChecker::check_chain(
    const markov::Dtmc& chain, const hart::PathModelConfig& config,
    std::vector<InvariantViolation>& out) const {
  const double row_residual = markov::max_row_sum_residual(chain);
  if (row_residual > options_.row_sum_tolerance)
    out.push_back({"row-stochastic",
                   "max |1 - row sum| = " + format_double(row_residual)});

  // The Is goals and Discard are absorbing; nothing else is.
  const std::size_t expected_absorbing = config.reporting_interval + 1;
  const std::vector<markov::StateIndex> absorbing = chain.absorbing_states();
  if (absorbing.size() != expected_absorbing)
    out.push_back({"absorbing-closure",
                   std::to_string(absorbing.size()) + " absorbing states, " +
                       std::to_string(expected_absorbing) + " expected"});

  // Probability mass under transient stepping: conserved at every step,
  // and fully absorbed by the end of the horizon (the chain discards at
  // the latest after effective_ttl steps).
  linalg::Vector distribution =
      markov::point_distribution(chain.num_states(), 0);
  double worst_mass = 0.0;
  for (std::uint32_t step = 0; step < config.horizon(); ++step) {
    distribution = chain.step(distribution);
    worst_mass = std::max(
        worst_mass, markov::distribution_mass_residual(distribution));
  }
  if (worst_mass > options_.mass_tolerance)
    out.push_back({"mass-conservation",
                   "max |1 - mass| over the horizon = " +
                       format_double(worst_mass)});

  double transient_mass = 0.0;
  {
    std::vector<bool> is_absorbing(chain.num_states(), false);
    for (markov::StateIndex s : absorbing) is_absorbing[s] = true;
    for (std::size_t s = 0; s < chain.num_states(); ++s)
      if (!is_absorbing[s]) transient_mass += distribution[s];
  }
  if (transient_mass > options_.mass_tolerance)
    out.push_back({"absorbing-closure",
                   "mass still transient after the horizon: " +
                       format_double(transient_mass)});
}

void InvariantChecker::check_solution(
    const hart::PathTransientResult& transient,
    const hart::PathMeasures& measures,
    std::vector<InvariantViolation>& out) const {
  // R + P(discard) = 1, with the discard mass computed by the solver
  // (not derived as 1 - R, which would hold trivially).
  double reachability = 0.0;
  for (double g : transient.cycle_probabilities) reachability += g;
  const double closure =
      std::abs(reachability + transient.discard_probability - 1.0);
  if (closure > options_.closure_tolerance)
    out.push_back({"reachability-closure",
                   "|R + P(discard) - 1| = " + format_double(closure)});

  // The delay distribution over received messages is a monotone,
  // normalized CDF (when anything is received at all).
  double cdf = 0.0;
  for (std::size_t i = 0; i < measures.cycle_probabilities.size(); ++i) {
    const double tau = measures.delay_probability(i);
    if (tau < -options_.cdf_tolerance)
      out.push_back({"monotone-cdf", "tau(d_" + std::to_string(i + 1) +
                                         ") = " + format_double(tau)});
    cdf += tau;
  }
  if (measures.reachability > 0.0 &&
      std::abs(cdf - 1.0) > options_.cdf_tolerance)
    out.push_back(
        {"monotone-cdf", "sum tau = " + format_double(cdf) + ", not 1"});

  // Each goal's transient trajectory is non-decreasing in time (mass
  // only flows INTO an absorbing state): the trajectory is the running
  // sum of the walk's delivery records, so none may carry negative mass.
  for (const hart::Delivery& delivery : transient.deliveries)
    if (delivery.mass < -options_.cdf_tolerance) {
      out.push_back({"monotone-cdf",
                     "goal " + std::to_string(delivery.cycle + 1) +
                         " trajectory decreases at t = " +
                         std::to_string(delivery.slot)});
      break;  // one finding is enough
    }
}

std::vector<InvariantViolation> InvariantChecker::check_network(
    const hart::NetworkMeasures& measures) const {
  std::vector<InvariantViolation> out;
  if (measures.per_path.empty()) return out;

  double delay_sum = 0.0;
  double utilization = 0.0;
  double utilization_delivered = 0.0;
  std::size_t worst_delay = 0;
  std::size_t worst_reach = 0;
  for (std::size_t p = 0; p < measures.per_path.size(); ++p) {
    const hart::PathMeasures& path = measures.per_path[p];
    delay_sum += path.expected_delay_ms;
    utilization += path.utilization;
    utilization_delivered += path.utilization_delivered;
    if (path.expected_delay_ms >
        measures.per_path[worst_delay].expected_delay_ms)
      worst_delay = p;
    if (path.reachability < measures.per_path[worst_reach].reachability)
      worst_reach = p;
  }

  const double count = static_cast<double>(measures.per_path.size());
  if (std::abs(measures.mean_delay_ms - delay_sum / count) > 1e-12)
    out.push_back({"aggregate-decomposition",
                   "mean delay " + format_double(measures.mean_delay_ms) +
                       " != per-path average " +
                       format_double(delay_sum / count)});
  if (std::abs(measures.network_utilization - utilization) > 1e-12)
    out.push_back({"aggregate-decomposition",
                   "network utilization does not sum over paths"});
  if (std::abs(measures.network_utilization_delivered -
               utilization_delivered) > 1e-12)
    out.push_back({"aggregate-decomposition",
                   "delivered utilization does not sum over paths"});
  if (measures.per_path[measures.bottleneck_by_delay].expected_delay_ms !=
      measures.per_path[worst_delay].expected_delay_ms)
    out.push_back({"aggregate-decomposition",
                   "bottleneck_by_delay is not the argmax path"});
  if (measures.per_path[measures.bottleneck_by_reachability].reachability !=
      measures.per_path[worst_reach].reachability)
    out.push_back({"aggregate-decomposition",
                   "bottleneck_by_reachability is not the argmin path"});
  return out;
}

}  // namespace whart::verify
