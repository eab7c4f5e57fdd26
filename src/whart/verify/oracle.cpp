#include "whart/verify/oracle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <sstream>

#include "whart/common/contracts.hpp"
#include "whart/hart/link_probability.hpp"
#include "whart/hart/network_analysis.hpp"
#include "whart/hart/path_analysis.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/hart/sensitivity.hpp"
#include "whart/hart/what_if.hpp"
#include "whart/numeric/rng.hpp"
#include "whart/sim/stats.hpp"
#include "whart/verify/bounds.hpp"
#include "whart/verify/reference_solver.hpp"

namespace whart::verify {

namespace {

std::string format_double(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

/// Relative agreement of two exact solvers.
bool close(double a, double b, double tolerance) {
  return std::abs(a - b) <=
         tolerance * std::max({1.0, std::abs(a), std::abs(b)});
}

/// The production leg of one path, after any injection.
struct ProductionLeg {
  hart::PathMeasures measures;
  /// Discard mass as computed by the solver (NOT derived as 1 - R), the
  /// quantity the closure check and the discard comparisons use.
  double discard = 0.0;
  std::vector<double> transmissions_per_hop;
  double transmissions_delivered = 0.0;
  /// The walk's delivery records.
  std::vector<hart::Delivery> deliveries;
};

ProductionLeg solve_production(const hart::PathModelConfig& config,
                               std::vector<double> availabilities,
                               Injection injection) {
  if (injection == Injection::kLinkBias)
    for (double& a : availabilities) a = std::min(1.0, a + 0.05);

  const hart::PathModel model(config);
  const hart::SteadyStateLinks links{availabilities};
  hart::PathTransientResult transient = model.analyze(links);

  if (injection == Injection::kCycleShift &&
      transient.cycle_probabilities.size() > 1)
    std::rotate(transient.cycle_probabilities.rbegin(),
                transient.cycle_probabilities.rbegin() + 1,
                transient.cycle_probabilities.rend());

  ProductionLeg leg;
  leg.discard = transient.discard_probability *
                (injection == Injection::kDiscardLeak ? 0.875 : 1.0);
  leg.transmissions_per_hop = transient.expected_transmissions_per_hop;
  leg.transmissions_delivered = transient.expected_transmissions_delivered;
  leg.deliveries = std::move(transient.deliveries);
  leg.measures =
      measures_from_cycles(config, std::move(transient.cycle_probabilities),
                           transient.expected_transmissions);
  leg.measures.utilization_delivered =
      transient.expected_transmissions_delivered /
      (static_cast<double>(config.reporting_interval) *
       config.superframe.uplink_slots);
  return leg;
}

/// The channel-enlarged production leg of one path.  kChannelStateLeak
/// and kChannelGapShift corrupt this leg (and only this leg).
ProductionLeg solve_production_channel(
    const hart::PathModelConfig& config,
    const std::vector<link::ChannelModel>& channels, Injection injection) {
  const hart::PathModel model(config);
  const hart::ChannelLinks links{channels};
  hart::PathAnalysisOptions options;
  if (injection == Injection::kChannelStateLeak)
    options.inject_channel_fault = hart::ChannelFault::kStateLeak;
  if (injection == Injection::kChannelGapShift)
    options.inject_channel_fault = hart::ChannelFault::kGapShift;
  hart::PathTransientResult transient = model.analyze(links, options);

  ProductionLeg leg;
  leg.discard = transient.discard_probability;
  leg.transmissions_per_hop = transient.expected_transmissions_per_hop;
  leg.transmissions_delivered = transient.expected_transmissions_delivered;
  leg.measures =
      measures_from_cycles(config, std::move(transient.cycle_probabilities),
                           transient.expected_transmissions);
  leg.measures.utilization_delivered =
      transient.expected_transmissions_delivered /
      (static_cast<double>(config.reporting_interval) *
       config.superframe.uplink_slots);
  leg.measures.diagnostics = transient.diagnostics;
  return leg;
}

/// What is wrong with a leg's delivery records, or "" when nothing is:
/// each record sits at c Fup plus a slot where the path's last hop fires,
/// c being its own cycle, and per cycle the records' masses, summed in
/// record order, are g(i) bit for bit.
std::string delivery_record_fault(const hart::PathModelConfig& config,
                                  const ProductionLeg& leg) {
  const std::size_t last = config.hop_count() - 1;
  const std::uint64_t frame = config.superframe.uplink_slots;
  const std::vector<double>& g = leg.measures.cycle_probabilities;
  std::vector<double> sums(g.size(), 0.0);
  for (const hart::Delivery& record : leg.deliveries) {
    const std::uint64_t start = record.cycle * frame;
    const std::uint64_t in_frame = record.slot - start;
    const bool fires =
        record.slot > start &&
        (in_frame == config.hop_slots[last] ||
         (!config.retry_slots.empty() && config.retry_slots[last] != 0 &&
          in_frame == config.retry_slots[last]));
    if (record.cycle >= g.size() || !fires)
      return "record at slot " + std::to_string(record.slot) + " of cycle " +
             std::to_string(record.cycle) +
             " is no firing of the last hop in that cycle";
    sums[record.cycle] += record.mass;
  }
  for (std::size_t i = 0; i < g.size(); ++i)
    if (std::bit_cast<std::uint64_t>(sums[i]) !=
        std::bit_cast<std::uint64_t>(g[i]))
      return "cycle " + std::to_string(i + 1) + " records sum to " +
             format_double(sums[i]) + ", g = " + format_double(g[i]);
  return "";
}

/// dR/dps_h by finite differences of the walk's reachability: central
/// where the stencil stays in [0, 1], second-order one-sided at the
/// edges (availability 0 or 1).
double reachability_difference(const hart::PathModel& model,
                               std::vector<double> availabilities,
                               std::size_t hop) {
  constexpr double kStep = 1e-6;
  const double a = availabilities[hop];
  const auto reachability = [&](double value) {
    availabilities[hop] = value;
    const hart::PathTransientResult walked =
        model.analyze(hart::SteadyStateLinks{availabilities});
    return std::accumulate(walked.cycle_probabilities.begin(),
                           walked.cycle_probabilities.end(), 0.0);
  };
  if (a - kStep >= 0.0 && a + kStep <= 1.0)
    return (reachability(a + kStep) - reachability(a - kStep)) / (2 * kStep);
  const double step = a - kStep < 0.0 ? kStep : -kStep;
  return (-3 * reachability(a) + 4 * reachability(a + step) -
          reachability(a + 2 * step)) /
         (2 * step);
}

}  // namespace

OracleReport cross_validate(const Scenario& input_scenario,
                            const OracleConfig& config) {
  // The channel faults corrupt the channel leg, so the self-test must
  // guarantee that leg runs and that the fault is observable in every
  // scenario: override the overlay with a fixed slow-mixing chain
  // (|lambda_2| = 0.85, so the corrupted state survives even a 40-slot
  // cycle well above the deterministic tolerance — a fast generated
  // chain can forget it between attempts), force at least two cycles so
  // hops can retry, and drop any TTL (with TTL = 1 a failed attempt
  // discards and the channel memory is never consulted).
  Scenario scenario = input_scenario;
  if (config.injection == Injection::kChannelStateLeak ||
      config.injection == Injection::kChannelGapShift) {
    scenario.channel =
        link::ChannelModel::gilbert_elliott(0.05, 0.1, 0.02, 0.65);
    scenario.reporting_interval =
        std::max<std::uint32_t>(scenario.reporting_interval, 2);
    scenario.ttl.reset();
  }
  scenario.validate();
  OracleReport report;

  std::vector<ProductionLeg> production;
  production.reserve(scenario.path_count());
  std::vector<ProductionLeg> channel_production;

  const auto add_finding = [&](std::size_t path, std::string check,
                               std::string detail) {
    report.findings.push_back(
        {path, std::move(check), std::move(detail)});
  };

  for (std::size_t p = 0; p < scenario.path_count(); ++p) {
    const hart::PathModelConfig path_config = scenario.path_config(p);
    const std::vector<double> availabilities = scenario.hop_availabilities(p);
    production.push_back(
        solve_production(path_config, availabilities, config.injection));
    const ProductionLeg& prod = production.back();

    // Closure: R + P(discard) = 1 with the solver's own discard mass.
    const double closure =
        std::abs(prod.measures.reachability + prod.discard - 1.0);
    if (closure > config.deterministic_tolerance)
      add_finding(p, "closure:reachability-discard",
                  "|R + P(discard) - 1| = " + format_double(closure));

    // Reference leg: the naive dense solver, on the TRUE availabilities.
    const ReferenceResult ref = reference_solve(path_config, availabilities);
    const auto compare = [&](const char* field, double prod_value,
                             double ref_value) {
      if (!close(prod_value, ref_value, config.deterministic_tolerance))
        add_finding(p, std::string("reference:") + field,
                    "production " + format_double(prod_value) +
                        " vs reference " + format_double(ref_value));
    };
    for (std::size_t i = 0; i < ref.cycle_probabilities.size(); ++i)
      compare(("g(" + std::to_string(i + 1) + ")").c_str(),
              prod.measures.cycle_probabilities[i],
              ref.cycle_probabilities[i]);
    for (std::size_t i = 0; i < ref.delays_ms.size(); ++i) {
      compare(("d(" + std::to_string(i + 1) + ")").c_str(),
              prod.measures.delay_ms(i), ref.delays_ms[i]);
      compare(("tau(" + std::to_string(i + 1) + ")").c_str(),
              prod.measures.delay_probability(i), ref.delay_distribution[i]);
    }
    compare("reachability", prod.measures.reachability, ref.reachability);
    compare("discard", prod.discard, ref.discard_probability);
    compare("expected_delay_ms", prod.measures.expected_delay_ms,
            ref.expected_delay_ms);
    compare("delay_jitter_ms", prod.measures.delay_jitter_ms,
            ref.delay_jitter_ms);
    compare("expected_transmissions", prod.measures.expected_transmissions,
            ref.expected_transmissions);
    compare("transmissions_delivered", prod.transmissions_delivered,
            ref.expected_transmissions_delivered);
    compare("utilization", prod.measures.utilization, ref.utilization);
    for (std::size_t h = 0; h < ref.expected_transmissions_per_hop.size(); ++h)
      compare(("transmissions_hop" + std::to_string(h)).c_str(),
              prod.transmissions_per_hop[h],
              ref.expected_transmissions_per_hop[h]);

    // The walk's own outputs beyond the measures: its delivery records
    // (the data of Fig. 6) and its adjoint, reachability_sensitivity,
    // against finite differences of the R just held to the reference.
    const std::string records = delivery_record_fault(path_config, prod);
    if (!records.empty()) add_finding(p, "reference:deliveries", records);
    {
      constexpr double kSensitivityTolerance = 1e-6;
      const hart::PathModel model(path_config);
      const std::vector<double> gradient = hart::reachability_sensitivity(
          model, hart::SteadyStateLinks{availabilities});
      for (std::size_t h = 0; h < gradient.size(); ++h) {
        const double difference =
            reachability_difference(model, availabilities, h);
        if (!close(gradient[h], difference, kSensitivityTolerance))
          add_finding(p, "reference:dR/dps_hop" + std::to_string(h),
                      "sensitivity " + format_double(gradient[h]) +
                          " vs finite difference " +
                          format_double(difference));
      }
    }

    // Channel leg: the enlarged-state-space walk under the scenario's
    // correlated-channel overlay, against the independent channel
    // reference.  The channel faults corrupt only this leg.
    if (scenario.channel.has_value()) {
      const std::vector<link::ChannelModel> channels =
          scenario.hop_channels(p);
      std::size_t enlarged = 0;
      for (const link::ChannelModel& c : channels)
        enlarged += c.state_count();
      const ReferenceResult channel_ref =
          reference_solve_channel(path_config, channels);
      const std::string tag = "channel-per-slot";
      const ProductionLeg leg =
          solve_production_channel(path_config, channels, config.injection);
      // The enlarged solver must actually have dispatched: its transient
      // state count is the sum of the hops' channel sizes, not the hop
      // count of the compact chain.
      if (!leg.measures.diagnostics.has_value() ||
          leg.measures.diagnostics->transient_states != enlarged)
        add_finding(p, "closure:" + tag + "-dispatch",
                    "expected " + std::to_string(enlarged) +
                        " enlarged transient states");
      const double closure =
          std::abs(leg.measures.reachability + leg.discard - 1.0);
      if (closure > config.deterministic_tolerance)
        add_finding(p, "closure:" + tag + ":reachability-discard",
                    "|R + P(discard) - 1| = " + format_double(closure));
      const auto compare_channel = [&](const std::string& field,
                                       double prod_value, double ref_value) {
        if (!close(prod_value, ref_value, config.deterministic_tolerance))
          add_finding(p, tag + ":" + field,
                      "production " + format_double(prod_value) +
                          " vs channel reference " + format_double(ref_value));
      };
      for (std::size_t i = 0; i < channel_ref.cycle_probabilities.size(); ++i)
        compare_channel("g(" + std::to_string(i + 1) + ")",
                        leg.measures.cycle_probabilities[i],
                        channel_ref.cycle_probabilities[i]);
      compare_channel("reachability", leg.measures.reachability,
                      channel_ref.reachability);
      compare_channel("discard", leg.discard, channel_ref.discard_probability);
      compare_channel("expected_delay_ms", leg.measures.expected_delay_ms,
                      channel_ref.expected_delay_ms);
      compare_channel("expected_transmissions",
                      leg.measures.expected_transmissions,
                      channel_ref.expected_transmissions);
      compare_channel("transmissions_delivered", leg.transmissions_delivered,
                      channel_ref.expected_transmissions_delivered);
      for (std::size_t h = 0;
           h < channel_ref.expected_transmissions_per_hop.size(); ++h)
        compare_channel("transmissions_hop" + std::to_string(h),
                        leg.transmissions_per_hop[h],
                        channel_ref.expected_transmissions_per_hop[h]);
      channel_production.push_back(leg);
    }
  }

  // Retry slots cannot be expressed in a net::Schedule, so such
  // scenarios are checked by the per-path legs only.
  if (scenario.has_retry_slots()) return report;
  const BuiltScenario built = build_network(scenario);

  // What-if leg: WhatIfEngine::what_if, which re-walks only the paths
  // using the changed link, against a fresh analyze_network of a network
  // copy with that link moved.  Every link is moved in turn to a probe
  // availability in [0.5, 1) distinct from its own; both sides read the
  // probe model's availability, so they solve the same chains.
  // kWhatIfSkipPath corrupts only this leg's engine answer.
  {
    constexpr double kWhatIfTolerance = 1e-12;
    hart::WhatIfOptions engine_options;
    engine_options.threads = 1;
    hart::WhatIfEngine engine(built.network, built.paths, built.schedule,
                              scenario.superframe, scenario.reporting_interval,
                              engine_options);
    hart::AnalysisOptions fresh_options;
    fresh_options.threads = 1;
    for (const net::LinkId link : engine.links()) {
      const double base = engine.baseline_availability(link);
      const link::LinkModel probe = link::LinkModel::from_availability(
          base == 1.0 ? 0.75 : 0.5 + 0.5 * base);
      hart::WhatIfResult answer =
          engine.what_if(link, probe.steady_state_availability());
      const std::span<const std::size_t> affected =
          engine.affected_paths(link);
      if (config.injection == Injection::kWhatIfSkipPath && !affected.empty())
        answer.per_path[affected.front()] =
            engine.baseline()[affected.front()];
      net::Network modified = built.network;
      modified.set_link_model(link, probe);
      const hart::NetworkMeasures fresh = hart::analyze_network(
          modified, built.paths, built.schedule, scenario.superframe,
          scenario.reporting_interval, fresh_options);
      for (std::size_t p = 0; p < fresh.per_path.size(); ++p) {
        const hart::PathMeasures& want = fresh.per_path[p];
        const hart::PathMeasures& got = answer.per_path[p];
        const auto compare_what_if = [&](const std::string& field,
                                         double got_value, double want_value) {
          if (!close(got_value, want_value, kWhatIfTolerance))
            add_finding(p,
                        "what-if:link" + std::to_string(link.value) + ":" +
                            field,
                        "engine " + format_double(got_value) +
                            " vs fresh analysis " + format_double(want_value));
        };
        for (std::size_t i = 0; i < want.cycle_probabilities.size(); ++i)
          compare_what_if("g(" + std::to_string(i + 1) + ")",
                          got.cycle_probabilities[i],
                          want.cycle_probabilities[i]);
        compare_what_if("expected_delay_ms", got.expected_delay_ms,
                        want.expected_delay_ms);
        compare_what_if("expected_transmissions", got.expected_transmissions,
                        want.expected_transmissions);
        compare_what_if("utilization_delivered", got.utilization_delivered,
                        want.utilization_delivered);
      }
    }
  }

  // Simulator leg.
  if (!config.run_simulation) return report;
  sim::SimulatorConfig sim_config;
  sim_config.superframe = scenario.superframe;
  sim_config.reporting_interval = scenario.reporting_interval;
  sim_config.intervals = config.sim_intervals;
  // Decorrelate the simulation stream from the generation stream.
  std::uint64_t seed_state = scenario.seed ^ 0x5EEDFACE5EEDFACEULL;
  sim_config.seed = numeric::splitmix64(seed_state);
  sim_config.ttl = scenario.ttl;
  // A channel overlay switches the simulator to the kChannel regime: the
  // empirical draws then come from the very chains the channel leg
  // solved, and the statistical comparison targets that leg.
  const bool channel_sim = scenario.channel.has_value();
  sim_config.regime = channel_sim ? sim::LinkRegime::kChannel : config.regime;
  if (channel_sim) sim_config.channel = scenario.channel;
  sim_config.shards = config.sim_shards;
  sim_config.threads = config.sim_threads;

  const sim::NetworkSimulator simulator(built.network, built.paths,
                                        built.schedule, sim_config);
  const sim::SimulationReport sim_report = simulator.run();
  report.simulated = true;

  const double z = z_for_delta(config.per_check_delta);
  for (std::size_t p = 0; p < scenario.path_count(); ++p) {
    const ProductionLeg& prod =
        channel_sim ? channel_production[p] : production[p];
    const sim::PathStatistics& stats = sim_report.per_path[p];
    const std::uint64_t n = stats.messages;

    // The interval endpoints are themselves floating-point results with
    // ~1e-16 relative error (at p-hat = 1 the Wilson upper bound rounds
    // to 1 - 1e-16, excluding an analytic value of exactly 1.0), so
    // membership is tested with a small absolute slack — negligible
    // against any real statistical radius.
    constexpr double kBoundarySlack = 1e-12;
    const auto check_proportion = [&](const std::string& field,
                                      std::uint64_t successes,
                                      double analytic) {
      ++report.statistical_checks;
      const sim::Interval ci = sim::wilson_interval(successes, n, z);
      if (analytic < ci.low - kBoundarySlack ||
          analytic > ci.high + kBoundarySlack)
        add_finding(p, "simulator:" + field,
                    "analytic " + format_double(analytic) + " outside [" +
                        format_double(ci.low) + ", " + format_double(ci.high) +
                        "] from " + std::to_string(successes) + "/" +
                        std::to_string(n) + " samples");
    };

    std::uint64_t delivered = 0;
    for (std::uint64_t d : stats.delivered_per_cycle) delivered += d;
    check_proportion("reachability", delivered, prod.measures.reachability);
    check_proportion("discard", stats.discarded, prod.discard);
    for (std::size_t i = 0; i < stats.delivered_per_cycle.size(); ++i)
      check_proportion("g(" + std::to_string(i + 1) + ")",
                       stats.delivered_per_cycle[i],
                       prod.measures.cycle_probabilities[i]);

    // Mean delay over delivered messages: Hoeffding, with the sample
    // range bounded by the delay spread of the Is possible cycles.
    if (delivered > 0 && prod.measures.reachability > 0.0) {
      const std::size_t last = prod.measures.cycle_probabilities.size() - 1;
      const double range =
          prod.measures.delay_ms(last) - prod.measures.delay_ms(0);
      const double gap =
          std::abs(stats.delay_ms.mean() - prod.measures.expected_delay_ms);
      if (range > 0.0) {
        ++report.statistical_checks;
        const double radius =
            hoeffding_radius(delivered, config.per_check_delta, range);
        if (gap > radius)
          add_finding(p, "simulator:expected_delay_ms",
                      "empirical " + format_double(stats.delay_ms.mean()) +
                          " vs analytic " +
                          format_double(prod.measures.expected_delay_ms) +
                          ", Hoeffding radius " + format_double(radius));
      } else if (gap > 1e-9 * std::max(1.0, prod.measures.expected_delay_ms)) {
        // Is = 1: every delivery has the same deterministic delay.
        add_finding(p, "simulator:expected_delay_ms",
                    "single-cycle delay mismatch: empirical " +
                        format_double(stats.delay_ms.mean()) + " vs " +
                        format_double(prod.measures.expected_delay_ms));
      }
    }

    // Attempts per message: bounded by the path's transmission
    // opportunities per interval, so Hoeffding applies.
    {
      ++report.statistical_checks;
      const double opportunities =
          static_cast<double>(scenario.paths[p].hop_count()) *
          scenario.reporting_interval;
      const double empirical =
          static_cast<double>(stats.transmissions) / static_cast<double>(n);
      const double radius =
          hoeffding_radius(n, config.per_check_delta, opportunities);
      if (std::abs(empirical - prod.measures.expected_transmissions) > radius)
        add_finding(p, "simulator:expected_transmissions",
                    "empirical " + format_double(empirical) +
                        " vs analytic " +
                        format_double(prod.measures.expected_transmissions) +
                        ", Hoeffding radius " + format_double(radius));
    }
  }
  return report;
}

}  // namespace whart::verify
