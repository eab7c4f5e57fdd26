#include "whart/verify/oracle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "whart/common/contracts.hpp"
#include "whart/hart/link_probability.hpp"
#include "whart/hart/path_analysis.hpp"
#include "whart/hart/path_model.hpp"
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
/// corrupts this leg (and only this leg).
ProductionLeg solve_production_channel(
    const hart::PathModelConfig& config,
    const std::vector<link::ChannelModel>& channels, Injection injection,
    hart::TransientKernel kernel) {
  const hart::PathModel model(config);
  const hart::ChannelLinks links{channels};
  hart::PathAnalysisOptions options;
  options.kernel = kernel;
  options.inject_channel_state_leak =
      injection == Injection::kChannelStateLeak;
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

}  // namespace

OracleReport cross_validate(const Scenario& input_scenario,
                            const OracleConfig& config) {
  // kChannelStateLeak corrupts the channel leg, so the self-test must
  // guarantee that leg runs and that the leak is observable in every
  // scenario: override the overlay with a fixed slow-mixing chain
  // (|lambda_2| = 0.85, so the leaked state survives even a 40-slot
  // cycle well above the deterministic tolerance — a fast generated
  // chain can forget the leak between attempts), force at least two
  // cycles so hops can retry, and drop any TTL (with TTL = 1 a failed
  // attempt discards and the leaked memory is never consulted).
  Scenario scenario = input_scenario;
  if (config.injection == Injection::kChannelStateLeak) {
    scenario.channel =
        link::ChannelModel::gilbert_elliott(0.05, 0.1, 0.02, 0.65);
    scenario.reporting_interval =
        std::max<std::uint32_t>(scenario.reporting_interval, 2);
    scenario.ttl.reset();
  }
  // kStaleProductRow corrupts the cycle product the incremental leg
  // propagates; with a single-cycle interval the transient never applies
  // the product, so the self-test forces retries to exist (mirroring the
  // channel-leak forcing above).
  if (config.injection == Injection::kStaleProductRow) {
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

    // Kernel leg: the superframe-product collapse on the TRUE
    // availabilities, against the same reference.  Steady-state links are
    // cycle-stationary, so the collapse must actually run — a per-slot
    // fallback here would silently bypass the arm under test.
    {
      hart::PathAnalysisOptions kernel_options;
      kernel_options.kernel = hart::TransientKernel::kSuperframeProduct;
      if (config.injection == Injection::kProductEntry)
        kernel_options.inject_product_error = 1e-3;
      const hart::PathModel model(path_config);
      const hart::SteadyStateLinks links{availabilities};
      const hart::PathTransientResult kern =
          model.analyze(links, kernel_options);
      if (kern.diagnostics.kernel !=
          hart::TransientKernel::kSuperframeProduct)
        add_finding(p, "closure:kernel-dispatch",
                    "superframe kernel fell back to per-slot on "
                    "cycle-stationary links");
      const auto compare_kernel = [&](const std::string& field,
                                      double kern_value, double ref_value) {
        if (!close(kern_value, ref_value, config.deterministic_tolerance))
          add_finding(p, "kernel:" + field,
                      "kernel " + format_double(kern_value) +
                          " vs reference " + format_double(ref_value));
      };
      for (std::size_t i = 0; i < ref.cycle_probabilities.size(); ++i)
        compare_kernel("g(" + std::to_string(i + 1) + ")",
                       kern.cycle_probabilities[i],
                       ref.cycle_probabilities[i]);
      compare_kernel("discard", kern.discard_probability,
                     ref.discard_probability);
      compare_kernel("expected_transmissions", kern.expected_transmissions,
                     ref.expected_transmissions);
      compare_kernel("transmissions_delivered",
                     kern.expected_transmissions_delivered,
                     ref.expected_transmissions_delivered);
      for (std::size_t h = 0; h < ref.expected_transmissions_per_hop.size();
           ++h)
        compare_kernel("transmissions_hop" + std::to_string(h),
                       kern.expected_transmissions_per_hop[h],
                       ref.expected_transmissions_per_hop[h]);
    }

    // Refill leg: the symbolic/numeric split's promise is bitwise, not
    // within-tolerance — a skeleton refill replays the exact arithmetic
    // of a fresh build.  Each kernel runs twice: cold (the workspace is
    // primed and every buffer allocated) and warm (pure value refill
    // into retained buffers), both compared bit for bit against the
    // fresh solve.  kStaleSkeletonValue corrupts only this leg.
    {
      const hart::PathModel model(path_config);
      const hart::PathModelSkeleton skeleton(path_config);
      const hart::SteadyStateLinks links{availabilities};
      hart::SolveWorkspace workspace;
      hart::PathTransientResult refilled;
      for (const hart::TransientKernel kernel :
           {hart::TransientKernel::kPerSlot,
            hart::TransientKernel::kSuperframeProduct}) {
        hart::PathAnalysisOptions options;
        options.kernel = kernel;
        const hart::PathTransientResult fresh = model.analyze(links, options);
        hart::PathAnalysisOptions refill_options = options;
        if (config.injection == Injection::kStaleSkeletonValue)
          refill_options.inject_stale_skeleton = 1e-6;
        const std::string kernel_tag =
            kernel == hart::TransientKernel::kSuperframeProduct
                ? "superframe"
                : "per-slot";
        for (const char* pass : {"cold", "warm"}) {
          skeleton.analyze_into(links, refill_options, workspace, refilled);
          const auto compare_bits = [&](const std::string& field,
                                        double fresh_value,
                                        double refill_value) {
            if (std::bit_cast<std::uint64_t>(fresh_value) !=
                std::bit_cast<std::uint64_t>(refill_value))
              add_finding(p,
                          "refill:" + kernel_tag + ":" + pass + ":" + field,
                          "fresh " + format_double(fresh_value) +
                              " vs refill " + format_double(refill_value));
          };
          for (std::size_t i = 0; i < fresh.cycle_probabilities.size(); ++i)
            compare_bits("g(" + std::to_string(i + 1) + ")",
                         fresh.cycle_probabilities[i],
                         refilled.cycle_probabilities[i]);
          compare_bits("discard", fresh.discard_probability,
                       refilled.discard_probability);
          compare_bits("expected_transmissions", fresh.expected_transmissions,
                       refilled.expected_transmissions);
          compare_bits("transmissions_delivered",
                       fresh.expected_transmissions_delivered,
                       refilled.expected_transmissions_delivered);
          for (std::size_t h = 0;
               h < fresh.expected_transmissions_per_hop.size(); ++h)
            compare_bits("transmissions_hop" + std::to_string(h),
                         fresh.expected_transmissions_per_hop[h],
                         refilled.expected_transmissions_per_hop[h]);
          if (fresh.goal_trajectory.size() != refilled.goal_trajectory.size()) {
            add_finding(p, "refill:" + kernel_tag + ":" + pass + ":trajectory",
                        "fresh " +
                            std::to_string(fresh.goal_trajectory.size()) +
                            " trajectory entries vs refill " +
                            std::to_string(refilled.goal_trajectory.size()));
          } else {
            for (std::size_t t = 0; t < fresh.goal_trajectory.size(); ++t) {
              if (fresh.goal_trajectory[t].size() !=
                  refilled.goal_trajectory[t].size()) {
                add_finding(
                    p,
                    "refill:" + kernel_tag + ":" + pass + ":trajectory",
                    "entry " + std::to_string(t) + " size mismatch");
                continue;
              }
              for (std::size_t s = 0; s < fresh.goal_trajectory[t].size(); ++s)
                compare_bits("trajectory(" + std::to_string(t) + "," +
                                 std::to_string(s) + ")",
                             fresh.goal_trajectory[t][s],
                             refilled.goal_trajectory[t][s]);
            }
          }
        }
      }
    }

    // Batch leg: the lane-parallel refill (DESIGN.md §13).  Lane 0
    // carries the scenario's true availabilities; lanes 1..3 deform them
    // strictly into (0, 1), so the batch always holds distinct
    // non-degenerate lanes and a cross-lane swap is always observable.
    // Each lane must reproduce its own fresh superframe solve to 1e-12
    // relative.  kLaneSwap corrupts only this leg.
    {
      constexpr std::size_t kLanes = 4;
      constexpr double kLaneTolerance = 1e-12;
      const hart::PathModel model(path_config);
      const hart::PathModelSkeleton skeleton(path_config);
      std::vector<hart::SteadyStateLinks> lane_links;
      lane_links.reserve(kLanes);
      for (std::size_t j = 0; j < kLanes; ++j) {
        std::vector<double> lane_avail = availabilities;
        if (j > 0) {
          const double blend = 0.1 * static_cast<double>(j);
          for (double& a : lane_avail)
            a = a * (1.0 - blend) + 0.5 * blend +
                0.001 * static_cast<double>(j);
        }
        lane_links.emplace_back(lane_avail);
      }
      std::vector<const hart::LinkProbabilityProvider*> providers;
      providers.reserve(kLanes);
      for (const hart::SteadyStateLinks& lane : lane_links)
        providers.push_back(&lane);
      hart::PathAnalysisOptions batch_options;
      batch_options.kernel = hart::TransientKernel::kSuperframeProduct;
      batch_options.inject_lane_swap =
          config.injection == Injection::kLaneSwap;
      hart::SolveWorkspace batch_workspace;
      std::vector<hart::PathTransientResult> batched(kLanes);
      skeleton.analyze_batch_into(providers, batch_options, batch_workspace,
                                  batched);
      hart::PathAnalysisOptions lane_options;
      lane_options.kernel = hart::TransientKernel::kSuperframeProduct;
      for (std::size_t j = 0; j < kLanes; ++j) {
        const hart::PathTransientResult fresh =
            model.analyze(lane_links[j], lane_options);
        const auto compare_lane = [&](const std::string& field,
                                      double fresh_value,
                                      double lane_value) {
          if (!close(fresh_value, lane_value, kLaneTolerance))
            add_finding(p, "batch:lane" + std::to_string(j) + ":" + field,
                        "fresh " + format_double(fresh_value) + " vs lane " +
                            format_double(lane_value));
        };
        for (std::size_t i = 0; i < fresh.cycle_probabilities.size(); ++i)
          compare_lane("g(" + std::to_string(i + 1) + ")",
                       fresh.cycle_probabilities[i],
                       batched[j].cycle_probabilities[i]);
        compare_lane("discard", fresh.discard_probability,
                     batched[j].discard_probability);
        compare_lane("expected_transmissions", fresh.expected_transmissions,
                     batched[j].expected_transmissions);
        compare_lane("transmissions_delivered",
                     fresh.expected_transmissions_delivered,
                     batched[j].expected_transmissions_delivered);
        for (std::size_t h = 0;
             h < fresh.expected_transmissions_per_hop.size(); ++h)
          compare_lane("transmissions_hop" + std::to_string(h),
                       fresh.expected_transmissions_per_hop[h],
                       batched[j].expected_transmissions_per_hop[h]);
      }
    }

    // Incremental leg: the what-if engine's targeted Gustavson row
    // replay (markov::IncrementalProduct, DESIGN.md §15).  The leg
    // seeds a baseline cycle product from the scenario's availabilities
    // (degenerate 0 or 1 included), then perturbs each hop in isolation
    // to a probe value inside (0, 1), re-solves through
    // analyze_incremental_into (only the dirty product rows replayed)
    // and compares against a fresh solve of the perturbed chain.  Under
    // kPerSlot the incremental path declines by contract and the
    // cached-skeleton fallback the what-if engine would take is held to
    // the same bound.  kStaleProductRow corrupts only this leg.
    {
      constexpr double kIncrementalTolerance = 1e-12;
      const hart::PathModel model(path_config);
      const hart::PathModelSkeleton skeleton(path_config);
      const std::vector<double>& base = availabilities;
      const hart::SteadyStateLinks base_links{base};
      for (const hart::TransientKernel kernel :
           {hart::TransientKernel::kPerSlot,
            hart::TransientKernel::kSuperframeProduct}) {
        const bool superframe =
            kernel == hart::TransientKernel::kSuperframeProduct;
        const std::string tag =
            superframe ? "incremental:superframe" : "incremental:per-slot";
        hart::PathAnalysisOptions options;
        options.kernel = kernel;
        if (config.injection == Injection::kStaleProductRow)
          options.inject_stale_product_row = 1e-6;
        hart::PathAnalysisOptions fresh_options;
        fresh_options.kernel = kernel;
        markov::IncrementalProduct product(skeleton.chain(),
                                           skeleton.factor_patterns());
        hart::SolveWorkspace workspace;
        hart::PathTransientResult incremental;
        const bool seeded = skeleton.analyze_incremental_into(
            base_links, options, {}, product, workspace, incremental);
        if (superframe && !seeded) {
          add_finding(p, "closure:incremental-dispatch",
                      "incremental seed declined on cycle-stationary links");
          continue;
        }
        for (std::size_t h = 0; h < base.size(); ++h) {
          std::vector<double> perturbed = base;
          perturbed[h] = 0.5 * base[h] + 0.25;  // stays inside (0, 1)
          if (perturbed[h] == base[h]) perturbed[h] += 0.01;
          const hart::SteadyStateLinks links{perturbed};
          const std::size_t changed[] = {h};
          bool solved = false;
          if (seeded)
            solved = skeleton.analyze_incremental_into(
                links, options, changed, product, workspace, incremental);
          if (superframe && !solved) {
            add_finding(
                p, "closure:incremental-dispatch",
                "incremental solve declined on hop " + std::to_string(h));
            break;
          }
          if (!solved)
            skeleton.analyze_into(links, options, workspace, incremental);
          const hart::PathTransientResult fresh =
              model.analyze(links, fresh_options);
          const auto compare_incremental = [&](const std::string& field,
                                               double fresh_value,
                                               double incremental_value) {
            if (!close(fresh_value, incremental_value, kIncrementalTolerance))
              add_finding(p, tag + ":hop" + std::to_string(h) + ":" + field,
                          "fresh " + format_double(fresh_value) +
                              " vs incremental " +
                              format_double(incremental_value));
          };
          for (std::size_t i = 0; i < fresh.cycle_probabilities.size(); ++i)
            compare_incremental("g(" + std::to_string(i + 1) + ")",
                                fresh.cycle_probabilities[i],
                                incremental.cycle_probabilities[i]);
          compare_incremental("discard", fresh.discard_probability,
                              incremental.discard_probability);
          compare_incremental("expected_transmissions",
                              fresh.expected_transmissions,
                              incremental.expected_transmissions);
          compare_incremental("transmissions_delivered",
                              fresh.expected_transmissions_delivered,
                              incremental.expected_transmissions_delivered);
          for (std::size_t hh = 0;
               hh < fresh.expected_transmissions_per_hop.size(); ++hh)
            compare_incremental("transmissions_hop" + std::to_string(hh),
                                fresh.expected_transmissions_per_hop[hh],
                                incremental.expected_transmissions_per_hop[hh]);
          // Restore the baseline product state so the next hop's
          // perturbation is isolated (targeted replay, no fresh seed).
          if (seeded)
            skeleton.analyze_incremental_into(base_links, options, changed,
                                              product, workspace, incremental);
        }
      }
    }

    // Channel leg: the enlarged-state-space solver under the scenario's
    // correlated-channel overlay, both kernels, against the independent
    // dense channel reference.  kChannelStateLeak corrupts only this
    // leg.
    if (scenario.channel.has_value()) {
      const std::vector<link::ChannelModel> channels =
          scenario.hop_channels(p);
      std::size_t enlarged = 0;
      for (const link::ChannelModel& c : channels)
        enlarged += c.state_count();
      const ReferenceResult channel_ref =
          reference_solve_channel(path_config, channels);
      for (const hart::TransientKernel kernel :
           {hart::TransientKernel::kPerSlot,
            hart::TransientKernel::kSuperframeProduct}) {
        const std::string tag =
            kernel == hart::TransientKernel::kSuperframeProduct
                ? "channel-superframe"
                : "channel-per-slot";
        const ProductionLeg leg = solve_production_channel(
            path_config, channels, config.injection, kernel);
        // The enlarged solver must actually have dispatched: its
        // transient state count is the sum of the hops' channel sizes,
        // not the hop count of the compact chain.
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
                                         double prod_value,
                                         double ref_value) {
          if (!close(prod_value, ref_value, config.deterministic_tolerance))
            add_finding(p, tag + ":" + field,
                        "production " + format_double(prod_value) +
                            " vs channel reference " +
                            format_double(ref_value));
        };
        for (std::size_t i = 0; i < channel_ref.cycle_probabilities.size();
             ++i)
          compare_channel("g(" + std::to_string(i + 1) + ")",
                          leg.measures.cycle_probabilities[i],
                          channel_ref.cycle_probabilities[i]);
        compare_channel("reachability", leg.measures.reachability,
                        channel_ref.reachability);
        compare_channel("discard", leg.discard,
                        channel_ref.discard_probability);
        compare_channel("expected_delay_ms", leg.measures.expected_delay_ms,
                        channel_ref.expected_delay_ms);
        compare_channel("expected_transmissions",
                        leg.measures.expected_transmissions,
                        channel_ref.expected_transmissions);
        compare_channel("transmissions_delivered",
                        leg.transmissions_delivered,
                        channel_ref.expected_transmissions_delivered);
        for (std::size_t h = 0;
             h < channel_ref.expected_transmissions_per_hop.size(); ++h)
          compare_channel("transmissions_hop" + std::to_string(h),
                          leg.transmissions_per_hop[h],
                          channel_ref.expected_transmissions_per_hop[h]);
        if (kernel == hart::TransientKernel::kPerSlot)
          channel_production.push_back(leg);
      }
    }
  }

  // Simulator leg.  Retry slots cannot be expressed in a net::Schedule,
  // so such scenarios are checked by the deterministic legs only.
  if (!config.run_simulation || scenario.has_retry_slots()) return report;

  BuiltScenario built = build_network(scenario);
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
      const double range = prod.measures.delays_ms.back() -
                           prod.measures.delays_ms.front();
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
