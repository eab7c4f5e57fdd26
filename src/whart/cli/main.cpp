// whart_cli — analyze a WirelessHART network spec: per-path reachability,
// delay and utilization, plus optional energy/stability reports, CSV
// export and a Monte-Carlo cross-check.
//
// Usage:
//   whart_cli <spec-file> [options]
//   whart_cli --typical   [options]          # the paper's Fig. 12 network
//   cat spec | whart_cli - [options]
//
// Numeric flag values are whole-token numbers (a bad one prints usage
// naming the flag and exits 2).
//
// Options:
//   --interval <Is>      override the reporting interval (Is >= 1, and
//                        Is * Fup must fit in 32 bits)
//   --simulate <N>       Monte-Carlo cross-check over N intervals
//   --energy             per-node energy / battery-life report
//   --stability <R>      assess every path against a target reachability
//   --csv <file>         export per-path measures as CSV
//   --sweep <file>       export an availability sweep (0.65..0.99) of the
//                        worst path as CSV (reachability, delay, jitter)
//   --shards <n>         Monte-Carlo shards (deterministic per shard count)
//   --channel <spec>     correlated burst-loss channel overlay:
//                        iid | ge:pgb,pbg,eg,eb | chain:<file>.  Every
//                        hop runs the overlay rescaled to its own
//                        steady-state availability; the analysis solves
//                        the channel-enlarged DTMC, --simulate draws
//                        from the same chains (kChannel regime) and
//                        --sweep evaluates its grid under the overlay
//   --what-if link=<id>:<pfl>
//                        what-if (DESIGN.md §15): re-evaluate the
//                        network with link <id>'s per-slot failure
//                        probability set to <pfl> (its recovery
//                        probability kept), re-walking only the paths
//                        scheduled over that link; prints the affected
//                        paths' measure deltas and the new network
//                        summary.  Not available together with --channel

//   --metrics[=<file>]   dump the metrics-registry snapshot as JSON
//                        (default file: whart_metrics.json)
//   --trace[=<file>]     record trace spans and dump Chrome trace_event
//                        JSON (default file: whart_trace.json); also
//                        prints the aggregate span table
//   --obs-dir=<dir>      full observability bundle: enables metrics,
//                        tracing, the flight recorder and a background
//                        sampler, then writes metrics.json, trace.json,
//                        events.jsonl, metrics.prom and timeseries.csv
//                        into <dir> (created if missing)
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "whart/cli/spec_parser.hpp"
#include "whart/common/obs.hpp"
#include "whart/hart/energy.hpp"
#include "whart/hart/network_analysis.hpp"
#include "whart/hart/stability.hpp"
#include "whart/hart/sweep.hpp"
#include "whart/hart/what_if.hpp"
#include "whart/net/typical_network.hpp"
#include "whart/report/csv.hpp"
#include "whart/report/histogram.hpp"
#include "whart/report/metrics_export.hpp"
#include "whart/report/obs_dir.hpp"
#include "whart/report/table.hpp"
#include "whart/sim/simulator.hpp"

namespace {

using whart::report::Table;

/// A --what-if query: link <id> moves to per-slot failure probability
/// <pfl>.
struct WhatIfQuery {
  std::uint32_t link = 0;
  double pfl = 0.0;
};

struct Options {
  std::uint64_t simulate_intervals = 0;
  std::uint32_t interval_override = 0;
  bool energy = false;
  double stability_target = 0.0;  // 0 = off
  std::string csv_path;
  std::string sweep_path;
  std::uint64_t shards = 0;  // 0 = simulator default
  std::string channel_spec;  // empty = per-slot-independent links
  std::string metrics_path;
  std::string trace_path;
  std::string obs_dir;
  std::optional<WhatIfQuery> what_if;
};

int usage(const std::string& complaint = "") {
  if (!complaint.empty()) std::cerr << "whart_cli: " << complaint << "\n";
  std::cerr << "usage: whart_cli <spec-file>|-|--typical "
               "[--interval <Is>] [--simulate <intervals>] [--energy] "
               "[--stability <targetR>] [--csv <file>] [--sweep <file>] "
               "[--shards <n>] "
               "[--channel iid|ge:pgb,pbg,eg,eb|chain:<file>] "
               "[--what-if link=<id>:<pfl>] "
               "[--metrics[=<file>]] [--trace[=<file>]] "
               "[--obs-dir=<dir>]\n";
  return 2;
}

/// A whole-token number: std::from_chars must read all of `text` — no
/// sign on an unsigned type, no trailing characters, no overflow.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, out);
  return !text.empty() && error == std::errc() && stop == end;
}

/// "link=<id>:<pfl>", or nullopt when malformed.
std::optional<WhatIfQuery> parse_what_if(std::string_view text) {
  const std::size_t colon = text.find(':');
  WhatIfQuery query;
  if (text.rfind("link=", 0) != 0 || colon == std::string_view::npos ||
      !parse_number(text.substr(5, colon - 5), query.link) ||
      !parse_number(text.substr(colon + 1), query.pfl))
    return std::nullopt;
  return query;
}

void print_energy(const whart::cli::ParsedSpec& spec,
                  const whart::net::Schedule& schedule) {
  const auto energies = whart::hart::estimate_node_energy(
      spec.network, spec.paths, schedule, spec.superframe,
      spec.reporting_interval);
  const whart::hart::EnergyParameters params;
  const double interval_ms = spec.superframe.cycle_milliseconds() *
                             static_cast<double>(spec.reporting_interval);

  std::cout << "\nPer-node energy (tx " << params.tx_mj_per_attempt
            << " mJ, rx " << params.rx_mj_per_attempt
            << " mJ per attempt, battery " << params.battery_joules / 1000.0
            << " kJ):\n";
  Table table({"node", "tx/interval", "rx/interval", "mJ/interval",
               "battery life (days)"});
  for (const auto& node : energies) {
    const double days = node.battery_life_days(params, interval_ms);
    table.add_row({spec.network.node_name(node.node),
                   Table::fixed(node.tx_attempts_per_interval, 3),
                   Table::fixed(node.rx_attempts_per_interval, 3),
                   Table::fixed(node.mj_per_interval, 4),
                   std::isinf(days) ? "inf" : Table::fixed(days, 0)});
  }
  table.print(std::cout);
  std::cout << "hottest node: "
            << spec.network.node_name(
                   energies[whart::hart::hottest_node(energies)].node)
            << "\n";
}

void print_stability(const whart::cli::ParsedSpec& spec,
                     const whart::hart::NetworkMeasures& measures,
                     double target) {
  std::cout << "\nStability vs target R >= " << Table::percent(target, 2)
            << " (tolerating at most 1 consecutive loss):\n";
  Table table({"path", "R", "E[N] to loss", "E[N] to 2-loss run",
               "verdict"});
  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    const auto a = whart::hart::assess_stability(
        measures.per_path[p].reachability,
        whart::hart::StabilityRequirement{2, target});
    table.add_row(
        {spec.paths[p].to_string(spec.network),
         Table::percent(a.reachability, 3),
         Table::fixed(a.expected_intervals_to_first_loss, 0),
         Table::fixed(a.expected_intervals_to_violation, 0),
         a.meets_reachability ? "ok" : "BELOW TARGET"});
  }
  table.print(std::cout);
}

void write_csv(const whart::cli::ParsedSpec& spec,
               const whart::hart::NetworkMeasures& measures,
               const std::string& path) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot write '" + path + "'");
  whart::report::CsvWriter csv(file);
  csv.write_row({"path", "hops", "reachability", "expected_delay_ms",
                 "utilization", "utilization_delivered",
                 "expected_intervals_to_first_loss"});
  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    const auto& m = measures.per_path[p];
    csv.write_row({spec.paths[p].to_string(spec.network),
                   std::to_string(spec.paths[p].hop_count()),
                   std::to_string(m.reachability),
                   std::to_string(m.expected_delay_ms),
                   std::to_string(m.utilization),
                   std::to_string(m.utilization_delivered),
                   std::to_string(m.expected_intervals_to_first_loss)});
  }
  std::cout << "\nwrote " << spec.paths.size() << " rows to " << path
            << "\n";
}

/// The --what-if mode: re-evaluate the network with one link's failure
/// probability moved to the requested value, through the what-if engine
/// (DESIGN.md §15) — only paths scheduled over the link re-walk.
void print_what_if(const whart::cli::ParsedSpec& spec,
                   const whart::net::Schedule& schedule,
                   const Options& options) {
  const whart::net::LinkId link{options.what_if->link};
  const double pfl = options.what_if->pfl;
  if (link.value >= spec.network.link_count())
    throw std::runtime_error("--what-if: unknown link id " +
                             std::to_string(link.value));
  if (!(pfl >= 0.0) || !(pfl < 1.0))
    throw std::runtime_error("--what-if: pfl must be in [0, 1)");

  // The link keeps its measured recovery probability; only the per-slot
  // failure probability moves, so the what-if availability follows from
  // the two-state model's stationary distribution.
  const whart::link::LinkModel& base = spec.network.link(link).model;
  const double prc = base.recovery_probability();
  const double availability = prc / (prc + pfl);

  whart::hart::WhatIfEngine engine(spec.network, spec.paths, schedule,
                                   spec.superframe, spec.reporting_interval);
  const std::vector<whart::hart::PathMeasures>& baseline = engine.baseline();
  whart::hart::WhatIfResult result = engine.what_if(link, availability);

  const whart::net::Link& edge = spec.network.link(link);
  std::cout << "\nWhat-if: link " << link.value << " ("
            << spec.network.node_name(edge.a) << "-"
            << spec.network.node_name(edge.b) << ") pfl "
            << Table::fixed(base.failure_probability(), 4) << " -> "
            << Table::fixed(pfl, 4) << " (availability "
            << Table::percent(base.steady_state_availability(), 2) << " -> "
            << Table::percent(availability, 2) << ")\n";

  Table table({"affected path", "R (base)", "R (what-if)", "E[delay] base",
               "E[delay] what-if"});
  for (std::size_t p : engine.affected_paths(link)) {
    table.add_row({spec.paths[p].to_string(spec.network),
                   Table::percent(baseline[p].reachability, 3),
                   Table::percent(result.per_path[p].reachability, 3),
                   Table::fixed(baseline[p].expected_delay_ms, 1),
                   Table::fixed(result.per_path[p].expected_delay_ms, 1)});
  }
  table.print(std::cout);

  const std::size_t resolved = result.paths_resolved;
  const std::size_t reused = result.paths_reused;
  const whart::hart::NetworkMeasures what_if_measures =
      whart::hart::aggregate_measures(std::move(result.per_path));
  std::cout << "what-if network: E[Gamma] = "
            << Table::fixed(what_if_measures.mean_delay_ms, 1)
            << " ms, utilization U = "
            << Table::fixed(what_if_measures.network_utilization, 4) << "\n"
            << "what-if engine: " << resolved << " paths re-walked, "
            << reused << " kept at baseline\n";
}

void print_analysis(const whart::cli::ParsedSpec& spec,
                    const Options& options) {
  const std::uint64_t simulate_intervals = options.simulate_intervals;
  const whart::net::Schedule schedule = whart::net::build_schedule(
      spec.paths, spec.superframe.uplink_slots, spec.policy);

  // Parsed here, inside main's try block, so a malformed spec reports as
  // a normal CLI error rather than escaping the argument loop.
  std::optional<whart::link::ChannelModel> channel;
  if (!options.channel_spec.empty())
    channel = whart::link::ChannelModel::parse(options.channel_spec);

  if (channel.has_value() && options.what_if.has_value())
    throw std::runtime_error(
        "--what-if is not available together with --channel (the "
        "what-if engine walks steady-state links only)");

  whart::hart::AnalysisOptions analysis_options;
  analysis_options.channel = channel;
  const whart::hart::NetworkMeasures measures = whart::hart::analyze_network(
      spec.network, spec.paths, schedule, spec.superframe,
      spec.reporting_interval, analysis_options);

  std::cout << "Schedule eta = " << schedule.to_string(spec.network) << "\n";
  std::cout << "Superframe: Fup=" << spec.superframe.uplink_slots
            << " Fdown=" << spec.superframe.downlink_slots
            << "  reporting interval Is=" << spec.reporting_interval
            << "\n";
  if (channel.has_value()) {
    std::cout << "Channel: " << channel->to_string();
    if (channel->state_count() == 2)
      std::cout << "  (mean bad burst "
                << Table::fixed(channel->mean_bad_burst_length(), 2)
                << " slots)";
    std::cout << "\n";
  }
  std::cout << "\n";

  Table table({"path", "hops", "reachability", "E[delay] ms", "utilization",
               "E[intervals to 1st loss]"});
  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    const auto& m = measures.per_path[p];
    table.add_row({spec.paths[p].to_string(spec.network),
                   std::to_string(spec.paths[p].hop_count()),
                   Table::percent(m.reachability, 3),
                   Table::fixed(m.expected_delay_ms, 1),
                   Table::fixed(m.utilization, 4),
                   Table::fixed(m.expected_intervals_to_first_loss, 1)});
  }
  table.print(std::cout);

  std::cout << "\nNetwork: E[Gamma] = "
            << Table::fixed(measures.mean_delay_ms, 1)
            << " ms, utilization U = "
            << Table::fixed(measures.network_utilization, 4)
            << "\nbottleneck (delay): path "
            << spec.paths[measures.bottleneck_by_delay].to_string(
                   spec.network)
            << "\nbottleneck (reachability): path "
            << spec.paths[measures.bottleneck_by_reachability].to_string(
                   spec.network)
            << "\n";

  const whart::hart::NetworkDiagnostics& diag = measures.diagnostics;
  std::cout << "solver: " << diag.dtmc_solves << " DTMC solves ("
            << diag.states_solved << " states), max mass residual "
            << diag.max_mass_residual << "\n";

  std::cout << "\nOverall delay distribution:\n";
  std::vector<std::string> labels;
  std::vector<double> values;
  for (const auto& point : measures.overall_delay_distribution) {
    labels.push_back(Table::fixed(point.delay_ms, 0) + " ms");
    values.push_back(point.probability);
  }
  whart::report::print_histogram(std::cout, labels, values);

  if (simulate_intervals > 0) {
    whart::sim::SimulatorConfig sim_config;
    sim_config.superframe = spec.superframe;
    sim_config.reporting_interval = spec.reporting_interval;
    sim_config.intervals = simulate_intervals;
    if (options.shards > 0)
      sim_config.shards = static_cast<std::uint32_t>(options.shards);
    if (channel.has_value()) {
      sim_config.regime = whart::sim::LinkRegime::kChannel;
      sim_config.channel = channel;
    }
    whart::sim::NetworkSimulator simulator(spec.network, spec.paths,
                                           schedule, sim_config);
    const whart::sim::SimulationReport report = simulator.run();

    std::cout << "\nMonte-Carlo cross-check (" << simulate_intervals
              << " intervals):\n";
    Table sim_table({"path", "R (model)", "R (simulated)", "95% CI"});
    for (std::size_t p = 0; p < spec.paths.size(); ++p) {
      const auto ci = report.per_path[p].reachability_interval();
      sim_table.add_row({spec.paths[p].to_string(spec.network),
                         Table::percent(measures.per_path[p].reachability, 3),
                         Table::percent(report.per_path[p].reachability(), 3),
                         "[" + Table::percent(ci.low, 3) + ", " +
                             Table::percent(ci.high, 3) + "]"});
    }
    sim_table.print(std::cout);
  }

  if (options.energy) print_energy(spec, schedule);
  if (options.stability_target > 0.0)
    print_stability(spec, measures, options.stability_target);
  if (!options.csv_path.empty())
    write_csv(spec, measures, options.csv_path);
  if (!options.sweep_path.empty()) {
    const std::size_t worst = measures.bottleneck_by_reachability;
    const whart::hart::PathModelConfig config =
        whart::hart::PathModelConfig::from_schedule(
            schedule, worst, spec.superframe, spec.reporting_interval);
    const whart::hart::SweepSeries series = whart::hart::sweep_availability(
        config, whart::hart::linspace(0.65, 0.99, 18), 0,
        whart::hart::TransientKernel::kPerSlot, /*reuse_skeleton=*/true,
        /*batch_lanes=*/1, channel.has_value() ? &*channel : nullptr);
    std::ofstream file(options.sweep_path);
    if (!file)
      throw std::runtime_error("cannot write '" + options.sweep_path + "'");
    whart::hart::write_series_csv(file, series);
    std::cout << "\nwrote availability sweep of path "
              << spec.paths[worst].to_string(spec.network) << " to "
              << options.sweep_path << "\n";
  }
  if (options.what_if.has_value()) print_what_if(spec, schedule, options);
}

/// Write the --metrics / --trace dumps after the analysis has run.
void write_observability(const Options& options) {
  namespace obs = whart::common::obs;
  const std::vector<obs::SpanAggregate> spans =
      options.trace_path.empty()
          ? std::vector<obs::SpanAggregate>{}
          : obs::TraceCollector::instance().aggregate();

  if (!options.metrics_path.empty()) {
    std::ofstream file(options.metrics_path);
    if (!file)
      throw std::runtime_error("cannot write '" + options.metrics_path + "'");
    whart::report::write_metrics_json(file, obs::Registry::instance().snapshot(),
                                      spans);
    std::cout << "\nwrote metrics snapshot to " << options.metrics_path
              << "\n";
  }

  if (!options.trace_path.empty()) {
    std::ofstream file(options.trace_path);
    if (!file)
      throw std::runtime_error("cannot write '" + options.trace_path + "'");
    const obs::TraceCollector& collector = obs::TraceCollector::instance();
    whart::report::write_chrome_trace_json(file, collector.events(),
                                           collector.flows());
    std::cout << "\nSpan aggregates:\n";
    whart::report::print_span_table(std::cout, spans);
    std::cout << "wrote Chrome trace to " << options.trace_path << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();

  std::string source = argv[1];
  Options options;
  const auto bad_value = [](const std::string& flag, const char* value) {
    return usage("invalid value '" + std::string(value) + "' for " + flag);
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--simulate" && i + 1 < argc) {
      if (!parse_number(argv[++i], options.simulate_intervals))
        return bad_value(arg, argv[i]);
    } else if (arg == "--interval" && i + 1 < argc) {
      if (!parse_number(argv[++i], options.interval_override) ||
          options.interval_override == 0)
        return bad_value(arg, argv[i]);
    } else if (arg == "--energy") {
      options.energy = true;
    } else if (arg == "--stability" && i + 1 < argc) {
      if (!parse_number(argv[++i], options.stability_target) ||
          !(options.stability_target >= 0.0 &&
            options.stability_target <= 1.0))
        return bad_value(arg, argv[i]);
    } else if (arg == "--csv" && i + 1 < argc) {
      options.csv_path = argv[++i];
    } else if (arg == "--sweep" && i + 1 < argc) {
      options.sweep_path = argv[++i];
    } else if (arg == "--shards" && i + 1 < argc) {
      if (!parse_number(argv[++i], options.shards))
        return bad_value(arg, argv[i]);
    } else if (arg == "--channel" && i + 1 < argc) {
      options.channel_spec = argv[++i];
    } else if (arg == "--what-if" && i + 1 < argc) {
      options.what_if = parse_what_if(argv[++i]);
      if (!options.what_if.has_value()) return bad_value(arg, argv[i]);
    } else if (arg == "--metrics") {
      options.metrics_path = "whart_metrics.json";
    } else if (arg.rfind("--metrics=", 0) == 0) {
      options.metrics_path = arg.substr(10);
    } else if (arg == "--trace") {
      options.trace_path = "whart_trace.json";
    } else if (arg.rfind("--trace=", 0) == 0) {
      options.trace_path = arg.substr(8);
    } else if (arg.rfind("--obs-dir=", 0) == 0) {
      options.obs_dir = arg.substr(10);
    } else {
      return usage();
    }
  }
  if (!options.trace_path.empty()) {
    whart::common::obs::set_trace_enabled(true);
    whart::common::obs::TraceCollector::instance().clear();
  }

  try {
    // The bundle session turns every surface on before the analysis and
    // writes the five artifacts when it goes out of scope (or earlier,
    // at the explicit finish() below).
    std::unique_ptr<whart::report::ObsDirSession> obs_session;
    if (!options.obs_dir.empty())
      obs_session =
          std::make_unique<whart::report::ObsDirSession>(options.obs_dir);

    whart::cli::ParsedSpec spec;
    if (source == "--typical") {
      whart::net::TypicalNetwork typical = whart::net::make_typical_network();
      spec.network = std::move(typical.network);
      spec.paths = std::move(typical.paths);
      spec.superframe = typical.superframe;
      spec.reporting_interval = whart::net::kTypicalReportingInterval;
    } else if (source == "-") {
      spec = whart::cli::parse_spec(std::cin);
    } else {
      std::ifstream file(source);
      if (!file) {
        std::cerr << "whart_cli: cannot open '" << source << "'\n";
        return 1;
      }
      spec = whart::cli::parse_spec(file);
    }
    if (options.interval_override > 0) {
      spec.reporting_interval = options.interval_override;
      whart::cli::check_horizon(spec);
    }
    print_analysis(spec, options);
    if (obs_session) obs_session->finish();
    write_observability(options);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "whart_cli: " << error.what() << "\n";
    return 1;
  }
}
