// Evaluate the paper's typical industrial network (Fig. 12): ten field
// devices with the HART-Foundation hop mix, schedule eta_a, and a
// Monte-Carlo cross-check of the analytic measures.
//
// Optional flags: --metrics=<file> dumps the metrics-registry snapshot
// as JSON; --trace=<file> records spans and dumps Chrome trace_event
// JSON; --obs-dir=<dir> writes the full observability bundle
// (metrics.json, trace.json, events.jsonl).  Without flags the
// behaviour is unchanged.  An output path that cannot be written exits
// 1 with a message naming it.
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "whart/common/obs.hpp"
#include "whart/hart/network_analysis.hpp"
#include "whart/net/typical_network.hpp"
#include "whart/report/metrics_export.hpp"
#include "whart/report/obs_dir.hpp"
#include "whart/report/table.hpp"
#include "whart/sim/simulator.hpp"

int main(int argc, char** argv) {
  using namespace whart;
  using report::Table;

  std::string metrics_path;
  std::string trace_path;
  std::string obs_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics=", 0) == 0)
      metrics_path = arg.substr(10);
    else if (arg.rfind("--trace=", 0) == 0)
      trace_path = arg.substr(8);
    else if (arg.rfind("--obs-dir=", 0) == 0)
      obs_dir = arg.substr(10);
    else {
      std::cerr << "usage: typical_network [--metrics=<file>] "
                   "[--trace=<file>] [--obs-dir=<dir>]\n";
      return 2;
    }
  }
  if (!trace_path.empty()) {
    common::obs::set_trace_enabled(true);
    common::obs::TraceCollector::instance().clear();
  }
  std::unique_ptr<report::ObsDirSession> obs_session;
  try {
    if (!obs_dir.empty())
      obs_session = std::make_unique<report::ObsDirSession>(obs_dir);
  } catch (const std::runtime_error& error) {
    std::cerr << "typical_network: " << error.what() << "\n";
    return 1;
  }

  const net::TypicalNetwork plant =
      net::make_typical_network(link::LinkModel::from_ber(2e-4));

  std::cout << "topology (Fig. 12):\n";
  for (const net::Path& path : plant.paths)
    std::cout << "  " << path.to_string(plant.network) << "\n";
  std::cout << "\nschedule eta_a = " << plant.eta_a.to_string(plant.network)
            << "\n\n";

  const hart::NetworkMeasures measures =
      hart::analyze_network(plant.network, plant.paths, plant.eta_a,
                            plant.superframe, 4);

  Table table({"path", "R", "E[tau] ms", "U", "E[N] to 1st loss"});
  for (std::size_t p = 0; p < plant.paths.size(); ++p) {
    const auto& m = measures.per_path[p];
    table.add_row({plant.paths[p].to_string(plant.network),
                   Table::percent(m.reachability, 2),
                   Table::fixed(m.expected_delay_ms, 1),
                   Table::fixed(m.utilization, 4),
                   Table::fixed(m.expected_intervals_to_first_loss, 0)});
  }
  table.print(std::cout);

  std::cout << "\nnetwork mean delay E[Gamma] = "
            << Table::fixed(measures.mean_delay_ms, 1)
            << " ms, utilization U = "
            << Table::fixed(measures.network_utilization, 3)
            << "\nbottleneck by delay: path "
            << measures.bottleneck_by_delay + 1 << " ("
            << plant.paths[measures.bottleneck_by_delay].to_string(
                   plant.network)
            << ")\n";

  // Cross-check against the slot-level simulator.
  sim::SimulatorConfig config;
  config.superframe = plant.superframe;
  config.reporting_interval = 4;
  config.intervals = 20000;
  sim::NetworkSimulator simulator(plant.network, plant.paths, plant.eta_a,
                                  config);
  const sim::SimulationReport report = simulator.run();
  std::cout << "\nMonte-Carlo cross-check (20000 intervals):\n";
  for (std::size_t p = 0; p < plant.paths.size(); ++p) {
    const auto ci = report.per_path[p].reachability_interval();
    std::cout << "  path " << p + 1 << ": model "
              << Table::percent(measures.per_path[p].reachability, 2)
              << ", simulated "
              << Table::percent(report.per_path[p].reachability(), 2)
              << (ci.contains(measures.per_path[p].reachability)
                      ? "  (within 95% CI)"
                      : "  (OUTSIDE 95% CI)")
              << "\n";
  }

  if (!metrics_path.empty()) {
    std::ofstream file(metrics_path);
    if (!file) {
      std::cerr << "cannot write '" << metrics_path << "'\n";
      return 1;
    }
    report::write_metrics_json(
        file, common::obs::Registry::instance().snapshot(),
        trace_path.empty()
            ? std::vector<common::obs::SpanAggregate>{}
            : common::obs::TraceCollector::instance().aggregate());
    std::cout << "\nwrote metrics snapshot to " << metrics_path << "\n";
  }
  if (!trace_path.empty()) {
    std::ofstream file(trace_path);
    if (!file) {
      std::cerr << "cannot write '" << trace_path << "'\n";
      return 1;
    }
    const common::obs::TraceCollector& collector =
        common::obs::TraceCollector::instance();
    report::write_chrome_trace_json(file, collector.events(),
                                    collector.flows());
    std::cout << "wrote Chrome trace to " << trace_path << "\n";
  }
  try {
    if (obs_session) obs_session->finish();
  } catch (const std::runtime_error& error) {
    std::cerr << "typical_network: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
