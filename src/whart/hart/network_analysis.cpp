#include "whart/hart/network_analysis.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/common/parallel.hpp"
#include "whart/phy/frame.hpp"
#include "whart/report/csv.hpp"

namespace whart::hart {

NetworkMeasures analyze_network(const net::Network& network,
                                const std::vector<net::Path>& paths,
                                const net::Schedule& schedule,
                                net::SuperframeConfig superframe,
                                std::uint32_t reporting_interval,
                                const AnalysisOptions& options) {
  WHART_REQUEST_SPAN("analyze_network");
  expects(!paths.empty(), "at least one path");
  WHART_COUNT("hart.network.analyses");
  WHART_GAUGE_SET("hart.network.paths", static_cast<double>(paths.size()));
  common::WorkspacePool<SolveWorkspace> workspaces;

  std::vector<PathMeasures> per_path(paths.size());
  {
    const WalkLoopTimer timer(paths.size());
    common::parallel_for(
        paths.size(),
        [&](std::size_t p) {
          const PathModel model(PathModelConfig::from_schedule(
              schedule, p, superframe, reporting_interval));
          std::vector<double> availability;
          availability.reserve(paths[p].hop_count());
          for (std::size_t h = 0; h < paths[p].hop_count(); ++h)
            availability.push_back(network.link(paths[p].hop_link(network, h))
                                       .model.steady_state_availability());
          auto workspace = workspaces.acquire();
          PathTransientResult& transient = workspace->scratch_result;
          if (options.channel.has_value()) {
            // Each hop runs the overlay rescaled to its own availability.
            std::vector<link::ChannelModel> channels;
            channels.reserve(availability.size());
            for (double a : availability)
              channels.push_back(options.channel->with_marginal_success(a));
            model.analyze_into(ChannelLinks(std::move(channels)),
                               PathAnalysisOptions{}, *workspace, transient);
          } else {
            model.analyze_into(SteadyStateLinks(std::move(availability)),
                               PathAnalysisOptions{}, *workspace, transient);
          }
          per_path[p] = measures_from_transient(model.config(), transient);
        },
        options.threads);
  }
  return aggregate_measures(std::move(per_path));
}

NetworkMeasures aggregate_measures(std::vector<PathMeasures> per_path) {
  expects(!per_path.empty(), "at least one path");
  NetworkMeasures result;
  result.per_path = std::move(per_path);

  const double path_count = static_cast<double>(result.per_path.size());
  // Gamma merges mass per 10 ms slot.  Delay i of a path sits in slot
  // a0 + i (Fup + Fdown), and 1 <= a0 <= Fup <= Fup + Fdown, so the pair
  // (cycle i, a0) names the slot and cycle-then-a0 order is slot order.
  // Bin by (i, rank of a0 among the paths' distinct gateway slots): no
  // rounding, and O(paths x Is) bins whatever the frame length.  Mass is
  // added in path order exactly as an ordered map keyed by slot would,
  // and the touched bins are emitted in slot order.
  const std::uint32_t cycle_slots = result.per_path.front().cycle_slots;
  std::vector<std::uint32_t> gateway_slots;
  gateway_slots.reserve(result.per_path.size());
  std::size_t cycles = 0;
  for (const PathMeasures& m : result.per_path) {
    expects(m.cycle_slots == cycle_slots, "every path shares one superframe");
    expects(m.gateway_slot >= 1 && m.gateway_slot <= cycle_slots,
            "gateway slot within the cycle");
    gateway_slots.push_back(m.gateway_slot);
    cycles = std::max(cycles, m.cycle_probabilities.size());
  }
  std::sort(gateway_slots.begin(), gateway_slots.end());
  gateway_slots.erase(std::unique(gateway_slots.begin(), gateway_slots.end()),
                      gateway_slots.end());
  const std::size_t ranks = gateway_slots.size();
  const std::size_t bins = cycles * ranks;
  std::vector<double> delay_mass(bins, 0.0);
  std::vector<char> touched(bins, 0);
  std::size_t touched_bins = 0;
  for (std::size_t p = 0; p < result.per_path.size(); ++p) {
    const PathMeasures& m = result.per_path[p];
    result.mean_delay_ms += m.expected_delay_ms / path_count;
    result.network_utilization += m.utilization;
    result.network_utilization_delivered += m.utilization_delivered;
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(gateway_slots.begin(), gateway_slots.end(),
                         m.gateway_slot) -
        gateway_slots.begin());
    for (std::size_t i = 0; i < m.cycle_probabilities.size(); ++i) {
      const std::size_t bin = i * ranks + rank;
      delay_mass[bin] += m.delay_probability(i) / path_count;
      touched_bins += touched[bin] == 0;
      touched[bin] = 1;
    }
    if (m.expected_delay_ms >
        result.per_path[result.bottleneck_by_delay].expected_delay_ms)
      result.bottleneck_by_delay = p;
    if (m.reachability <
        result.per_path[result.bottleneck_by_reachability].reachability)
      result.bottleneck_by_reachability = p;
    if (m.diagnostics.has_value()) {
      const SolverDiagnostics& d = *m.diagnostics;
      ++result.diagnostics.dtmc_solves;
      result.diagnostics.states_solved += d.dtmc_states;
      result.diagnostics.max_mass_residual =
          std::max(result.diagnostics.max_mass_residual, d.mass_residual);
    }
  }
  result.overall_delay_distribution.reserve(touched_bins);
  for (std::size_t i = 0, bin = 0; i < cycles; ++i) {
    const std::uint64_t cycle_start = std::uint64_t{i} * cycle_slots;
    for (std::size_t rank = 0; rank < ranks; ++rank, ++bin)
      if (touched[bin] != 0)
        result.overall_delay_distribution.push_back(
            {static_cast<double>(gateway_slots[rank] + cycle_start) *
                 phy::kSlotMilliseconds,
             delay_mass[bin]});
  }
  return result;
}

void write_paths_csv(std::ostream& out, const net::Network& network,
                     const std::vector<net::Path>& paths,
                     const NetworkMeasures& measures) {
  expects(measures.per_path.size() == paths.size(), "one measure per path");
  report::CsvWriter csv(out);
  csv.write_row({"path", "hops", "reachability", "expected_delay_ms",
                 "utilization", "utilization_delivered",
                 "expected_intervals_to_first_loss"});
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const PathMeasures& m = measures.per_path[p];
    csv.write_row({paths[p].to_string(network),
                   std::to_string(paths[p].hop_count()),
                   std::to_string(m.reachability),
                   std::to_string(m.expected_delay_ms),
                   std::to_string(m.utilization),
                   std::to_string(m.utilization_delivered),
                   std::to_string(m.expected_intervals_to_first_loss)});
  }
}

}  // namespace whart::hart
