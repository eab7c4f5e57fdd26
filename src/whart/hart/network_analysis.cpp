#include "whart/hart/network_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/common/parallel.hpp"
#include "whart/phy/frame.hpp"

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
  PathAnalysisOptions path_options;
  path_options.kernel = options.kernel.value_or(TransientKernel::kPerSlot);
  common::WorkspacePool<SolveWorkspace> workspaces;

  std::vector<PathMeasures> per_path(paths.size());
  common::parallel_for(
      paths.size(),
      [&](std::size_t p) {
        const PathModel model(PathModelConfig::from_schedule(
            schedule, p, superframe, reporting_interval));
        std::vector<double> availability;
        availability.reserve(model.config().hop_count());
        for (const link::LinkModel& link : paths[p].hop_models(network))
          availability.push_back(link.steady_state_availability());
        auto workspace = workspaces.acquire();
        PathTransientResult& transient = workspace->scratch_result;
        if (options.channel.has_value()) {
          // Each hop runs the overlay rescaled to its own availability.
          std::vector<link::ChannelModel> channels;
          channels.reserve(availability.size());
          for (double a : availability)
            channels.push_back(options.channel->with_marginal_success(a));
          model.analyze_into(ChannelLinks(std::move(channels)), path_options,
                             *workspace, transient);
        } else {
          model.analyze_into(SteadyStateLinks(std::move(availability)),
                             path_options, *workspace, transient);
        }
        per_path[p] = measures_from_transient(model.config(), transient);
      },
      options.threads);
  return aggregate_measures(std::move(per_path));
}

NetworkMeasures aggregate_measures(std::vector<PathMeasures> per_path) {
  expects(!per_path.empty(), "at least one path");
  NetworkMeasures result;
  result.per_path = std::move(per_path);

  const double path_count = static_cast<double>(result.per_path.size());
  // Mass is merged per 10 ms slot index, not per raw double delay: equal
  // delays reached through different arithmetic (e.g. from paths solved
  // via the canonical cache vs directly) must land in one bin.  Delays
  // are bounded by the reporting interval, so the bins form a short
  // dense range: accumulate into a flat array over [lowest, highest],
  // adding in path order exactly as an ordered map would, and emit the
  // touched bins ascending.
  const auto bin_of = [](double delay_ms) {
    return static_cast<std::int64_t>(
        std::llround(delay_ms / phy::kSlotMilliseconds));
  };
  std::int64_t lowest = std::numeric_limits<std::int64_t>::max();
  std::int64_t highest = std::numeric_limits<std::int64_t>::min();
  for (const PathMeasures& m : result.per_path)
    for (double delay_ms : m.delays_ms) {
      lowest = std::min(lowest, bin_of(delay_ms));
      highest = std::max(highest, bin_of(delay_ms));
    }
  const std::size_t bins =
      lowest > highest ? 0 : static_cast<std::size_t>(highest - lowest) + 1;
  std::vector<double> delay_mass(bins, 0.0);
  std::vector<char> touched(bins, 0);
  std::size_t touched_bins = 0;
  for (std::size_t p = 0; p < result.per_path.size(); ++p) {
    const PathMeasures& m = result.per_path[p];
    result.mean_delay_ms += m.expected_delay_ms / path_count;
    result.network_utilization += m.utilization;
    result.network_utilization_delivered += m.utilization_delivered;
    for (std::size_t i = 0; i < m.delays_ms.size(); ++i) {
      const auto bin =
          static_cast<std::size_t>(bin_of(m.delays_ms[i]) - lowest);
      delay_mass[bin] += m.delay_distribution[i] / path_count;
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
      result.diagnostics.solve_ns_total += d.solve_ns;
      result.diagnostics.max_mass_residual =
          std::max(result.diagnostics.max_mass_residual, d.mass_residual);
    }
  }
  result.overall_delay_distribution.reserve(touched_bins);
  for (std::size_t bin = 0; bin < bins; ++bin)
    if (touched[bin] != 0)
      result.overall_delay_distribution.push_back(
          {static_cast<double>(lowest + static_cast<std::int64_t>(bin)) *
               phy::kSlotMilliseconds,
           delay_mass[bin]});
  return result;
}

}  // namespace whart::hart
