#include "whart/hart/network_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
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
  PathAnalysisCache local_cache;
  PathAnalysisCache* cache =
      options.cache != nullptr ? options.cache
                               : (options.use_cache ? &local_cache : nullptr);

  // Every path of a call is of one kind, i.i.d. or channel-enlarged.
  const TransientKernel kernel =
      options.kernel.value_or(default_kernel(options.channel.has_value()));

  std::vector<PathModelConfig> configs(paths.size());
  for (std::size_t p = 0; p < paths.size(); ++p)
    configs[p] = PathModelConfig::from_schedule(schedule, p, superframe,
                                                reporting_interval);

  // Cacheless skeleton sharing: group paths by schedule shape in a
  // serial pre-pass so each shape runs its symbolic phase exactly once;
  // the map is read-only during the parallel fan-out.  (With a cache the
  // cache's own skeleton store plays this role.)
  std::vector<std::string> shape_keys(paths.size());
  std::unordered_map<std::string, std::shared_ptr<const PathModelSkeleton>>
      skeletons;
  if (cache == nullptr && options.reuse_skeleton &&
      !options.channel.has_value()) {
    for (std::size_t p = 0; p < paths.size(); ++p) {
      shape_keys[p] =
          PathAnalysisCache::skeleton_fingerprint(configs[p], kernel);
      auto& slot = skeletons[shape_keys[p]];
      if (slot == nullptr)
        slot = std::make_shared<const PathModelSkeleton>(configs[p]);
    }
  }
  common::WorkspacePool<SolveWorkspace> workspaces;

  std::vector<PathMeasures> per_path(paths.size());
  common::parallel_for(
      paths.size(),
      [&](std::size_t p) {
        const PathModelConfig& config = configs[p];
        std::vector<double> availability;
        availability.reserve(config.hop_count());
        for (const link::LinkModel& model : paths[p].hop_models(network))
          availability.push_back(model.steady_state_availability());
        if (options.channel.has_value()) {
          // Channel-enlarged solve: each hop runs the overlay rescaled to
          // its own availability, and neither the cache nor the skeleton
          // store applies (both key the i.i.d. shape).
          std::vector<link::ChannelModel> channels;
          channels.reserve(availability.size());
          for (double a : availability)
            channels.push_back(options.channel->with_marginal_success(a));
          const PathModel model(config);
          const ChannelLinks links(std::move(channels));
          PathAnalysisOptions path_options;
          path_options.kernel = kernel;
          per_path[p] = compute_path_measures(model, links, path_options);
        } else if (cache != nullptr) {
          per_path[p] = cache->measures(config, availability, kernel,
                                        options.reuse_skeleton);
        } else if (options.reuse_skeleton) {
          const PathModelSkeleton& skeleton = *skeletons.at(shape_keys[p]);
          const SteadyStateLinks links(std::move(availability));
          PathAnalysisOptions path_options;
          path_options.kernel = kernel;
          auto workspace = workspaces.acquire();
          skeleton.analyze_into(links, path_options, *workspace,
                                workspace->scratch_result);
          // The transient depends only on the shape the skeleton keys;
          // measures re-derive from this path's own config.
          per_path[p] =
              measures_from_transient(config, workspace->scratch_result);
        } else {
          const PathModel model(config);
          const SteadyStateLinks links(std::move(availability));
          PathAnalysisOptions path_options;
          path_options.kernel = kernel;
          per_path[p] = compute_path_measures(model, links, path_options);
        }
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
      if (d.from_cache) {
        ++result.diagnostics.cache_hits;
      } else {
        ++result.diagnostics.dtmc_solves;
        result.diagnostics.states_solved += d.dtmc_states;
        result.diagnostics.solve_ns_total += d.solve_ns;
      }
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
