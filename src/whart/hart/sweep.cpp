#include "whart/hart/sweep.hpp"

#include <ostream>
#include <string>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/common/parallel.hpp"
#include "whart/report/csv.hpp"

namespace whart::hart {

namespace {

/// One grid point of any sweep: the swept parameter, the model shape it
/// evaluates, and the link model supplying its availabilities.
struct PointSpec {
  double parameter = 0.0;
  PathModelConfig config;
  link::LinkModel model;
};

/// Shared sweep runner: walks every spec (in parallel across points,
/// each worker on a pooled SolveWorkspace) and returns SweepPoints in
/// spec order.  Consecutive points of one shape share their PathModel.
/// `channel`, when non-null, rescales the overlay to each point's
/// availability and walks the channel-enlarged chain.
std::vector<SweepPoint> solve_points(const std::vector<PointSpec>& specs,
                                     unsigned threads, TransientKernel kernel,
                                     const link::ChannelModel* channel) {
  std::vector<PathModel> models;
  std::vector<std::size_t> model_of(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i == 0 || !(specs[i].config == specs[i - 1].config))
      models.emplace_back(specs[i].config);
    model_of[i] = models.size() - 1;
  }
  PathAnalysisOptions options;
  options.kernel = kernel;
  std::vector<SweepPoint> points(specs.size());
  common::WorkspacePool<SolveWorkspace> workspaces;
  common::parallel_for(
      specs.size(),
      [&](std::size_t i) {
        const PointSpec& spec = specs[i];
        const PathModel& model = models[model_of[i]];
        const std::size_t hops = spec.config.hop_count();
        auto workspace = workspaces.acquire();
        PathTransientResult& transient = workspace->scratch_result;
        if (channel != nullptr)
          model.analyze_into(
              ChannelLinks(hops, channel->with_marginal_success(
                                     spec.model.steady_state_availability())),
              options, *workspace, transient);
        else
          model.analyze_into(SteadyStateLinks(hops, spec.model), options,
                             *workspace, transient);
        points[i] = {spec.parameter,
                     measures_from_transient(spec.config, transient)};
      },
      threads);
  return points;
}

}  // namespace

std::vector<double> linspace(double first, double last, std::size_t count) {
  expects(count >= 1, "count >= 1");
  if (count == 1) return {first};
  std::vector<double> values(count);
  const double step = (last - first) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i)
    values[i] = first + step * static_cast<double>(i);
  values.back() = last;  // exact endpoint despite rounding
  return values;
}

SweepSeries sweep_availability(const PathModelConfig& config,
                               const std::vector<double>& availabilities,
                               unsigned threads, TransientKernel kernel,
                               bool /*reuse_skeleton*/,
                               std::size_t /*batch_lanes*/,
                               const link::ChannelModel* channel) {
  expects(!availabilities.empty(), "at least one sample");
  WHART_REQUEST_SPAN("sweep_availability");
  WHART_COUNT_N("hart.sweep.points", availabilities.size());
  SweepSeries series;
  series.parameter_name = "availability";
  std::vector<PointSpec> specs;
  specs.reserve(availabilities.size());
  for (double pi : availabilities)
    specs.push_back({pi, config, link::LinkModel::from_availability(pi)});
  series.points = solve_points(specs, threads, kernel, channel);
  return series;
}

SweepSeries sweep_ber(const PathModelConfig& config,
                      const std::vector<double>& bit_error_rates,
                      unsigned threads, TransientKernel kernel,
                      bool /*reuse_skeleton*/, std::size_t /*batch_lanes*/,
                      const link::ChannelModel* channel) {
  expects(!bit_error_rates.empty(), "at least one sample");
  WHART_REQUEST_SPAN("sweep_ber");
  WHART_COUNT_N("hart.sweep.points", bit_error_rates.size());
  SweepSeries series;
  series.parameter_name = "ber";
  std::vector<PointSpec> specs;
  specs.reserve(bit_error_rates.size());
  for (double ber : bit_error_rates)
    specs.push_back({ber, config, link::LinkModel::from_ber(ber)});
  series.points = solve_points(specs, threads, kernel, channel);
  return series;
}

SweepSeries sweep_hop_count(std::uint32_t max_hops, double availability,
                            net::SuperframeConfig superframe,
                            std::uint32_t reporting_interval,
                            unsigned threads, TransientKernel kernel,
                            bool /*reuse_skeleton*/,
                            std::size_t /*batch_lanes*/,
                            const link::ChannelModel* channel) {
  expects(max_hops >= 1, "max_hops >= 1");
  expects(max_hops <= superframe.uplink_slots, "hops fit in the frame");
  WHART_REQUEST_SPAN("sweep_hop_count");
  WHART_COUNT_N("hart.sweep.points", max_hops);
  SweepSeries series;
  series.parameter_name = "hops";
  const link::LinkModel model =
      link::LinkModel::from_availability(availability);
  std::vector<PointSpec> specs;
  specs.reserve(max_hops);
  for (std::uint32_t hops = 1; hops <= max_hops; ++hops) {
    PathModelConfig config;
    for (std::uint32_t h = 0; h < hops; ++h)
      config.hop_slots.push_back(h + 1);
    config.superframe = superframe;
    config.reporting_interval = reporting_interval;
    specs.push_back(
        {static_cast<double>(hops), std::move(config), model});
  }
  series.points = solve_points(specs, threads, kernel, channel);
  return series;
}

SweepSeries sweep_reporting_interval_series(
    const PathModelConfig& base_config, double availability,
    const std::vector<std::uint32_t>& intervals, unsigned threads,
    TransientKernel kernel, bool /*reuse_skeleton*/,
    std::size_t /*batch_lanes*/, const link::ChannelModel* channel) {
  expects(!intervals.empty(), "at least one interval");
  WHART_REQUEST_SPAN("sweep_reporting_interval");
  WHART_COUNT_N("hart.sweep.points", intervals.size());
  SweepSeries series;
  series.parameter_name = "reporting_interval";
  const link::LinkModel model =
      link::LinkModel::from_availability(availability);
  std::vector<PointSpec> specs;
  specs.reserve(intervals.size());
  for (std::uint32_t is : intervals) {
    PathModelConfig config = base_config;
    config.reporting_interval = is;
    config.ttl.reset();
    specs.push_back({static_cast<double>(is), std::move(config), model});
  }
  series.points = solve_points(specs, threads, kernel, channel);
  return series;
}

void write_series_csv(std::ostream& out, const SweepSeries& series) {
  report::CsvWriter csv(out);
  csv.write_row({series.parameter_name, "reachability",
                 "expected_delay_ms", "delay_jitter_ms", "utilization",
                 "utilization_delivered"});
  for (const SweepPoint& point : series.points) {
    csv.write_row({std::to_string(point.parameter),
                   std::to_string(point.measures.reachability),
                   std::to_string(point.measures.expected_delay_ms),
                   std::to_string(point.measures.delay_jitter_ms),
                   std::to_string(point.measures.utilization),
                   std::to_string(point.measures.utilization_delivered)});
  }
}

}  // namespace whart::hart
