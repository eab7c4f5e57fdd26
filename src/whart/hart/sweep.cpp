#include "whart/hart/sweep.hpp"

#include <algorithm>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <unordered_map>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/common/parallel.hpp"
#include "whart/hart/path_cache.hpp"
#include "whart/report/csv.hpp"

namespace whart::hart {

namespace {

PathMeasures measure_with_links(const PathModelConfig& config,
                                const link::LinkModel& model,
                                TransientKernel kernel) {
  const PathModel path_model(config);
  const SteadyStateLinks links(config.hop_count(), model);
  PathAnalysisOptions options;
  options.kernel = kernel;
  return compute_path_measures(path_model, links, options);
}

/// Channel counterpart of measure_with_links: the overlay rescaled so
/// its stationary marginal success equals the point's availability,
/// solved through the channel-enlarged DTMC.  Always a fresh solve —
/// the skeleton/batch refill patterns key the i.i.d. shape.
PathMeasures measure_with_channel(const PathModelConfig& config,
                                  const link::LinkModel& model,
                                  const link::ChannelModel& channel,
                                  TransientKernel kernel) {
  const PathModel path_model(config);
  const ChannelLinks links(
      config.hop_count(),
      channel.with_marginal_success(model.steady_state_availability()));
  PathAnalysisOptions options;
  options.kernel = kernel;
  return compute_path_measures(path_model, links, options);
}

/// Scratch of one lane batch: the solve workspace plus the batch's
/// providers, kept across batches so a batch of one point allocates no
/// more than the point's own provider.
struct BatchWorkspace {
  SolveWorkspace solve;
  std::vector<SteadyStateLinks> links;
  std::vector<const LinkProbabilityProvider*> providers;
};

/// Shapes the process-wide skeleton store keeps warm; the 65th distinct
/// shape evicts the least recently used one.  Far above any single
/// sweep's shape count (hop-count sweeps span a few dozen shapes), so
/// eviction only triggers across long multi-shape sessions.
constexpr std::size_t kSkeletonStoreCapacity = 64;

/// LRU-bounded fingerprint-keyed skeleton store.  Calls are serialized
/// by the caller's mutex.
class SkeletonStore {
 public:
  /// The stored skeleton for `key`, building (and storing) one from
  /// `config` on a miss; either way the entry becomes most recent.
  std::shared_ptr<const PathModelSkeleton> acquire(
      const std::string& key, const PathModelConfig& config) {
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      recency_.splice(recency_.begin(), recency_, it->second.position);
      return it->second.skeleton;
    }
    auto skeleton = std::make_shared<const PathModelSkeleton>(config);
    recency_.push_front(key);
    entries_.emplace(key, Entry{skeleton, recency_.begin()});
    if (entries_.size() > kSkeletonStoreCapacity) {
      entries_.erase(recency_.back());
      recency_.pop_back();
      WHART_COUNT("hart.skeleton.store_evictions");
    }
    return skeleton;
  }

 private:
  struct Entry {
    std::shared_ptr<const PathModelSkeleton> skeleton;
    std::list<std::string>::iterator position;
  };
  std::list<std::string> recency_;  ///< most recent first
  std::unordered_map<std::string, Entry> entries_;
};

/// One grid point of any sweep: the swept parameter, the model shape it
/// evaluates, and the link model supplying its availabilities.
struct PointSpec {
  double parameter = 0.0;
  PathModelConfig config;
  link::LinkModel model;
};

/// Shared sweep runner.  Solves every spec (in parallel across points or
/// batches) and returns SweepPoints in spec order.  With skeleton reuse,
/// points with equal skeleton fingerprints share one symbolic build and
/// are chunked — preserving first-appearance order, contiguity not
/// required — into batches of at most batch_lanes lanes solved through
/// analyze_batch_into.
std::vector<SweepPoint> solve_points(const std::vector<PointSpec>& specs,
                                     unsigned threads, TransientKernel kernel,
                                     bool reuse_skeleton,
                                     std::size_t batch_lanes,
                                     const link::ChannelModel* channel) {
  if (channel != nullptr)
    return common::parallel_map(
        specs,
        [&](const PointSpec& spec) {
          return SweepPoint{spec.parameter,
                            measure_with_channel(spec.config, spec.model,
                                                 *channel, kernel)};
        },
        threads);
  if (!reuse_skeleton)
    return common::parallel_map(
        specs,
        [&](const PointSpec& spec) {
          return SweepPoint{spec.parameter,
                            measure_with_links(spec.config, spec.model,
                                               kernel)};
        },
        threads);

  // One symbolic build per distinct shape, shared across its points.
  // Most sweeps vary only the link model, so consecutive points usually
  // share a shape: compare the fingerprint-relevant config fields against
  // the previous point before paying for a fingerprint build and a map
  // probe — the common all-same-shape sweep then fingerprints once.
  const auto same_shape = [](const PathModelConfig& a,
                             const PathModelConfig& b) {
    return a.superframe.uplink_slots == b.superframe.uplink_slots &&
           a.reporting_interval == b.reporting_interval &&
           a.effective_ttl() == b.effective_ttl() &&
           a.hop_slots == b.hop_slots && a.retry_slots == b.retry_slots;
  };
  // The store is process-wide, not per call: sweeps are typically
  // invoked many times on one schedule shape (sensitivity perturbs the
  // links only, rank_link_upgrades re-sweeps per candidate link), so a
  // shape's symbolic phase runs once per process.  Skeletons are
  // immutable after construction and handed out as shared const
  // pointers, so eviction never invalidates a holder — it only forces
  // the next sweep of that shape to rebuild.  The store is LRU-bounded
  // (kSkeletonStoreCapacity shapes) so long multi-shape sweeps cannot
  // grow it without limit; evictions are counted as
  // `hart.skeleton.store_evictions`.
  static std::mutex skeleton_mutex;
  static SkeletonStore skeleton_store;

  // Points carry a dense shape id instead of a fingerprint string —
  // per-point work is then an integer copy, not a string allocation and
  // hash probe.
  std::vector<std::size_t> shape_of(specs.size());
  std::vector<std::shared_ptr<const PathModelSkeleton>> shapes;
  std::unordered_map<std::string, std::size_t> shape_ids;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const PointSpec& spec = specs[i];
    if (i > 0 && same_shape(spec.config, specs[i - 1].config)) {
      shape_of[i] = shape_of[i - 1];
      continue;
    }
    std::string key =
        PathAnalysisCache::skeleton_fingerprint(spec.config, kernel);
    const auto [it, inserted] =
        shape_ids.try_emplace(std::move(key), shapes.size());
    if (inserted) {
      const std::lock_guard lock(skeleton_mutex);
      shapes.push_back(skeleton_store.acquire(it->first, spec.config));
    }
    shape_of[i] = it->second;
  }

  // Chunk same-shape point indices into lane batches of at most
  // batch_lanes.  A batch fills until full, then the next same-shape
  // point opens a fresh one, so non-contiguous same-shape points group
  // together while output order stays the caller's.  Batch b holds
  // points order[begin[b], begin[b + 1]), in first-appearance order.
  const std::size_t width = std::max<std::size_t>(batch_lanes, 1);
  constexpr std::size_t kNoBatch = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> batch_of(specs.size());
  std::vector<std::size_t> begin{0};  // batch sizes, then offsets
  std::vector<std::size_t> open(shapes.size(), kNoBatch);  // shape -> batch
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::size_t& slot = open[shape_of[i]];
    if (slot == kNoBatch) {
      slot = begin.size() - 1;
      begin.push_back(0);
    }
    batch_of[i] = slot;
    if (++begin[slot + 1] == width) slot = kNoBatch;
  }
  for (std::size_t b = 1; b < begin.size(); ++b) begin[b] += begin[b - 1];
  std::vector<std::size_t> order(specs.size());
  {
    std::vector<std::size_t> cursor(begin.begin(), begin.end() - 1);
    for (std::size_t i = 0; i < specs.size(); ++i)
      order[cursor[batch_of[i]]++] = i;
  }

  std::vector<SweepPoint> points(specs.size());
  common::WorkspacePool<BatchWorkspace> workspaces;
  common::parallel_for(
      begin.size() - 1,
      [&](std::size_t b) {
        const std::span<const std::size_t> batch(order.data() + begin[b],
                                                 begin[b + 1] - begin[b]);
        const PathModelSkeleton& skeleton = *shapes[shape_of[batch.front()]];
        PathAnalysisOptions options;
        options.kernel = kernel;
        auto workspace = workspaces.acquire();
        workspace->links.clear();
        for (std::size_t i : batch)
          workspace->links.emplace_back(skeleton.config().hop_count(),
                                        specs[i].model);
        workspace->providers.clear();
        for (const SteadyStateLinks& links : workspace->links)
          workspace->providers.push_back(&links);
        std::vector<PathTransientResult>& results =
            workspace->solve.scratch_results;
        results.resize(batch.size());
        skeleton.analyze_batch_into(workspace->providers, options,
                                    workspace->solve, results);
        // Measures come from each point's own config: batch lanes share a
        // shape fingerprint (frame, Is, TTL, firing pattern), not the
        // Fdown/gateway-offset fields the delay measures read.
        for (std::size_t j = 0; j < batch.size(); ++j)
          points[batch[j]] = SweepPoint{
              specs[batch[j]].parameter,
              measures_from_transient(specs[batch[j]].config, results[j])};
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
                               bool reuse_skeleton, std::size_t batch_lanes,
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
  series.points = solve_points(specs, threads, kernel, reuse_skeleton,
                               batch_lanes, channel);
  return series;
}

SweepSeries sweep_ber(const PathModelConfig& config,
                      const std::vector<double>& bit_error_rates,
                      unsigned threads, TransientKernel kernel,
                      bool reuse_skeleton, std::size_t batch_lanes,
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
  series.points = solve_points(specs, threads, kernel, reuse_skeleton,
                               batch_lanes, channel);
  return series;
}

SweepSeries sweep_hop_count(std::uint32_t max_hops, double availability,
                            net::SuperframeConfig superframe,
                            std::uint32_t reporting_interval,
                            unsigned threads, TransientKernel kernel,
                            bool reuse_skeleton, std::size_t batch_lanes,
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
  series.points = solve_points(specs, threads, kernel, reuse_skeleton,
                               batch_lanes, channel);
  return series;
}

SweepSeries sweep_reporting_interval_series(
    const PathModelConfig& base_config, double availability,
    const std::vector<std::uint32_t>& intervals, unsigned threads,
    TransientKernel kernel, bool reuse_skeleton, std::size_t batch_lanes,
    const link::ChannelModel* channel) {
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
  series.points = solve_points(specs, threads, kernel, reuse_skeleton,
                               batch_lanes, channel);
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
