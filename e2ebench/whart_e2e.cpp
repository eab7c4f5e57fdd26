// whart_e2e — in-process load generator of the end-to-end benchmark
// (README.md in this directory).  One client sends requests through the
// library's public request path in a closed loop: the next request
// starts only after the previous answer arrived and was checked.  Inputs
// come from --seed alone; the library sees only the generated inputs,
// and every execution knob (kernel, cache, skeleton reuse, batch lanes)
// keeps its default.  The worker count comes from WHART_THREADS, as for
// a user.
//
// Usage:
//   whart_e2e --workload <name> --seed <n> --seconds <s>
//             [--warmup <s>] [--trace] [--trace-out <file>]
//
// Untraced runs report the end-to-end metrics; --trace runs half the
// window untraced and half traced and reports the per-layer metrics
// (spans recorded here, around each public call, plus deltas of the
// counters and histograms the library exports).  Timings are reported at
// a reference speed (see SpeedProbe) and, under "raw", as measured.  The
// result is one JSON object on stdout; the exit code is nonzero when any
// answer was wrong.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sched.h>

#include "spec_emit.hpp"
#include "whart/cli/spec_parser.hpp"
#include "whart/common/obs.hpp"
#include "whart/common/parallel.hpp"
#include "whart/hart/network_analysis.hpp"
#include "whart/hart/sweep.hpp"
#include "whart/hart/what_if.hpp"
#include "whart/net/plant_generator.hpp"
#include "whart/net/typical_network.hpp"
#include "whart/numeric/rng.hpp"
#include "whart/report/csv.hpp"
#include "whart/report/metrics_export.hpp"

namespace {

namespace obs = whart::common::obs;
namespace hart = whart::hart;
namespace net = whart::net;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Independent, well-mixed 64-bit seed for item `index` of a run.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + index;
  return whart::numeric::splitmix64(state);
}

// ---------------------------------------------------------------------
// Answer checks.  A request's answer is reduced to the measures a user
// reads (per-path R, E[delay], jitter, U, delivered U and the network
// roll-up) and compared against the oracle baseline: one thread, no
// cache, no skeleton reuse, per-slot kernel.
// ---------------------------------------------------------------------

constexpr double kRelativeTolerance = 1e-9;

bool close(double a, double b) {
  return std::abs(a - b) <=
         kRelativeTolerance * std::max(std::abs(a), std::abs(b)) + 1e-15;
}

std::vector<double> digest(const hart::PathMeasures& m) {
  return {m.reachability, m.expected_delay_ms, m.delay_jitter_ms,
          m.utilization, m.utilization_delivered};
}

std::vector<double> digest(const hart::NetworkMeasures& m) {
  std::vector<double> out{m.mean_delay_ms, m.network_utilization,
                          m.network_utilization_delivered};
  for (const hart::PathMeasures& p : m.per_path) {
    const std::vector<double> d = digest(p);
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

std::vector<double> digest(const hart::SweepSeries& series) {
  std::vector<double> out;
  for (const hart::SweepPoint& point : series.points) {
    out.push_back(point.parameter);
    const std::vector<double> d = digest(point.measures);
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

bool same_answer(const std::vector<double>& got,
                 const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!close(got[i], want[i])) return false;
  return true;
}

hart::AnalysisOptions oracle_options() {
  hart::AnalysisOptions options;
  options.threads = 1;
  options.use_cache = false;
  options.reuse_skeleton = false;
  options.kernel = hart::TransientKernel::kPerSlot;
  return options;
}

/// The user-facing answer of a network request: the per-path CSV rows
/// whart_cli --csv writes.
std::string serialize_rows(const whart::cli::ParsedSpec& spec,
                           const hart::NetworkMeasures& measures) {
  std::ostringstream out;
  whart::report::CsvWriter csv(out);
  csv.write_row({"path", "hops", "reachability", "expected_delay_ms",
                 "utilization", "utilization_delivered",
                 "expected_intervals_to_first_loss"});
  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    const hart::PathMeasures& m = measures.per_path[p];
    csv.write_row({spec.paths[p].to_string(spec.network),
                   std::to_string(spec.paths[p].hop_count()),
                   std::to_string(m.reachability),
                   std::to_string(m.expected_delay_ms),
                   std::to_string(m.utilization),
                   std::to_string(m.utilization_delivered),
                   std::to_string(m.expected_intervals_to_first_loss)});
  }
  return out.str();
}

/// The spec -> schedule -> analysis -> CSV request of the paper_* and
/// plant200 workloads, one traced span per layer.
hart::NetworkMeasures network_request(const std::string& spec_text,
                                      const hart::AnalysisOptions& options,
                                      std::size_t& rows_bytes) {
  whart::cli::ParsedSpec spec;
  {
    const obs::ScopedSpan span("cli.parse");
    spec = whart::cli::parse_spec_string(spec_text);
  }
  std::optional<net::Schedule> schedule;
  {
    const obs::ScopedSpan span("net.schedule");
    schedule = net::build_schedule(spec.paths, spec.superframe.uplink_slots,
                                   spec.policy);
  }
  hart::NetworkMeasures measures;
  {
    const obs::ScopedSpan span("hart.analyze");
    measures = hart::analyze_network(spec.network, spec.paths, *schedule,
                                     spec.superframe, spec.reporting_interval,
                                     options);
  }
  {
    const obs::ScopedSpan span("report.serialize");
    rows_bytes = serialize_rows(spec, measures).size();
  }
  return measures;
}

hart::NetworkMeasures oracle_network(const std::string& spec_text,
                                     hart::AnalysisOptions options) {
  const whart::cli::ParsedSpec spec = whart::cli::parse_spec_string(spec_text);
  const net::Schedule schedule = net::build_schedule(
      spec.paths, spec.superframe.uplink_slots, spec.policy);
  return hart::analyze_network(spec.network, spec.paths, schedule,
                               spec.superframe, spec.reporting_interval,
                               options);
}

net::GeneratedPlant make_plant(std::uint64_t seed) {
  net::PlantProfile profile;
  profile.device_count = 200;
  profile.seed = seed;
  return net::generate_plant(profile);
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the seeded inputs and any long-lived engine; timed as setup_s
  /// and repeated, so it must leave the same state every time.
  virtual void setup(std::uint64_t seed) = 0;

  /// One-off, untimed preparation of the answer checks.  Returns false
  /// when the oracle itself misses a paper golden.
  virtual bool prepare_checks() { return true; }

  /// Untimed: generate request `index`'s input.
  virtual void prepare(std::uint64_t /*index*/) {}

  /// The timed request.
  virtual void request(std::uint64_t index) = 0;

  /// Untimed: check (or keep for post_check) request `index`'s answer.
  virtual bool check(std::uint64_t index) = 0;

  /// After the timed window: re-solve the kept answers through the
  /// oracle.  Returns {checked, failed}.
  virtual std::pair<std::uint64_t, std::uint64_t> post_check() {
    return {0, 0};
  }
};

/// paper_s6 / paper_s6_burst: the Section VI network as spec text,
/// cycling {eta_a, eta_b} x {Is = 2, Is = 4}; every answer is checked.
class PaperWorkload final : public Workload {
 public:
  explicit PaperWorkload(bool burst) {
    if (burst)
      options_.channel =
          whart::link::ChannelModel::gilbert_elliott(0.005, 0.0125, 0.0, 1.0);
  }

  void setup(std::uint64_t /*seed*/) override {
    // The paper's network is fixed; the seed only varies the other
    // workloads' inputs.
    const net::TypicalNetwork t = net::make_typical_network();
    specs_.clear();
    for (const auto policy : {net::SchedulingPolicy::kShortestPathsFirst,
                              net::SchedulingPolicy::kLongestPathsFirst})
      for (const std::uint32_t interval : {2u, 4u})
        specs_.push_back(whart::e2e::emit_spec(
            t.network, t.paths, t.superframe, interval, policy));
  }

  bool prepare_checks() override {
    hart::AnalysisOptions options = oracle_options();
    options.channel = options_.channel;
    std::vector<hart::NetworkMeasures> oracle;
    for (const std::string& spec : specs_) {
      oracle.push_back(oracle_network(spec, options));
      expected_.push_back(digest(oracle.back()));
    }
    // specs_[1] is eta_a at Is = 4, the paper's headline configuration.
    const hart::NetworkMeasures& eta_a = oracle[1];
    if (!options_.channel.has_value())
      return std::abs(eta_a.mean_delay_ms - 235.0) <= 1.5;
    // Three-hop delivery ratio under the bursty overlay (0.9906 -> 0.9538).
    return std::abs(eta_a.per_path[8].reachability - 0.9538) < 5e-5 &&
           std::abs(eta_a.per_path[9].reachability - 0.9538) < 5e-5;
  }

  void request(std::uint64_t index) override {
    answer_ = network_request(specs_[index % specs_.size()], options_,
                              rows_bytes_);
  }

  bool check(std::uint64_t index) override {
    return rows_bytes_ > 0 &&
           same_answer(digest(answer_), expected_[index % specs_.size()]);
  }

 private:
  hart::AnalysisOptions options_;
  std::vector<std::string> specs_;
  std::vector<std::vector<double>> expected_;
  hart::NetworkMeasures answer_;
  std::size_t rows_bytes_ = 0;
};

/// Every 32nd request of plant200 / sweep64 is re-solved after the window.
constexpr std::uint64_t kResolveStride = 32;

/// plant200: a fresh seeded 200-device plant per request, generated and
/// emitted outside the timed region, through the same request path as
/// paper_s6.
class Plant200Workload final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    prepare(0);
  }

  void prepare(std::uint64_t index) override {
    const net::GeneratedPlant plant = make_plant(derive_seed(seed_, index));
    spec_ = whart::e2e::emit_spec(plant.network, plant.paths,
                                  plant.superframe, 4,
                                  net::SchedulingPolicy::kShortestPathsFirst);
  }

  void request(std::uint64_t /*index*/) override {
    answer_ = network_request(spec_, hart::AnalysisOptions{}, rows_bytes_);
  }

  bool check(std::uint64_t index) override {
    if (rows_bytes_ == 0 || answer_.per_path.size() != 200) return false;
    if (index % kResolveStride == 0)
      kept_.emplace_back(spec_, digest(answer_));
    return true;
  }

  std::pair<std::uint64_t, std::uint64_t> post_check() override {
    std::uint64_t failed = 0;
    for (const auto& [spec, got] : kept_)
      if (!same_answer(got, digest(oracle_network(spec, oracle_options()))))
        ++failed;
    return {kept_.size(), failed};
  }

 private:
  std::uint64_t seed_ = 0;
  std::string spec_;
  hart::NetworkMeasures answer_;
  std::size_t rows_bytes_ = 0;
  std::vector<std::pair<std::string, std::vector<double>>> kept_;
};

/// sweep64: 64-point availability sweeps (0.65 ... 0.99) of the 3- and
/// 4-hop paths of one seeded 200-device plant at Is = 4, request i
/// sweeping the (i mod n)-th such path.
class Sweep64Workload final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    const net::GeneratedPlant plant = make_plant(derive_seed(seed, 0));
    configs_.clear();
    for (std::size_t p = 0; p < plant.paths.size(); ++p)
      if (plant.paths[p].hop_count() >= 3)
        configs_.push_back(hart::PathModelConfig::from_schedule(
            plant.schedule, p, plant.superframe, 4));
    grid_ = hart::linspace(0.65, 0.99, 64);
  }

  void request(std::uint64_t index) override {
    const obs::ScopedSpan span("hart.sweep");
    answer_ =
        hart::sweep_availability(configs_[index % configs_.size()], grid_);
  }

  bool check(std::uint64_t index) override {
    if (answer_.points.size() != grid_.size()) return false;
    if (index % kResolveStride == 0)
      kept_.emplace_back(index, digest(answer_));
    return true;
  }

  std::pair<std::uint64_t, std::uint64_t> post_check() override {
    std::uint64_t failed = 0;
    for (const auto& [index, got] : kept_) {
      const hart::SweepSeries oracle = hart::sweep_availability(
          configs_[index % configs_.size()], grid_, 1,
          hart::TransientKernel::kPerSlot, false, 1);
      if (!same_answer(got, digest(oracle))) ++failed;
    }
    return {kept_.size(), failed};
  }

 private:
  std::vector<hart::PathModelConfig> configs_;
  std::vector<double> grid_;
  hart::SweepSeries answer_;
  std::vector<std::pair<std::uint64_t, std::vector<double>>> kept_;
};

/// whatif: one warm WhatIfEngine over a seeded 200-device plant; each
/// query moves a uniformly chosen link to an availability drawn from
/// U[0.5, 0.99] and aggregates the network view.
class WhatIfWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    engine_.reset();  // holds references into plant_
    plant_ = std::make_unique<net::GeneratedPlant>(
        make_plant(derive_seed(seed, 0)));
    engine_ = std::make_unique<hart::WhatIfEngine>(
        plant_->network, plant_->paths, plant_->schedule, plant_->superframe,
        4);
  }

  void prepare(std::uint64_t index) override {
    whart::numeric::Xoshiro256 rng(derive_seed(seed_, index + 1));
    const std::vector<net::LinkId>& links = engine_->links();
    link_ = links[rng.below(links.size())];
    availability_ = 0.5 + 0.49 * rng.uniform();
  }

  void request(std::uint64_t /*index*/) override {
    hart::WhatIfResult result;
    {
      const obs::ScopedSpan span("hart.whatif");
      result = engine_->what_if(link_, availability_);
    }
    const obs::ScopedSpan span("hart.aggregate");
    answer_ = hart::aggregate_measures(std::move(result.per_path));
  }

  bool check(std::uint64_t index) override {
    if (answer_.per_path.size() != plant_->paths.size()) return false;
    if (index % kCheckStride == 0)
      kept_.push_back({link_, availability_, digest(answer_)});
    return true;
  }

  /// The oracle is the baseline analyze_network of the unmodified plant
  /// with every path that uses the changed link — found from the
  /// network, not from the engine — re-solved fresh on a modified copy.
  /// That equals analyze_network on the copy, at a fraction of its cost.
  std::pair<std::uint64_t, std::uint64_t> post_check() override {
    const std::vector<net::Path>& paths = plant_->paths;
    const std::vector<hart::PathMeasures> baseline =
        hart::analyze_network(plant_->network, paths, plant_->schedule,
                              plant_->superframe, 4, oracle_options())
            .per_path;
    std::uint64_t failed = 0;
    for (const Kept& kept : kept_) {
      net::Network modified = plant_->network;
      const double prc = modified.link(kept.link).model.recovery_probability();
      modified.set_link_model(
          kept.link,
          whart::link::LinkModel::from_availability(kept.availability, prc));
      std::vector<hart::PathMeasures> per_path = baseline;
      for (std::size_t p = 0; p < paths.size(); ++p) {
        if (!paths[p].uses_link(modified, kept.link)) continue;
        std::vector<double> availability;
        for (const whart::link::LinkModel& m : paths[p].hop_models(modified))
          availability.push_back(m.steady_state_availability());
        per_path[p] = hart::compute_path_measures(
            hart::PathModel(hart::PathModelConfig::from_schedule(
                plant_->schedule, p, plant_->superframe, 4)),
            hart::SteadyStateLinks(std::move(availability)),
            hart::PathAnalysisOptions{});
      }
      if (!same_answer(kept.got,
                       digest(hart::aggregate_measures(std::move(per_path)))))
        ++failed;
    }
    return {kept_.size(), failed};
  }

 private:
  static constexpr std::uint64_t kCheckStride = 256;
  struct Kept {
    net::LinkId link;
    double availability = 0.0;
    std::vector<double> got;
  };

  std::uint64_t seed_ = 0;
  std::unique_ptr<net::GeneratedPlant> plant_;
  std::unique_ptr<hart::WhatIfEngine> engine_;
  net::LinkId link_;
  double availability_ = 0.0;
  hart::NetworkMeasures answer_;
  std::vector<Kept> kept_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "paper_s6") return std::make_unique<PaperWorkload>(false);
  if (name == "paper_s6_burst") return std::make_unique<PaperWorkload>(true);
  if (name == "plant200") return std::make_unique<Plant200Workload>();
  if (name == "sweep64") return std::make_unique<Sweep64Workload>();
  if (name == "whatif") return std::make_unique<WhatIfWorkload>();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------------

/// Nearest-rank quantile.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

/// Peak resident set of this process image (VmHWM).  getrusage's
/// ru_maxrss would not do: Linux carries the pre-exec image's peak into
/// it, so a process spawned from Python would report Python's footprint.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the figure is in kB
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// The host's vCPUs share physical cores with other tenants, and how fast
// a vCPU runs depends on what shares its core: the same run of paper_s6
// reads a p50 of 0.19 ms on one vCPU and 0.33 ms on another, and which
// vCPU is fast changes from minute to minute.  Left alone, a run stays on
// one vCPU, so wall times differ 20-40% between runs of the same code.
// Two things make runs agree.  Every timing is also reported at a fixed
// reference speed: it is scaled by a speed probe taken just before it, a
// fixed arithmetic kernel of this file that shares no code with the
// library.  The probe tracks the library's speed only in part (a vCPU
// that runs the probe 1.5x slower may run the library 1.1x slower), so
// the run also moves itself round every vCPU it may use (CpuRotation):
// each run then sees every vCPU for the same share of its time, and the
// probe's per-vCPU errors average out the same way in every run.

/// About the probe's median time on the recording machine (README.md,
/// "Recorded results"), so that scaled timings read as that machine's
/// typical wall times.
constexpr double kProbeReferenceNs = 50000.0;

/// Dense 40 x 40 matrix product on data of its own, L1-resident.  The
/// probe is the fastest of three back-to-back products (the first
/// re-warms the data), re-taken when the last one is older than 2 ms.
class SpeedProbe {
 public:
  SpeedProbe() : a_(kN * kN), b_(kN * kN), c_(kN * kN) {
    std::uint64_t state = 0x5EED;
    for (double& x : a_) x = 0.5 + 0x1p-64 * whart::numeric::splitmix64(state);
    for (double& x : b_) x = 0.5 + 0x1p-64 * whart::numeric::splitmix64(state);
  }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Factor mapping a wall time measured now to the reference speed.
  double scale() {
    const Clock::time_point now = Clock::now();
    if (probe_ns_ == 0.0 || seconds_between(taken_, now) > 0.002) {
      double best = 0.0;
      for (int round = 0; round < 3; ++round) {
        const Clock::time_point t0 = Clock::now();
        multiply();
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
        if (round == 0 || ns < best) best = ns;
      }
      probe_ns_ = best;
      taken_ = Clock::now();
      probes_.push_back(best);
    }
    return kProbeReferenceNs / probe_ns_;
  }

  /// Forces a new probe at the next scale(), e.g. after a move to
  /// another vCPU.
  void expire() { probe_ns_ = 0.0; }

  /// Median probe time so far, ns.
  [[nodiscard]] double median_ns() const { return quantile(probes_, 0.5); }

  /// Sum of the products' entries; printed, so no product is elided.
  [[nodiscard]] double checksum() const { return checksum_; }

 private:
  static constexpr std::size_t kN = 40;

  void multiply() {
    for (std::size_t i = 0; i < kN; ++i)
      for (std::size_t j = 0; j < kN; ++j) {
        double sum = 0.0;
        for (std::size_t k = 0; k < kN; ++k) sum += a_[i * kN + k] * b_[k * kN + j];
        c_[i * kN + j] = sum;
      }
    checksum_ += c_[kN * kN - 1];
  }

  std::vector<double> a_, b_, c_;
  double checksum_ = 0.0;
  double probe_ns_ = 0.0;
  Clock::time_point taken_;
  std::vector<double> probes_;
};

/// Moves the calling thread to the next vCPU of the affinity set it
/// started with every 100 ms, round-robin.  With WHART_THREADS=1 that
/// thread is the only one doing work.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
      throw std::runtime_error("sched_getaffinity failed");
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    moved_ = Clock::now();
  }

  /// Moves on when the current vCPU has had its 100 ms; true if it moved.
  bool tick() {
    if (cpus_.size() < 2 || seconds_between(moved_, Clock::now()) < 0.1)
      return false;
    next_ = (next_ + 1) % cpus_.size();
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_], &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0)
      throw std::runtime_error("sched_setaffinity failed");
    moved_ = Clock::now();
    return true;
  }

  [[nodiscard]] std::size_t cpus() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  Clock::time_point moved_;
};

/// At more than one thread the library's memory grows with the number
/// of calls it served, so peak_rss_mb is read after a fixed request count
/// (or at the end of the run, when fewer), never after a fixed time.
constexpr std::uint64_t kRssRequests = 1000;

/// Closed-loop state carried across the windows of one run.
struct Loop {
  std::uint64_t next = 0;  ///< index of the next request
  std::uint64_t failed = 0;
  double rss_mb = 0.0;  ///< set when request kRssRequests completes
  SpeedProbe probe;
  CpuRotation rotation;

  /// Speed factor for a timing that starts now, after moving on to the
  /// next vCPU when this one has had its turn.
  double scale() {
    if (rotation.tick()) probe.expire();
    return probe.scale();
  }
};

/// Set-up is sampled this many times, spread over the warm-up; setup_s
/// is the median sample.
constexpr std::size_t kSetupSamples = 5;

/// One set-up sample at reference speed: the median of back-to-back
/// set-ups lasting at least 20 ms (a single set-up when it alone takes
/// longer), so that microsecond set-ups are not one timer tick.
/// Returns {raw, scaled} seconds.
std::pair<double, double> setup_sample(Workload& workload, std::uint64_t seed,
                                       Loop& loop) {
  std::vector<double> raw;
  std::vector<double> scaled;
  const Clock::time_point begin = Clock::now();
  do {
    const double scale = loop.scale();
    const Clock::time_point t0 = Clock::now();
    workload.setup(seed);
    raw.push_back(seconds_between(t0, Clock::now()));
    scaled.push_back(raw.back() * scale);
  } while (seconds_between(begin, Clock::now()) < 0.02);
  return {quantile(raw, 0.5), quantile(scaled, 0.5)};
}

/// The latencies of one window, ns: as measured and at reference speed.
struct Window {
  std::vector<double> raw;
  std::vector<double> scaled;
};

/// Closed loop for `seconds` of wall time.  Only request() is inside the
/// stopwatch; the probe, input generation, the check and `between` (run
/// every 256 requests) are outside it.
Window run_window(Workload& workload, double seconds, Loop& loop,
                  const std::function<void()>& between = {}) {
  Window window;
  const Clock::time_point begin = Clock::now();
  while (seconds_between(begin, Clock::now()) < seconds) {
    const std::uint64_t index = loop.next++;
    workload.prepare(index);
    const double scale = loop.scale();
    const Clock::time_point t0 = Clock::now();
    bool ok = true;
    try {
      const obs::ScopedRequestSpan span("e2e.request");
      workload.request(index);
    } catch (const std::exception& error) {
      std::cerr << "whart_e2e: request " << index << " threw: " << error.what()
                << "\n";
      ok = false;
    }
    window.raw.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
    window.scaled.push_back(window.raw.back() * scale);
    if (!ok || !workload.check(index)) ++loop.failed;
    if (loop.next == kRssRequests) loop.rss_mb = peak_rss_mb();
    if (between && window.raw.size() % 256 == 0) between();
  }
  return window;
}

/// The benchmark's own layer spans (direct children of e2e.request).
const std::set<std::string>& layer_spans() {
  static const std::set<std::string> names{
      "cli.parse",   "net.schedule", "hart.analyze",    "hart.sweep",
      "hart.whatif", "hart.aggregate", "report.serialize"};
  return names;
}

/// Folds trace batches into per-layer totals and clears the collector,
/// so span memory stays bounded over a long traced window.  The spans of
/// the first few requests are kept for the Chrome trace file.
class SpanFolder {
 public:
  static constexpr std::size_t kKeptRequests = 16;

  void fold() {
    obs::TraceCollector& collector = obs::TraceCollector::instance();
    std::vector<obs::SpanRecord> events = collector.events();
    collector.clear();
    for (const obs::SpanRecord& e : events) {
      const std::string name = e.name;
      if (name == "e2e.request") {
        request_ns_ += e.duration_ns;
        if (kept_ids_.size() < kKeptRequests) kept_ids_.insert(e.request_id);
      } else if (layer_spans().count(name) != 0) {
        layer_ns_[name] += e.duration_ns;
      }
    }
    for (const obs::SpanRecord& e : events)
      if (kept_ids_.count(e.request_id) != 0) kept_.push_back(e);
  }

  [[nodiscard]] double layer_ns(const std::string& name) const {
    const auto it = layer_ns_.find(name);
    return it == layer_ns_.end() ? 0.0 : static_cast<double>(it->second);
  }
  [[nodiscard]] double covered_fraction() const {
    std::uint64_t covered = 0;
    for (const auto& [name, ns] : layer_ns_) covered += ns;
    return request_ns_ == 0 ? 0.0
                            : static_cast<double>(covered) /
                                  static_cast<double>(request_ns_);
  }
  [[nodiscard]] const std::vector<obs::SpanRecord>& kept() const {
    return kept_;
  }

 private:
  std::map<std::string, std::uint64_t> layer_ns_;
  std::uint64_t request_ns_ = 0;
  std::set<std::uint64_t> kept_ids_;
  std::vector<obs::SpanRecord> kept_;
};

/// Registry deltas between two snapshots.
class Delta {
 public:
  Delta(obs::MetricsSnapshot before, obs::MetricsSnapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}

  [[nodiscard]] double count(const std::string& name) const {
    return static_cast<double>(value(after_.counters, name) -
                               value(before_.counters, name));
  }
  /// Summed samples of a histogram (ns for the .ns stage timers).
  [[nodiscard]] double sum(const std::string& name) const {
    return static_cast<double>(hist_sum(after_, name) -
                               hist_sum(before_, name));
  }

 private:
  static std::uint64_t value(const std::map<std::string, std::uint64_t>& map,
                             const std::string& name) {
    const auto it = map.find(name);
    return it == map.end() ? 0 : it->second;
  }
  static std::uint64_t hist_sum(const obs::MetricsSnapshot& s,
                                const std::string& name) {
    const auto it = s.histograms.find(name);
    return it == s.histograms.end() ? 0 : it->second.sum;
  }

  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

using Metrics = std::vector<std::pair<std::string, double>>;

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// Per-layer metrics of a traced window; times are mapped to reference
/// speed with the window's mean probe scale.  `overhead_p50` compares
/// its p50 with the untraced window's.
Metrics layer_metrics(const Window& traced, const SpanFolder& spans,
                      const Delta& d, double overhead_p50) {
  const auto requests = static_cast<double>(traced.raw.size());
  const double scale = sum(traced.scaled) / sum(traced.raw);
  const auto per_req_ms = [&](double ns) {
    return ns * scale / 1e6 / requests;
  };
  const double builds = d.count("hart.skeleton.builds");
  const double solves = d.count("hart.path_solve.count");
  const double incremental_fallbacks =
      d.count("hart.whatif.incremental_fallback");
  return {
      {"cli.parse_ms", per_req_ms(spans.layer_ns("cli.parse"))},
      {"net.schedule_ms", per_req_ms(spans.layer_ns("net.schedule"))},
      {"hart.analyze_ms", per_req_ms(spans.layer_ns("hart.analyze"))},
      {"hart.sweep_ms", per_req_ms(spans.layer_ns("hart.sweep"))},
      {"hart.whatif_ms", per_req_ms(spans.layer_ns("hart.whatif"))},
      {"hart.aggregate_ms", per_req_ms(spans.layer_ns("hart.aggregate"))},
      {"report.serialize_ms", per_req_ms(spans.layer_ns("report.serialize"))},
      {"hart.skeleton.builds_per_req", builds / requests},
      {"hart.skeleton.build_busy_ms_per_req",
       per_req_ms(d.sum("hart.stage.skeleton_build.ns"))},
      {"hart.skeleton.solves_per_build", ratio(solves, builds)},
      {"hart.path_cache.hit_ratio",
       ratio(d.count("hart.path_cache.hits"),
             d.count("hart.path_cache.hits") +
                 d.count("hart.path_cache.misses"))},
      {"hart.cache_lookup_busy_ms_per_req",
       per_req_ms(d.sum("hart.stage.cache_lookup.ns"))},
      {"hart.refill_busy_ms_per_req",
       per_req_ms(d.sum("hart.stage.refill.ns"))},
      {"hart.tail_solve_busy_ms_per_req",
       per_req_ms(d.sum("hart.stage.tail_solve.ns"))},
      {"hart.path_solves_per_req", solves / requests},
      {"hart.states_per_req", d.sum("hart.path_solve.states") / requests},
      {"hart.kernel_fallbacks", d.count("hart.path_solve.kernel_fallback")},
      {"hart.skeleton.refill_fallbacks",
       d.count("hart.skeleton.refill_fallback")},
      {"hart.whatif.paths_resolved_per_query",
       d.count("hart.whatif.paths_resolved") / requests},
      {"hart.whatif.incremental_fallback_ratio",
       ratio(incremental_fallbacks,
             incremental_fallbacks +
                 d.count("hart.whatif.incremental_solves"))},
      {"markov.product_build_busy_ms_per_req",
       per_req_ms(d.sum("hart.stage.product_build.ns"))},
      {"markov.batch.points_batched_fraction",
       ratio(d.count("hart.batch.lanes_filled"),
             d.count("hart.sweep.points"))},
      {"markov.batch_refill_busy_ms_per_req",
       per_req_ms(d.sum("hart.stage.batch_refill.ns"))},
      {"markov.incremental.rows_replayed_per_query",
       d.count("markov.incremental.rows_replayed") / requests},
      {"markov.incremental_refill_busy_ms_per_query",
       per_req_ms(d.sum("hart.stage.incremental_refill.ns"))},
      {"trace.coverage", spans.covered_fraction()},
      {"trace.overhead_p50", overhead_p50},
  };
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  double warmup = 2.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") args.workload = value();
    else if (arg == "--seed") args.seed = std::stoull(value());
    else if (arg == "--seconds") args.seconds = std::stod(value());
    else if (arg == "--warmup") args.warmup = std::stod(value());
    else if (arg == "--trace") args.trace = true;
    else if (arg == "--trace-out") args.trace_out = value();
    else throw std::invalid_argument("unknown argument '" + arg + "'");
  }
  if (args.workload.empty())
    throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0) || !(args.warmup >= 0.0))
    throw std::invalid_argument("--seconds must be > 0 and --warmup >= 0");
  return args;
}

void print_object(const char* key, const Metrics& metrics) {
  std::printf(", \"%s\": {", key);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), metrics[i].second);
  std::printf("}");
}

/// `metrics` are at reference speed; `raw` holds the same timings as
/// measured.
void print_json(const Args& args, unsigned threads, bool golden_ok,
                std::uint64_t attempted, std::uint64_t failed,
                std::uint64_t checked, std::size_t samples,
                const Loop& loop, const Metrics& metrics,
                const Metrics& raw) {
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"threads\": %u, "
      "\"golden_ok\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"post_checked\": %llu, \"samples\": %zu, \"cpus\": %zu, "
      "\"probe_ns\": %.17g, \"probe_checksum\": %.17g",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      threads, golden_ok ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(checked), samples, loop.rotation.cpus(),
      loop.probe.median_ns(), loop.probe.checksum());
  print_object("metrics", metrics);
  print_object("raw", raw);
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const unsigned threads =
        whart::common::resolve_thread_count_detailed(0).threads;
    std::unique_ptr<Workload> workload = make_workload(args.workload);

    // Set-up samples are spread over the warm-up, each followed by warm
    // requests; the checks are prepared once the inputs exist.
    Loop loop;
    std::vector<double> raw_setups;
    std::vector<double> setups;
    bool golden_ok = true;
    while (setups.size() < kSetupSamples) {
      const auto [raw, scaled] = setup_sample(*workload, args.seed, loop);
      raw_setups.push_back(raw);
      setups.push_back(scaled);
      if (setups.size() == 1) golden_ok = workload->prepare_checks();
      run_window(*workload, args.warmup / kSetupSamples, loop);
    }

    // Timings at reference speed, then the same as measured.
    const auto timing_metrics = [&](const std::vector<double>& ns,
                                    const std::vector<double>& setup_s) {
      return Metrics{
          {"throughput_rps", static_cast<double>(ns.size()) / (sum(ns) / 1e9)},
          {"latency_p50_ms", quantile(ns, 0.50) / 1e6},
          {"latency_p99_ms", quantile(ns, 0.99) / 1e6},
          {"setup_s", quantile(setup_s, 0.5)},
      };
    };
    Metrics metrics;
    Metrics raw;
    std::size_t samples = 0;
    if (!args.trace) {
      const Window timed = run_window(*workload, args.seconds, loop);
      if (loop.rss_mb == 0.0) loop.rss_mb = peak_rss_mb();
      samples = timed.raw.size();
      metrics = timing_metrics(timed.scaled, setups);
      metrics.emplace_back("peak_rss_mb", loop.rss_mb);
      raw = timing_metrics(timed.raw, raw_setups);
    } else {
      const double half = args.seconds / 2;
      const double untraced_p50 =
          quantile(run_window(*workload, half, loop).scaled, 0.5);
      obs::set_trace_enabled(true);
      obs::TraceCollector::instance().clear();
      SpanFolder spans;
      const obs::MetricsSnapshot before = obs::Registry::instance().snapshot();
      const Window traced =
          run_window(*workload, half, loop, [&] { spans.fold(); });
      spans.fold();
      const Delta delta(before, obs::Registry::instance().snapshot());
      obs::set_trace_enabled(false);
      samples = traced.raw.size();
      metrics = layer_metrics(
          traced, spans, delta,
          quantile(traced.scaled, 0.5) / untraced_p50 - 1.0);
      if (!args.trace_out.empty()) {
        std::ofstream file(args.trace_out);
        if (!file)
          throw std::runtime_error("cannot write '" + args.trace_out + "'");
        whart::report::write_chrome_trace_json(file, spans.kept());
      }
    }

    const auto [checked, post_failed] = workload->post_check();
    const std::uint64_t failed = loop.failed + post_failed;
    print_json(args, threads, golden_ok, loop.next, failed, checked, samples,
               loop, metrics, raw);
    return failed == 0 && golden_ok ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "whart_e2e: " << error.what() << "\n";
    return 2;
  }
}
