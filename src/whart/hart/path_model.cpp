#include "whart/hart/path_model.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/markov/superframe_kernel.hpp"

namespace whart::hart {

PathModelConfig PathModelConfig::from_schedule(
    const net::Schedule& schedule, std::size_t path_index,
    net::SuperframeConfig superframe, std::uint32_t reporting_interval) {
  PathModelConfig config;
  config.hop_slots = schedule.path_slots(path_index).hop_slots;
  config.superframe = superframe;
  config.reporting_interval = reporting_interval;
  return config;
}

std::uint32_t PathModelConfig::effective_ttl() const noexcept {
  return ttl.has_value() ? std::min(*ttl, horizon()) : horizon();
}

PathModel::PathModel(PathModelConfig config) : config_(std::move(config)) {
  expects(!config_.hop_slots.empty(), "path has at least one hop");
  expects(config_.superframe.uplink_slots > 0, "Fup > 0");
  expects(config_.reporting_interval >= 1, "Is >= 1");
  expects(static_cast<std::uint64_t>(config_.reporting_interval) *
                  config_.superframe.uplink_slots <=
              std::numeric_limits<std::uint32_t>::max(),
          "horizon Is * Fup fits in 32 bits");
  // cycle_slots() and cycle_milliseconds() are 32-bit; the ms bound
  // implies the slot bound.
  expects((std::uint64_t{config_.superframe.uplink_slots} +
           config_.superframe.downlink_slots) *
                  phy::kSlotMilliseconds <=
              std::numeric_limits<std::uint32_t>::max(),
          "cycle (Fup + Fdown) * 10 ms fits in 32 bits");
  expects(config_.effective_ttl() >= 1, "ttl >= 1");
  expects(config_.retry_slots.empty() ||
              config_.retry_slots.size() == config_.hop_slots.size(),
          "retry_slots empty or one entry per hop");

  // Firing table: every dedicated and nonzero retry slot with the hop it
  // carries, in slot order; no two may share a slot.
  const std::uint32_t frame = config_.superframe.uplink_slots;
  const std::size_t hops = config_.hop_count();
  opportunities_.reserve(hops + config_.retry_slots.size());
  for (std::size_t h = 0; h < hops; ++h)
    opportunities_.push_back({config_.hop_slots[h], h});
  for (std::size_t h = 0; h < config_.retry_slots.size(); ++h)
    if (config_.retry_slots[h] != 0)  // 0: no retry slot for this hop
      opportunities_.push_back({config_.retry_slots[h], h});
  for (const Opportunity& o : opportunities_)
    expects(o.slot >= 1 && o.slot <= frame,
            "hop and retry slots lie within the uplink frame");
  std::sort(opportunities_.begin(), opportunities_.end(),
            [](const Opportunity& a, const Opportunity& b) {
              return a.slot < b.slot;
            });
  expects(std::adjacent_find(opportunities_.begin(), opportunities_.end(),
                             [](const Opportunity& a, const Opportunity& b) {
                               return a.slot == b.slot;
                             }) == opportunities_.end(),
          "each transmission opportunity has its own dedicated slot");

  // First reachable layer of each hop, in closed form.  A message reaches
  // hop h + 1 on hop h's first firing at a global slot s >= first[h] + 1
  // (the transition out of layer s - 1), and the state (s, h + 1) exists
  // only while s < ttl.  Hop h fires in its dedicated and retry slots of
  // every cycle, so s is the earliest of those slots' next occurrences.
  const std::uint32_t ttl = config_.effective_ttl();
  const auto next_occurrence = [frame](net::SlotNumber in_frame,
                                       std::uint64_t earliest) {
    const std::uint64_t cycles =
        earliest > in_frame ? (earliest - in_frame + frame - 1) / frame : 0;
    return in_frame + cycles * frame;
  };
  first_layer_.reserve(hops);
  first_layer_.push_back(0);
  while (first_layer_.size() < hops) {
    const std::size_t h = first_layer_.size() - 1;
    const std::uint64_t earliest = std::uint64_t{first_layer_.back()} + 1;
    std::uint64_t fires = next_occurrence(config_.hop_slots[h], earliest);
    if (!config_.retry_slots.empty() && config_.retry_slots[h] != 0)
      fires = std::min(fires,
                       next_occurrence(config_.retry_slots[h], earliest));
    if (fires >= ttl) break;
    first_layer_.push_back(static_cast<std::uint32_t>(fires));
  }
  for (std::uint32_t first : first_layer_) transient_count_ += ttl - first;
}

PathTransientResult PathModel::analyze(
    const LinkProbabilityProvider& links) const {
  return analyze(links, PathAnalysisOptions{});
}

PathTransientResult PathModel::analyze(
    const LinkProbabilityProvider& links,
    const PathAnalysisOptions& options) const {
  SolveWorkspace workspace;
  PathTransientResult result;
  analyze_into(links, options, workspace, result);
  return result;
}

void PathModel::analyze_into(const LinkProbabilityProvider& links,
                             const PathAnalysisOptions& options,
                             SolveWorkspace& workspace,
                             PathTransientResult& result) const {
  if (options.kernel == TransientKernel::kSuperframeProduct) {
    if (links.cycle_stationary() &&
        !channel_enlarged(links, config_.hop_count())) {
      result = analyze_superframe(links, options.inject_product_error);
      return;
    }
    WHART_COUNT("hart.path_solve.kernel_fallback");
  }
  walk(links, options.inject_channel_fault, workspace, result);
}

std::vector<std::vector<double>> goal_trajectory(
    const PathTransientResult& result, std::uint32_t horizon) {
  std::vector<std::vector<double>> trajectory(horizon + std::size_t{1});
  std::vector<double> goals(result.cycle_probabilities.size(), 0.0);
  std::size_t next = 0;
  for (std::uint32_t t = 0; t <= horizon; ++t) {
    for (; next < result.deliveries.size() &&
           result.deliveries[next].slot <= t;
         ++next)
      goals[result.deliveries[next].cycle] += result.deliveries[next].mass;
    trajectory[t] = goals;
  }
  return trajectory;
}

namespace {

/// P^n of a channel's transition matrix (k x k, row-major) by repeated
/// squaring.
std::vector<double> channel_power(const link::ChannelModel& channel,
                                  std::uint64_t n) {
  const std::size_t k = channel.state_count();
  std::vector<double> power(k * k, 0.0);
  std::vector<double> base(k * k);
  std::vector<double> product(k * k);
  for (std::size_t r = 0; r < k; ++r) {
    power[r * k + r] = 1.0;
    for (std::size_t c = 0; c < k; ++c)
      base[r * k + c] = channel.transition(r, c);
  }
  const auto multiply_into = [&](const std::vector<double>& a,
                                 const std::vector<double>& b,
                                 std::vector<double>& out) {
    std::fill(product.begin(), product.end(), 0.0);
    for (std::size_t r = 0; r < k; ++r)
      for (std::size_t m = 0; m < k; ++m)
        for (std::size_t c = 0; c < k; ++c)
          product[r * k + c] += a[r * k + m] * b[m * k + c];
    out.swap(product);
  };
  for (; n > 0; n >>= 1) {
    if ((n & 1) != 0) multiply_into(power, base, power);
    if (n > 1) multiply_into(base, base, base);
  }
  return power;
}

}  // namespace

void PathModel::walk(const LinkProbabilityProvider& links, ChannelFault fault,
                     SolveWorkspace& ws, PathTransientResult& result,
                     std::span<double> sensitivity) const {
  WHART_SPAN("path_solve");
  const std::size_t hops = config_.hop_count();
  expects(links.hop_count() >= hops, "provider covers every hop");
  expects(sensitivity.empty() || sensitivity.size() == hops,
          "one sensitivity entry per hop");
#ifndef WHART_OBS_DISABLED
  const bool timed = common::obs::metrics_enabled();
  const auto solve_start = timed ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
#endif
  const net::SuperframeConfig& superframe = config_.superframe;
  const std::uint32_t frame = superframe.uplink_slots;
  const std::uint32_t ttl = config_.effective_ttl();
  const std::uint32_t horizon = config_.horizon();

  // Block layout: hop h owns states [offset, offset + k_h) of the mass
  // and delivery vectors, k_h > 1 only for a multi-state channel.
  ws.walk_hops.resize(hops);
  std::size_t states = 0;
  for (std::size_t h = 0; h < hops; ++h) {
    WalkHop& hop = ws.walk_hops[h];
    const link::ChannelModel* channel = links.channel_model(h);
    hop.channel =
        channel != nullptr && channel->state_count() > 1 ? channel : nullptr;
    hop.states = hop.channel != nullptr ? hop.channel->state_count() : 1;
    hop.offset = states;
    states += hop.states;
  }
  const bool enlarged = states > hops;

  // P_h^gap, computed once per distinct (hop, gap) of this solve.
  struct Power {
    std::size_t hop;
    std::uint64_t gap;
    std::vector<double> values;
  };
  std::vector<Power> powers;
  const auto power = [&](std::size_t h, std::uint64_t gap) -> const double* {
    if (fault == ChannelFault::kGapShift) ++gap;
    for (const Power& p : powers)
      if (p.hop == h && p.gap == gap) return p.values.data();
    powers.push_back({h, gap, channel_power(*ws.walk_hops[h].channel, gap)});
    return powers.back().values.data();
  };
  // A hop's stationary law and per-state success probability; a one-
  // state hop has pi = (1) and reads ps from its firing record.
  const auto pi = [](const WalkHop& hop, std::size_t s) {
    return hop.channel != nullptr ? hop.channel->stationary()[s] : 1.0;
  };
  const auto success_in = [](const WalkHop& hop, std::size_t s,
                             const double* record) {
    return hop.channel != nullptr ? hop.channel->success_in_state(s)
                                  : record[0];
  };
  // pi . v over hop `h`'s block: the delivery probability of an arrival,
  // arrivals being stationary draws.
  const auto stationary_dot = [&](std::size_t h, const double* v) {
    const WalkHop& hop = ws.walk_hops[h];
    double dot = 0.0;
    for (std::size_t s = 0; s < hop.states; ++s)
      dot += pi(hop, s) * v[hop.offset + s];
    return dot;
  };

  // The firings up to the TTL: firing j is opportunity j % count of
  // cycle j / count, and the TTL keeps a prefix of them.  Counted per
  // opportunity with the record doubles and the last hop's deliveries,
  // so both buffers are sized once.
  const std::size_t count = opportunities_.size();
  std::size_t firings = 0;
  std::size_t record_doubles = 0;
  std::size_t deliveries = 0;
  for (const Opportunity& o : opportunities_) {
    const std::size_t occurrences = ttl / frame + (o.slot <= ttl % frame);
    firings += occurrences;
    record_doubles += occurrences * (1 + 2 * ws.walk_hops[o.hop].states);
    if (o.hop + 1 == hops) deliveries += occurrences;
  }
  const auto global_slot = [&](std::size_t j) {
    return static_cast<std::uint32_t>(j / count) * frame +
           opportunities_[j % count].slot;
  };

  // Backward pass: each firing's delivery vector beta (per channel state
  // s of the firing hop: P(delivery | at the hop in state s just before
  // the firing)) and gain beta_success - beta_failure, from the delivery
  // vector of the same hop's next firing (failure) and the next hop's
  // (success).  A record holds ps, beta[k_h], gain[k_h].
  ws.next_beta.assign(states, 0.0);
  for (WalkHop& hop : ws.walk_hops) hop.fired.reset();
  ws.firings.clear();
  ws.firings.reserve(record_doubles);
  for (std::size_t j = firings; j-- > 0;) {
    const std::size_t h = opportunities_[j % count].hop;
    WalkHop& hop = ws.walk_hops[h];
    const std::uint64_t slot =
        superframe.absolute_slot_of_uplink(global_slot(j));
    const double success =
        h + 1 == hops ? 1.0 : stationary_dot(h + 1, ws.next_beta.data());
    const std::size_t at = ws.firings.size();
    ws.firings.resize(at + 1 + 2 * hop.states);
    double* record = ws.firings.data() + at;
    record[0] = hop.channel != nullptr ? 0.0 : links.up_probability(h, slot);
    double* beta = record + 1;
    double* gain = beta + hop.states;
    double* next = ws.next_beta.data() + hop.offset;
    // gain <- beta_failure: the next firing's vector carried back across
    // the gap (the failing slot included).
    if (!hop.fired.has_value()) {
      std::fill(gain, gain + hop.states, 0.0);
    } else if (hop.channel == nullptr) {
      gain[0] = next[0];
    } else if (fault == ChannelFault::kStateLeak) {
      std::fill(gain, gain + hop.states,
                stationary_dot(h, ws.next_beta.data()));
    } else {
      const double* p = power(h, *hop.fired - slot);
      for (std::size_t s = 0; s < hop.states; ++s) {
        gain[s] = 0.0;
        for (std::size_t s2 = 0; s2 < hop.states; ++s2)
          gain[s] += p[s * hop.states + s2] * next[s2];
      }
    }
    for (std::size_t s = 0; s < hop.states; ++s) {
      const double ps = success_in(hop, s, record);
      beta[s] = ps * success + (1.0 - ps) * gain[s];
      gain[s] = success - gain[s];
      next[s] = beta[s];
    }
    hop.fired = slot;
  }

  result.cycle_probabilities.assign(config_.reporting_interval, 0.0);
  result.expected_transmissions_per_hop.assign(hops, 0.0);
  result.discard_probability = 0.0;
  result.expected_transmissions = 0.0;
  result.expected_transmissions_delivered = 0.0;
  result.deliveries.clear();
  result.deliveries.reserve(deliveries);
  result.diagnostics = SolverDiagnostics{};

  // Forward pass: the message starts at hop 0 with its channel
  // stationary.  A block is brought up to date only when its hop fires;
  // until its first firing it holds stationary arrivals alone.
  ws.mass.assign(states, 0.0);
  for (std::size_t s = 0; s < ws.walk_hops[0].states; ++s)
    ws.mass[s] = pi(ws.walk_hops[0], s);
  for (WalkHop& hop : ws.walk_hops) hop.fired.reset();
  std::vector<double> mixed;
  std::size_t record_end = ws.firings.size();
  for (std::size_t j = 0; j < firings; ++j) {
    const std::size_t h = opportunities_[j % count].hop;
    WalkHop& hop = ws.walk_hops[h];
    const std::uint32_t global = global_slot(j);
    const std::uint64_t slot = superframe.absolute_slot_of_uplink(global);
    record_end -= 1 + 2 * hop.states;
    const double* record = ws.firings.data() + record_end;
    const double* beta = record + 1;
    const double* gain = beta + hop.states;
    double* m = ws.mass.data() + hop.offset;
    if (hop.channel != nullptr && hop.fired.has_value()) {
      const double* p = power(h, slot - *hop.fired);
      mixed.assign(hop.states, 0.0);
      for (std::size_t s = 0; s < hop.states; ++s)
        for (std::size_t s2 = 0; s2 < hop.states; ++s2)
          mixed[s2] += m[s] * p[s * hop.states + s2];
      std::copy(mixed.begin(), mixed.end(), m);
    }
    hop.fired = slot;
    double moved = 0.0;
    for (std::size_t s = 0; s < hop.states; ++s) {
      if (!(m[s] > 0.0)) continue;
      const double ps = success_in(hop, s, record);
      result.expected_transmissions += m[s];
      result.expected_transmissions_per_hop[h] += m[s];
      result.expected_transmissions_delivered += m[s] * beta[s];
      if (!sensitivity.empty()) sensitivity[h] += m[s] * gain[s];
      const double success = m[s] * ps;
      m[s] -= success;
      moved += success;
    }
    if (hop.channel != nullptr && fault == ChannelFault::kStateLeak) {
      double failed = 0.0;
      for (std::size_t s = 0; s < hop.states; ++s) failed += m[s];
      for (std::size_t s = 0; s < hop.states; ++s)
        m[s] = failed * pi(hop, s);
    }
    if (h + 1 == hops) {
      const auto cycle = static_cast<std::uint32_t>(j / count);
      result.cycle_probabilities[cycle] += moved;
      result.deliveries.push_back({global, cycle, moved});
    } else {
      const WalkHop& next = ws.walk_hops[h + 1];
      for (std::size_t s = 0; s < next.states; ++s)
        ws.mass[next.offset + s] += moved * pi(next, s);
    }
  }
  // TTL expired: every in-flight message is discarded (lazy mixing
  // moves mass between channel states, never out of a block).
  for (double& m : ws.mass) {
    result.discard_probability += m;
    m = 0.0;
  }

  SolverDiagnostics& diagnostics = result.diagnostics;
  diagnostics.dtmc_states = enlarged ? states + 2 : state_count();
  diagnostics.transient_states = enlarged ? states : transient_count_;
  diagnostics.absorbing_states =
      enlarged ? 2 : std::size_t{config_.reporting_interval} + 1;
  diagnostics.forward_steps = horizon;
  const double goal_mass =
      std::accumulate(result.cycle_probabilities.begin(),
                      result.cycle_probabilities.end(), 0.0);
  diagnostics.mass_residual =
      std::abs(1.0 - goal_mass - result.discard_probability);
  WHART_COUNT("hart.path_solve.count");
  if (enlarged) WHART_COUNT("hart.path_solve.channel");
  WHART_OBSERVE("hart.path_solve.states", diagnostics.dtmc_states);
  WHART_EVENT(kSolveDone, "hart.path_solve", diagnostics.dtmc_states, 0);
#ifndef WHART_OBS_DISABLED
  if (timed) {
    const auto elapsed = std::chrono::steady_clock::now() - solve_start;
    diagnostics.solve_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    WHART_OBSERVE("hart.stage.walk.ns", diagnostics.solve_ns);
  }
#endif
}

std::vector<linalg::CsrMatrix> PathModel::opportunity_matrices(
    const LinkProbabilityProvider& links) const {
  expects(links.hop_count() >= config_.hop_count(),
          "provider covers every hop");
  const std::size_t hops = config_.hop_count();
  const std::size_t dim = hops + 2;
  const std::size_t goal = hops;
  const std::size_t discard = hops + 1;
  std::vector<linalg::CsrMatrix> matrices;
  matrices.reserve(opportunities_.size());
  // Success probabilities are frozen from the first cycle; with a
  // cycle-stationary provider every later cycle sees the same values.
  for (const Opportunity& o : opportunities_) {
    std::vector<linalg::Triplet> entries;
    entries.reserve(dim + 1);
    for (std::size_t h = 0; h < hops; ++h) {
      if (o.hop == h) {
        const double ps = links.up_probability(
            h, config_.superframe.absolute_slot_of_uplink(o.slot));
        const std::size_t target = h + 1 == hops ? goal : h + 1;
        if (ps > 0.0) entries.push_back({h, target, ps});
        if (ps < 1.0) entries.push_back({h, h, 1.0 - ps});
      } else {
        entries.push_back({h, h, 1.0});
      }
    }
    entries.push_back({goal, goal, 1.0});
    entries.push_back({discard, discard, 1.0});
    matrices.emplace_back(dim, dim, std::move(entries));
  }
  return matrices;
}

PathTransientResult PathModel::analyze_superframe(
    const LinkProbabilityProvider& links, double inject) const {
  WHART_SPAN("path_solve");
#ifndef WHART_OBS_DISABLED
  const bool timed = common::obs::metrics_enabled();
  const auto solve_start = timed ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
#endif
  markov::SuperframeKernel kernel(opportunity_matrices(links));
  if (inject != 0.0) kernel.perturb_product_entry(0, 0, inject);
  const linalg::CsrMatrix& product = kernel.cycle_product();
  const std::size_t hops = config_.hop_count();
  const std::size_t dim = hops + 2;
  const std::size_t goal = hops;
  const std::size_t count = opportunities_.size();
  const std::uint32_t frame = config_.superframe.uplink_slots;
  const std::uint32_t ttl = config_.effective_ttl();
  const std::uint32_t interval = config_.reporting_interval;
  // Success probabilities are frozen from the first cycle; the provider
  // is cycle-stationary.
  std::vector<double> ps(count);
  for (std::size_t i = 0; i < count; ++i)
    ps[i] = links.up_probability(
        opportunities_[i].hop,
        config_.superframe.absolute_slot_of_uplink(opportunities_[i].slot));
  const auto target_of = [&](std::size_t h) {
    return h + 1 == hops ? goal : h + 1;
  };

  // One-cycle accounting matrices from a dense prefix/suffix sweep over
  // the transmission opportunities (identity slots leave both unchanged).
  //
  //   attempts(x, h): expected transmissions of hop h during a full cycle
  //     entered in state x — the prefix column of state h summed over the
  //     slots where h fires, so a whole cycle's attempt bookkeeping is one
  //     dot product against the entry distribution.
  //
  //   delivered_kernel K: with b = eventual-delivery probabilities at the
  //     cycle's end and u = delivered-attempt mass accrued after it, one
  //     cycle folds backward as u <- K b + P u, b <- P b, where
  //     K = sum over firing slots j of
  //         (column x_j of Prefix_{j-1}) (row x_j of Suffix_j),
  //     Prefix_{j-1} = M_1..M_{j-1} and Suffix_j = M_j..M_F.
  std::vector<double> prefix(dim * dim, 0.0);
  for (std::size_t i = 0; i < dim; ++i) prefix[i * dim + i] = 1.0;
  std::vector<double> next(dim * dim);
  std::vector<double> attempts(dim * hops, 0.0);
  std::vector<double> prefix_columns(count * dim);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t hop = opportunities_[i].hop;
    double* column = prefix_columns.data() + i * dim;
    for (std::size_t r = 0; r < dim; ++r) {
      column[r] = prefix[r * dim + hop];
      attempts[r * hops + hop] += column[r];
    }
    // prefix <- prefix * M_i, accumulating ascending over M_i's rows.
    const linalg::CsrMatrix& step = kernel.slot_matrix(i);
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t k = 0; k < dim; ++k)
      for (std::size_t idx = step.row_start()[k];
           idx < step.row_start()[k + 1]; ++idx)
        for (std::size_t r = 0; r < dim; ++r)
          next[r * dim + step.col_index()[idx]] +=
              prefix[r * dim + k] * step.values()[idx];
    std::swap(prefix, next);
  }
  std::vector<double> delivered_kernel(dim * dim, 0.0);
  std::vector<double>& suffix = prefix;
  std::fill(suffix.begin(), suffix.end(), 0.0);
  for (std::size_t i = 0; i < dim; ++i) suffix[i * dim + i] = 1.0;
  for (std::size_t i = count; i-- > 0;) {
    const std::size_t hop = opportunities_[i].hop;
    const linalg::CsrMatrix& step = kernel.slot_matrix(i);
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t r = 0; r < dim; ++r)
      for (std::size_t idx = step.row_start()[r];
           idx < step.row_start()[r + 1]; ++idx)
        for (std::size_t c = 0; c < dim; ++c)
          next[r * dim + c] +=
              step.values()[idx] * suffix[step.col_index()[idx] * dim + c];
    std::swap(suffix, next);
    const double* column = prefix_columns.data() + i * dim;
    for (std::size_t r = 0; r < dim; ++r)
      for (std::size_t c = 0; c < dim; ++c)
        delivered_kernel[r * dim + c] += column[r] * suffix[hop * dim + c];
  }

  PathTransientResult result;
  result.cycle_probabilities.assign(interval, 0.0);
  result.expected_transmissions_per_hop.assign(hops, 0.0);
  std::vector<double> p(dim, 0.0);
  p[0] = 1.0;
  std::vector<double> p_next(dim);
  double goal_seen = 0.0;
  for (std::uint32_t cycle = 0; cycle < interval; ++cycle) {
    if (static_cast<std::uint64_t>(cycle + 1) * frame <= ttl) {
      // Full pre-TTL cycle: attempts via the accounting matrix, then one
      // product advance in place of `frame` per-slot steps.
      for (std::size_t h = 0; h < hops; ++h) {
        double cycle_attempts = 0.0;
        for (std::size_t x = 0; x < dim; ++x)
          cycle_attempts += p[x] * attempts[x * hops + h];
        result.expected_transmissions_per_hop[h] += cycle_attempts;
        result.expected_transmissions += cycle_attempts;
      }
      std::fill(p_next.begin(), p_next.end(), 0.0);
      for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t idx = product.row_start()[r];
             idx < product.row_start()[r + 1]; ++idx)
          p_next[product.col_index()[idx]] += p[r] * product.values()[idx];
      std::swap(p, p_next);
    } else if (cycle * frame < ttl) {
      // The cycle the TTL cuts through fires its opportunities one by one
      // so the discard lands on the exact slot; cycles past the TTL fall
      // straight through.
      for (std::size_t i = 0; i < count; ++i) {
        if (cycle * frame + opportunities_[i].slot > ttl) break;
        const std::size_t h = opportunities_[i].hop;
        result.expected_transmissions += p[h];
        result.expected_transmissions_per_hop[h] += p[h];
        const double moved = p[h] * ps[i];
        p[h] -= moved;
        p[target_of(h)] += moved;
      }
      for (std::size_t h = 0; h < hops; ++h) {
        result.discard_probability += p[h];
        p[h] = 0.0;
      }
    }
    result.cycle_probabilities[cycle] = p[goal] - goal_seen;
    goal_seen = p[goal];
  }
  // When the TTL coincides with a product-advanced cycle boundary the
  // expired mass never passed a per-slot discard; sweep it now.
  for (std::size_t h = 0; h < hops; ++h) {
    result.discard_probability += p[h];
    p[h] = 0.0;
  }

  // Delivered-attempt accounting, folded backward cycle-by-cycle.  b
  // starts as the goal indicator at the TTL slot (transient mass there is
  // lost, so its delivery probability is already 0); the TTL cycle runs
  // per-slot, every earlier cycle collapses through K and the product.
  {
    WHART_TIMER("hart.stage.tail_solve.ns");
    std::vector<double> b(dim, 0.0);
    b[goal] = 1.0;
    std::vector<double> u(dim, 0.0);
    const std::uint32_t ttl_cycle = (ttl - 1) / frame;  // 0-based
    for (std::size_t i = count; i-- > 0;) {
      if (ttl_cycle * frame + opportunities_[i].slot > ttl) continue;
      const std::size_t h = opportunities_[i].hop;
      const std::size_t target = target_of(h);
      const double b_before = ps[i] * b[target] + (1.0 - ps[i]) * b[h];
      u[h] = ps[i] * u[target] + (1.0 - ps[i]) * u[h] + b_before;
      b[h] = b_before;
    }
    std::vector<double> u_next(dim);
    std::vector<double> b_next(dim);
    for (std::uint32_t cycle = ttl_cycle; cycle-- > 0;) {
      std::fill(b_next.begin(), b_next.end(), 0.0);
      for (std::size_t r = 0; r < dim; ++r) {
        double folded = 0.0;
        for (std::size_t c = 0; c < dim; ++c)
          folded += delivered_kernel[r * dim + c] * b[c];
        u_next[r] = folded;
      }
      for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t idx = product.row_start()[r];
             idx < product.row_start()[r + 1]; ++idx) {
          const std::size_t c = product.col_index()[idx];
          u_next[r] += product.values()[idx] * u[c];
          b_next[r] += product.values()[idx] * b[c];
        }
      std::swap(u, u_next);
      std::swap(b, b_next);
    }
    result.expected_transmissions_delivered = u[0];
  }

  SolverDiagnostics& diagnostics = result.diagnostics;
  diagnostics.dtmc_states = dim;
  diagnostics.transient_states = hops;
  diagnostics.absorbing_states = 2;
  diagnostics.forward_steps = config_.horizon();
  diagnostics.kernel = TransientKernel::kSuperframeProduct;
  const double goal_mass =
      std::accumulate(result.cycle_probabilities.begin(),
                      result.cycle_probabilities.end(), 0.0);
  diagnostics.mass_residual =
      std::abs(1.0 - goal_mass - result.discard_probability);
  WHART_COUNT("hart.path_solve.count");
  WHART_COUNT("hart.path_solve.superframe");
  WHART_OBSERVE("hart.path_solve.states", dim);
  WHART_EVENT(kSolveDone, "hart.path_solve", dim, 0);
#ifndef WHART_OBS_DISABLED
  if (timed)
    diagnostics.solve_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - solve_start)
            .count());
#endif
  return result;
}

markov::Dtmc PathModel::to_dtmc(const LinkProbabilityProvider& links) const {
  expects(links.hop_count() >= config_.hop_count(),
          "provider covers every hop");
  const std::size_t hops = config_.hop_count();
  const std::uint32_t ttl = config_.effective_ttl();
  const std::size_t num_states = state_count();
  const std::size_t discard = num_states - 1;
  const auto goal_index = [&](std::uint32_t cycle_0based) {
    return transient_count_ + cycle_0based;
  };
  // Hops present in layer t: the prefix whose first layer is <= t.
  const auto layer_width = [&](std::uint32_t t, std::size_t width) {
    while (width < first_layer_.size() && first_layer_[width] <= t) ++width;
    return width;
  };

  std::vector<linalg::Triplet> transitions;
  std::vector<std::string> names(num_states);

  // The firing hop of each in-frame uplink slot (`hops` when idle).
  const std::uint32_t frame = config_.superframe.uplink_slots;
  std::vector<std::size_t> firing_hop(frame, hops);
  for (const Opportunity& o : opportunities_) firing_hop[o.slot - 1] = o.hop;

  // Transient states and their outgoing transitions, t-major: state
  // (t, h) is number layer_start + h.
  std::size_t layer_start = 0;
  std::size_t width = layer_width(0, 0);
  for (std::uint32_t t = 0; t < ttl; ++t) {
    const std::uint32_t slot = t + 1;
    const std::size_t firing = firing_hop[t % frame];
    const std::size_t next_start = layer_start + width;
    const std::size_t next_width = t + 1 < ttl ? layer_width(t + 1, width) : 0;
    for (std::size_t h = 0; h < width; ++h) {
      const std::size_t from = layer_start + h;

      // Paper-style descriptor: nodes 1..h+1 hold a copy aged t+1.
      std::string name = "(";
      for (std::size_t node = 0; node < hops; ++node) {
        if (node > 0) name += ",";
        name += node <= h ? std::to_string(t + 1) : "-";
      }
      name += ")";
      names[from] = std::move(name);

      const auto continuation = [&](std::size_t next_h) -> std::size_t {
        if (t + 1 >= ttl) return discard;  // TTL hits zero next step
        ensures(next_h < next_width, "successor state was enumerated");
        return next_start + next_h;
      };

      if (firing == h) {
        const double ps = links.up_probability(
            h, config_.superframe.absolute_slot_of_uplink(slot));
        const std::size_t success_target =
            h + 1 == hops
                ? goal_index((slot - 1) / frame)
                : continuation(h + 1);
        if (ps > 0.0)
          transitions.push_back({from, success_target, ps});
        if (ps < 1.0)
          transitions.push_back({from, continuation(h), 1.0 - ps});
      } else {
        transitions.push_back({from, continuation(h), 1.0});
      }
    }
    layer_start = next_start;
    width = next_width;
  }
  ensures(layer_start == transient_count_,
          "unrolled layers match the closed-form state count");

  // Absorbing states.
  for (std::uint32_t i = 0; i < config_.reporting_interval; ++i) {
    transitions.push_back({goal_index(i), goal_index(i), 1.0});
    names[goal_index(i)] = goal_state_name(i + 1);
  }
  transitions.push_back({discard, discard, 1.0});
  names[discard] = "Discard";

  return markov::Dtmc(num_states, std::move(transitions), std::move(names));
}

std::string PathModel::goal_state_name(std::uint32_t cycle) const {
  expects(cycle >= 1 && cycle <= config_.reporting_interval,
          "cycle in 1..Is");
  return "R" + std::to_string(config_.gateway_slot() +
                              (cycle - 1) * config_.superframe.uplink_slots);
}

}  // namespace whart::hart
