#include "whart/hart/path_model.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"

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
/// squaring, written to `out`; `scratch` holds 3 k^2 doubles.
void channel_power(const link::ChannelModel& channel, std::uint64_t n,
                   double* out, double* scratch) {
  const std::size_t k = channel.state_count();
  double* power = scratch;
  double* base = power + k * k;
  double* product = base + k * k;
  std::fill(power, base, 0.0);
  for (std::size_t r = 0; r < k; ++r) {
    power[r * k + r] = 1.0;
    for (std::size_t c = 0; c < k; ++c)
      base[r * k + c] = channel.transition(r, c);
  }
  const auto multiply_into = [&](const double* a, const double* b,
                                 double*& result) {
    std::fill(product, product + k * k, 0.0);
    for (std::size_t r = 0; r < k; ++r)
      for (std::size_t m = 0; m < k; ++m)
        for (std::size_t c = 0; c < k; ++c)
          product[r * k + c] += a[r * k + m] * b[m * k + c];
    std::swap(result, product);
  };
  for (; n > 0; n >>= 1) {
    if ((n & 1) != 0) multiply_into(power, base, power);
    if (n > 1) multiply_into(base, base, base);
  }
  std::copy(power, power + k * k, out);
}

/// Both passes of PathModel::walk at block width K (DESIGN.md §11): K = 1
/// when every hop is i.i.d., K = 2 when every hop is a two-state channel,
/// and K = 0 for the runtime width of the hops' own state counts.  One
/// body serves every width: `if constexpr` drops what a width cannot
/// reach (the channel branches and lookups at K = 1) and a fixed K fixes
/// the per-state loops' trip count, while every addition stays the
/// runtime width's, in its order, so each width gives the same bits.
template <std::size_t K>
void walk_firings(const PathModelConfig& config,
                  std::span<const PathModel::Opportunity> opportunities,
                  const LinkProbabilityProvider& links, ChannelFault fault,
                  SolveWorkspace& ws, PathTransientResult& result,
                  std::span<double> sensitivity) {
  const std::size_t hops = config.hop_count();
  const std::uint32_t frame = config.superframe.uplink_slots;
  const std::uint64_t cycle_slots = config.superframe.cycle_slots();
  const std::uint32_t ttl = config.effective_ttl();

  // Block layout: hop h owns states [offset(h), offset(h) + width(hop))
  // of the mass and delivery vectors.
  const auto width = [](const WalkHop& hop) -> std::size_t {
    if constexpr (K > 0) return K;
    else return hop.states;
  };
  const auto offset = [&ws](std::size_t h) -> std::size_t {
    if constexpr (K > 0) return K * h;
    else return ws.walk_hops[h].offset;
  };
  const auto is_channel = [](const WalkHop& hop) {
    if constexpr (K == 1) return false;
    else if constexpr (K == 2) return true;
    else return hop.channel != nullptr;
  };
  const std::size_t states = offset(hops - 1) + width(ws.walk_hops.back());
  // A hop's stationary law and per-state success probability; a one-
  // state hop has pi = (1) and reads ps from its firing record.
  const auto pi = [&](const WalkHop& hop, std::size_t s) {
    return is_channel(hop) ? hop.channel->stationary()[s] : 1.0;
  };
  const auto success_in = [&](const WalkHop& hop, std::size_t s,
                              const double* record) {
    return is_channel(hop) ? hop.channel->success_in_state(s) : record[0];
  };
  // pi . v over hop `h`'s block: the delivery probability of an arrival,
  // arrivals being stationary draws.
  const auto stationary_dot = [&](std::size_t h, const double* v) {
    const WalkHop& hop = ws.walk_hops[h];
    double dot = 0.0;
    for (std::size_t s = 0; s < width(hop); ++s)
      dot += pi(hop, s) * v[offset(h) + s];
    return dot;
  };

  // P^gap of a hop's transition matrix, computed once per distinct
  // (matrix, gap) of this walk: hops that share a channel's dynamics share
  // its powers.
  std::size_t block = K * K;
  if constexpr (K == 0)
    for (const WalkHop& hop : ws.walk_hops)
      block = std::max(block, hop.states * hop.states);
  ws.power_keys.clear();
  const auto power = [&](const WalkHop& hop,
                         std::uint64_t gap) -> const double* {
    if (fault == ChannelFault::kGapShift) ++gap;
    const std::pair key{hop.channel->transition_matrix().data(), gap};
    std::size_t b = 0;
    while (b < ws.power_keys.size() && ws.power_keys[b] != key) ++b;
    if (b == ws.power_keys.size()) {
      ws.power_keys.push_back(key);
      ws.powers.resize(ws.power_keys.size() * block);
      ws.scratch.resize(3 * block);
      channel_power(*hop.channel, gap, ws.powers.data() + b * block,
                    ws.scratch.data());
    }
    return ws.powers.data() + b * block;
  };

  // The firings up to the TTL, enumerated by cycle c and opportunity i:
  // uplink slot c Fup + slot_i, absolute slot c (Fup + Fdown) + slot_i -
  // 1.  The TTL keeps `full` whole cycles and the `tail` opportunities of
  // the next that lie within its first `cut` slots.  Counted per
  // opportunity with the record doubles and the last hop's deliveries,
  // so both buffers are sized once.
  const std::size_t count = opportunities.size();
  const std::uint32_t full = ttl / frame;
  const std::uint32_t cut = ttl % frame;
  std::size_t tail = 0;
  while (tail < count && opportunities[tail].slot <= cut) ++tail;
  std::size_t record_doubles = 0;
  std::size_t deliveries = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t h = opportunities[i].hop;
    const std::size_t occurrences = full + (i < tail);
    record_doubles += occurrences * (1 + 2 * width(ws.walk_hops[h]));
    if (h + 1 == hops) deliveries += occurrences;
  }

  // Backward pass: each firing's delivery vector beta (per channel state
  // s of the firing hop: P(delivery | at the hop in state s just before
  // the firing)) and gain beta_success - beta_failure, from the delivery
  // vector of the same hop's next firing (failure) and the next hop's
  // (success).  A record holds ps, beta[k_h], gain[k_h].
  ws.next_beta.assign(states, 0.0);
  if constexpr (K != 1)
    for (WalkHop& hop : ws.walk_hops) hop.fired.reset();
  ws.firings.resize(record_doubles);
  std::size_t record_at = 0;
  for (std::uint32_t c = full + 1; c-- > 0;) {
    for (std::size_t i = c < full ? count : tail; i-- > 0;) {
      const std::size_t h = opportunities[i].hop;
      WalkHop& hop = ws.walk_hops[h];
      const std::size_t k = width(hop);
      const std::uint64_t slot = c * cycle_slots + opportunities[i].slot - 1;
      const double success =
          h + 1 == hops ? 1.0 : stationary_dot(h + 1, ws.next_beta.data());
      double* record = ws.firings.data() + record_at;
      record_at += 1 + 2 * k;
      record[0] = is_channel(hop) ? 0.0 : links.up_probability(h, slot);
      double* beta = record + 1;
      double* gain = beta + k;
      double* next = ws.next_beta.data() + offset(h);
      // gain <- beta_failure: the next firing's vector carried back across
      // the gap (the failing slot included), 0 when the TTL comes first.
      if constexpr (K == 1) {
        gain[0] = next[0];  // still 0.0 before the hop's last firing
      } else if (!hop.fired.has_value()) {
        std::fill(gain, gain + k, 0.0);
      } else if (!is_channel(hop)) {
        gain[0] = next[0];
      } else if (fault == ChannelFault::kStateLeak) {
        std::fill(gain, gain + k, stationary_dot(h, ws.next_beta.data()));
      } else {
        const double* p = power(hop, *hop.fired - slot);
        for (std::size_t s = 0; s < k; ++s) {
          gain[s] = 0.0;
          for (std::size_t s2 = 0; s2 < k; ++s2)
            gain[s] += p[s * k + s2] * next[s2];
        }
      }
      for (std::size_t s = 0; s < k; ++s) {
        const double ps = success_in(hop, s, record);
        beta[s] = ps * success + (1.0 - ps) * gain[s];
        gain[s] = success - gain[s];
        next[s] = beta[s];
      }
      if constexpr (K != 1) hop.fired = slot;
    }
  }

  // Forward pass: the message starts at hop 0 with its channel
  // stationary.  A block is brought up to date only when its hop fires;
  // until its first firing it holds stationary arrivals alone.  The
  // totals accumulate in firing order, in locals written once (the
  // per-hop attempts straight into the result).
  result.cycle_probabilities.assign(config.reporting_interval, 0.0);
  result.expected_transmissions_per_hop.assign(hops, 0.0);
  result.deliveries.clear();
  result.deliveries.reserve(deliveries);
  double* per_hop = result.expected_transmissions_per_hop.data();
  double transmissions = 0.0;
  double delivered = 0.0;
  ws.mass.assign(states, 0.0);
  for (std::size_t s = 0; s < width(ws.walk_hops[0]); ++s)
    ws.mass[s] = pi(ws.walk_hops[0], s);
  if constexpr (K != 1)
    for (WalkHop& hop : ws.walk_hops) hop.fired.reset();
  for (std::uint32_t c = 0; c <= full; ++c) {
    double goal = 0.0;
    for (std::size_t i = 0; i < (c < full ? count : tail); ++i) {
      const std::size_t h = opportunities[i].hop;
      WalkHop& hop = ws.walk_hops[h];
      const std::size_t k = width(hop);
      record_at -= 1 + 2 * k;
      const double* record = ws.firings.data() + record_at;
      const double* beta = record + 1;
      const double* gain = beta + k;
      double* m = ws.mass.data() + offset(h);
      if constexpr (K != 1) {
        const std::uint64_t slot =
            c * cycle_slots + opportunities[i].slot - 1;
        if (is_channel(hop) && hop.fired.has_value()) {
          const double* p = power(hop, slot - *hop.fired);
          double local[K > 0 ? K : 1] = {};
          double* mixed = K > 0 ? local : ws.scratch.data();
          std::fill(mixed, mixed + k, 0.0);
          for (std::size_t s = 0; s < k; ++s)
            for (std::size_t s2 = 0; s2 < k; ++s2)
              mixed[s2] += m[s] * p[s * k + s2];
          std::copy(mixed, mixed + k, m);
        }
        hop.fired = slot;
      }
      double moved = 0.0;
      for (std::size_t s = 0; s < k; ++s) {
        if (!(m[s] > 0.0)) continue;
        const double ps = success_in(hop, s, record);
        transmissions += m[s];
        per_hop[h] += m[s];
        delivered += m[s] * beta[s];
        if (!sensitivity.empty()) sensitivity[h] += m[s] * gain[s];
        const double success = m[s] * ps;
        m[s] -= success;
        moved += success;
      }
      if (is_channel(hop) && fault == ChannelFault::kStateLeak) {
        double failed = 0.0;
        for (std::size_t s = 0; s < k; ++s) failed += m[s];
        for (std::size_t s = 0; s < k; ++s) m[s] = failed * pi(hop, s);
      }
      if (h + 1 == hops) {
        goal += moved;
        result.deliveries.push_back(
            {c * frame + opportunities[i].slot, c, moved});
      } else {
        const WalkHop& next = ws.walk_hops[h + 1];
        double* arrivals = ws.mass.data() + offset(h + 1);
        for (std::size_t s = 0; s < width(next); ++s)
          arrivals[s] += moved * pi(next, s);
      }
    }
    if (c < config.reporting_interval) result.cycle_probabilities[c] = goal;
  }
  result.expected_transmissions = transmissions;
  result.expected_transmissions_delivered = delivered;
  // TTL expired: every in-flight message is discarded (lazy mixing
  // moves mass between channel states, never out of a block).
  double discard = 0.0;
  for (const double m : ws.mass) discard += m;
  result.discard_probability = discard;
}

}  // namespace

WalkLoopTimer::WalkLoopTimer(std::size_t walks) noexcept : walks_(walks) {
#ifndef WHART_OBS_DISABLED
  if (common::obs::metrics_enabled())
    start_ = std::chrono::steady_clock::now();
#endif
}

WalkLoopTimer::~WalkLoopTimer() {
  if (walks_ == 0) return;
  std::uint64_t loop_ns = 0;
#ifndef WHART_OBS_DISABLED
  if (start_ != std::chrono::steady_clock::time_point{}) {
    loop_ns = static_cast<std::uint64_t>(
        (std::chrono::steady_clock::now() - start_) /
        std::chrono::nanoseconds{1});
    WHART_OBSERVE("hart.stage.walk.ns", loop_ns);
  }
#endif
  WHART_EVENT(kSolveDone, "hart.path_loop", walks_, loop_ns);
}

void PathModel::walk(const LinkProbabilityProvider& links, ChannelFault fault,
                     SolveWorkspace& ws, PathTransientResult& result,
                     std::span<double> sensitivity) const {
  WHART_SPAN("path_solve");
  const std::size_t hops = config_.hop_count();
  expects(links.hop_count() >= hops, "provider covers every hop");
  expects(sensitivity.empty() || sensitivity.size() == hops,
          "one sensitivity entry per hop");

  // Block layout: hop h owns states [offset, offset + k_h) of the mass
  // and delivery vectors, k_h > 1 only for a multi-state channel.
  ws.walk_hops.resize(hops);
  std::size_t states = 0;
  bool two_state = true;
  for (std::size_t h = 0; h < hops; ++h) {
    WalkHop& hop = ws.walk_hops[h];
    const link::ChannelModel* channel = links.channel_model(h);
    hop.channel =
        channel != nullptr && channel->state_count() > 1 ? channel : nullptr;
    hop.states = hop.channel != nullptr ? hop.channel->state_count() : 1;
    hop.offset = states;
    states += hop.states;
    two_state = two_state && hop.states == 2;
  }
  const bool enlarged = states > hops;

  // The block width, chosen once per walk from the hops' state counts.
  result.diagnostics = SolverDiagnostics{};
  if (!enlarged)
    walk_firings<1>(config_, opportunities_, links, fault, ws, result,
                    sensitivity);
  else if (two_state)
    walk_firings<2>(config_, opportunities_, links, fault, ws, result,
                    sensitivity);
  else
    walk_firings<0>(config_, opportunities_, links, fault, ws, result,
                    sensitivity);

  SolverDiagnostics& diagnostics = result.diagnostics;
  diagnostics.dtmc_states = enlarged ? states + 2 : state_count();
  diagnostics.transient_states = enlarged ? states : transient_count_;
  diagnostics.absorbing_states =
      enlarged ? 2 : std::size_t{config_.reporting_interval} + 1;
  diagnostics.forward_steps = config_.horizon();
  const double goal_mass =
      std::accumulate(result.cycle_probabilities.begin(),
                      result.cycle_probabilities.end(), 0.0);
  diagnostics.mass_residual =
      std::abs(1.0 - goal_mass - result.discard_probability);
  WHART_COUNT("hart.path_solve.count");
  if (enlarged) WHART_COUNT("hart.path_solve.channel");
  WHART_OBSERVE("hart.path_solve.states", diagnostics.dtmc_states);
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
