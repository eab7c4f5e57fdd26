#include "whart/verify/reference_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "whart/common/contracts.hpp"
#include "whart/phy/frame.hpp"

namespace whart::verify {

namespace {

/// Independent reimplementation of the schedule lookup: which hop (if
/// any) has a transmission opportunity in global uplink slot `slot`
/// (1-based, counted across cycles).  Returns hops when none does.
std::size_t firing_hop(const hart::PathModelConfig& config,
                       std::uint32_t slot) {
  const std::uint32_t in_frame =
      ((slot - 1) % config.superframe.uplink_slots) + 1;
  for (std::size_t h = 0; h < config.hop_slots.size(); ++h)
    if (config.hop_slots[h] == in_frame) return h;
  for (std::size_t h = 0; h < config.retry_slots.size(); ++h)
    if (config.retry_slots[h] != 0 && config.retry_slots[h] == in_frame)
      return h;
  return config.hop_slots.size();
}

/// Paper Eqs. 6-11 from the absorbed masses, straight-line (shared by
/// the availability and channel solvers — identical formulas).
void finish_measures(const hart::PathModelConfig& config,
                     ReferenceResult& result) {
  const std::uint32_t cycles = config.reporting_interval;
  for (std::uint32_t i = 0; i < cycles; ++i)      // Eq. 6
    result.reachability += result.cycle_probabilities[i];

  const double cycle_ms = config.superframe.cycle_milliseconds();
  for (std::uint32_t i = 0; i < cycles; ++i) {
    const double d_i =                            // Eq. 7
        config.gateway_slot() * phy::kSlotMilliseconds + i * cycle_ms;
    result.delays_ms.push_back(d_i);
    const double tau_i =                          // Eq. 8
        result.reachability > 0.0
            ? result.cycle_probabilities[i] / result.reachability
            : 0.0;
    result.delay_distribution.push_back(tau_i);
    result.expected_delay_ms += d_i * tau_i;      // Eq. 9
  }

  result.utilization =                            // Eq. 10
      result.expected_transmissions /
      (static_cast<double>(cycles) * config.superframe.uplink_slots);
  result.expected_intervals_to_first_loss =       // Eq. 11
      1.0 - result.reachability > 0.0
          ? 1.0 / (1.0 - result.reachability)
          : std::numeric_limits<double>::infinity();

  double second_moment = 0.0;
  for (std::uint32_t i = 0; i < cycles; ++i)
    second_moment += result.delays_ms[i] * result.delays_ms[i] *
                     result.delay_distribution[i];
  const double variance =
      second_moment - result.expected_delay_ms * result.expected_delay_ms;
  result.delay_jitter_ms = variance > 0.0 ? std::sqrt(variance) : 0.0;
}

}  // namespace

ReferenceResult reference_solve(const hart::PathModelConfig& config,
                                const std::vector<double>& availabilities) {
  const std::size_t hops = config.hop_count();
  expects(availabilities.size() >= hops, "one availability per hop");
  return reference_solve(
      config, hart::SteadyStateLinks(std::vector<double>(
                  availabilities.begin(), availabilities.begin() + hops)));
}

ReferenceResult reference_solve(const hart::PathModelConfig& config,
                                const hart::LinkProbabilityProvider& links) {
  const std::size_t hops = config.hop_count();
  expects(hops >= 1, "at least one hop");
  expects(links.hop_count() >= hops, "one provider entry per hop");

  const std::uint32_t horizon = config.horizon();
  const std::uint32_t ttl = config.effective_ttl();
  const std::uint32_t cycles = config.reporting_interval;

  // Full rectangular grid: state (t, h) -> t * hops + h for t in
  // [0, ttl), then Is goal states, then Discard.  No reachability
  // pruning — unreachable states simply keep probability zero.
  const std::size_t num_transient = static_cast<std::size_t>(ttl) * hops;
  const std::size_t n = num_transient + cycles + 1;
  const auto grid = [&](std::uint32_t t, std::size_t h) {
    return static_cast<std::size_t>(t) * hops + h;
  };
  const auto goal = [&](std::uint32_t cycle_0based) {
    return num_transient + cycle_0based;
  };
  const std::size_t discard = n - 1;

  // Dense row-major one-step matrix.  The chain is layered in t, so one
  // time-homogeneous matrix covers the whole horizon.
  std::vector<double> matrix(n * n, 0.0);
  const auto at = [&](std::size_t row, std::size_t col) -> double& {
    return matrix[row * n + col];
  };
  for (std::uint32_t t = 0; t < ttl; ++t) {
    const std::uint32_t slot = t + 1;  // transition t -> t+1 is slot t+1
    const std::size_t firing = firing_hop(config, slot);
    const bool expires = slot == ttl;
    for (std::size_t h = 0; h < hops; ++h) {
      const std::size_t from = grid(t, h);
      const std::size_t stay = expires ? discard : grid(t + 1, h);
      if (firing == h) {
        const double ps = links.up_probability(
            h, config.superframe.absolute_slot_of_uplink(slot));
        expects(ps >= 0.0 && ps <= 1.0, "success probability in [0, 1]");
        const std::size_t advance =
            h + 1 == hops
                ? goal((slot - 1) / config.superframe.uplink_slots)
                : (expires ? discard : grid(t + 1, h + 1));
        at(from, advance) += ps;
        at(from, stay) += 1.0 - ps;
      } else {
        at(from, stay) += 1.0;
      }
    }
  }
  for (std::uint32_t i = 0; i < cycles; ++i) at(goal(i), goal(i)) = 1.0;
  at(discard, discard) = 1.0;

  // Backward pass for delivered-message attempt accounting:
  // beta[s] = P(eventual absorption in any goal | state s), computed by
  // iterating beta <- P beta from the absorbing boundary.  The chain is
  // layered, so ttl iterations reach the exact fixpoint.
  std::vector<double> beta(n, 0.0);
  for (std::uint32_t i = 0; i < cycles; ++i) beta[goal(i)] = 1.0;
  for (std::uint32_t iter = 0; iter < ttl; ++iter) {
    std::vector<double> next(n, 0.0);
    for (std::size_t row = 0; row < n; ++row) {
      double sum = 0.0;
      for (std::size_t col = 0; col < n; ++col)
        sum += at(row, col) * beta[col];
      next[row] = sum;
    }
    for (std::uint32_t i = 0; i < cycles; ++i) next[goal(i)] = 1.0;
    next[discard] = 0.0;
    beta = std::move(next);
  }

  ReferenceResult result;
  result.state_count = n;
  result.cycle_probabilities.assign(cycles, 0.0);
  result.expected_transmissions_per_hop.assign(hops, 0.0);

  // Forward pass: dense vector-matrix products, one per uplink slot.
  std::vector<double> dist(n, 0.0);
  dist[grid(0, 0)] = 1.0;
  for (std::uint32_t slot = 1; slot <= horizon; ++slot) {
    if (slot <= ttl) {
      const std::size_t firing = firing_hop(config, slot);
      if (firing < hops) {
        const double mass = dist[grid(slot - 1, firing)];
        result.expected_transmissions += mass;
        result.expected_transmissions_per_hop[firing] += mass;
        result.expected_transmissions_delivered +=
            mass * beta[grid(slot - 1, firing)];
      }
    }
    std::vector<double> next(n, 0.0);
    for (std::size_t row = 0; row < n; ++row) {
      const double mass = dist[row];
      if (mass == 0.0) continue;
      for (std::size_t col = 0; col < n; ++col)
        next[col] += mass * at(row, col);
    }
    dist = std::move(next);
  }

  for (std::uint32_t i = 0; i < cycles; ++i)
    result.cycle_probabilities[i] = dist[goal(i)];
  result.discard_probability = dist[discard];

  finish_measures(config, result);
  return result;
}

ReferenceResult reference_solve_channel(
    const hart::PathModelConfig& config,
    const std::vector<link::ChannelModel>& channels) {
  const std::size_t hops = config.hop_count();
  expects(hops >= 1, "at least one hop");
  expects(channels.size() >= hops, "one channel per hop");

  const std::uint32_t ttl = config.effective_ttl();
  const std::uint32_t cycles = config.reporting_interval;
  const std::uint32_t fup = config.superframe.uplink_slots;
  const std::uint32_t cycle_slots = config.superframe.cycle_slots();

  // Per-hop channel block offsets inside one uplink layer.
  std::vector<std::size_t> off(hops, 0);
  std::size_t layer = 0;
  for (std::size_t h = 0; h < hops; ++h) {
    off[h] = layer;
    layer += channels[h].state_count();
  }

  // Grid: (t, h, s) -> t * layer + off[h] + s for uplink layer t in
  // [0, ttl), then Is goal states, then Discard.
  const std::size_t num_transient = static_cast<std::size_t>(ttl) * layer;
  const std::size_t n = num_transient + cycles + 1;
  const auto grid = [&](std::uint32_t t, std::size_t h, std::size_t s) {
    return static_cast<std::size_t>(t) * layer + off[h] + s;
  };
  const auto goal = [&](std::uint32_t cycle_0based) {
    return num_transient + cycle_0based;
  };
  const std::size_t discard = n - 1;

  // One matrix per uplink position, reused every cycle, plus one for
  // every downlink slot: the uplink layer t encodes the global slot t + 1
  // (and hence the goal cycle and the TTL expiry), so the matrices are
  // frame-position-homogeneous.  Uplink position f advances exactly the
  // layers t with t % Fup == f; a downlink slot only mixes every hop's
  // channel in place.  Each matrix is its list of (row, column, value)
  // entries; rows without entries never carry mass.
  struct Entry {
    std::size_t row;
    std::size_t col;
    double value;
  };
  std::vector<std::vector<Entry>> matrices(fup + 1);
  const auto matrix_of = [&](std::uint32_t position) -> std::vector<Entry>& {
    return matrices[std::min(position, fup)];
  };
  for (std::uint32_t f = 0; f <= fup; ++f) {
    std::vector<Entry>& m = matrices[f];
    const auto add = [&](std::size_t row, std::size_t col, double value) {
      m.push_back({row, col, value});
    };
    for (std::uint32_t i = 0; i < cycles; ++i) add(goal(i), goal(i), 1.0);
    add(discard, discard, 1.0);
    if (f == fup) {  // downlink: channel mixing on every layer
      for (std::uint32_t t = 0; t < ttl; ++t)
        for (std::size_t h = 0; h < hops; ++h)
          for (std::size_t s = 0; s < channels[h].state_count(); ++s)
            for (std::size_t s2 = 0; s2 < channels[h].state_count(); ++s2)
              add(grid(t, h, s), grid(t, h, s2),
                  channels[h].transition(s, s2));
      continue;
    }
    for (std::uint32_t t = f; t < ttl; t += fup) {
      const std::uint32_t slot = t + 1;
      const std::size_t firing = firing_hop(config, slot);
      const bool expires = slot == ttl;
      for (std::size_t h = 0; h < hops; ++h) {
        const std::size_t k = channels[h].state_count();
        for (std::size_t s = 0; s < k; ++s) {
          const std::size_t from = grid(t, h, s);
          // Channel-mixed "stay at hop h" target (or Discard on expiry).
          const auto stay_mass = [&](double mass) {
            if (expires) {
              add(from, discard, mass);
              return;
            }
            for (std::size_t s2 = 0; s2 < k; ++s2)
              add(from, grid(t + 1, h, s2),
                  mass * channels[h].transition(s, s2));
          };
          if (firing != h) {
            stay_mass(1.0);
            continue;
          }
          const double ps = channels[h].success_in_state(s);
          if (h + 1 == hops) {
            add(from, goal((slot - 1) / fup), ps);
          } else if (expires) {
            add(from, discard, ps);
          } else {
            // The next hop's independent stationary chain is a fresh
            // draw at arrival.
            for (std::size_t s2 = 0; s2 < channels[h + 1].state_count();
                 ++s2)
              add(from, grid(t + 1, h + 1, s2),
                  ps * channels[h + 1].stationary()[s2]);
          }
          stay_mass(1.0 - ps);
        }
      }
    }
  }

  ReferenceResult result;
  result.state_count = n;
  result.cycle_probabilities.assign(cycles, 0.0);
  result.expected_transmissions_per_hop.assign(hops, 0.0);

  // Stored backward pass over every absolute slot: v[a] = P(eventual
  // goal | state before the matrix of absolute slot a).  Goal rows are
  // self-loops, so no re-pinning is needed.
  const std::size_t total_abs =
      static_cast<std::size_t>(cycles) * cycle_slots;
  std::vector<std::vector<double>> v(total_abs + 1,
                                     std::vector<double>(n, 0.0));
  for (std::uint32_t i = 0; i < cycles; ++i) v[total_abs][goal(i)] = 1.0;
  for (std::size_t a = total_abs; a-- > 0;)
    for (const Entry& e :
         matrix_of(static_cast<std::uint32_t>(a % cycle_slots)))
      v[a][e.row] += e.value * v[a + 1][e.col];

  // Forward pass over every absolute slot of the interval.
  std::vector<double> dist(n, 0.0);
  for (std::size_t s = 0; s < channels[0].state_count(); ++s)
    dist[grid(0, 0, s)] = channels[0].stationary()[s];
  for (std::size_t a = 0; a < total_abs; ++a) {
    const std::uint32_t f = static_cast<std::uint32_t>(a % cycle_slots);
    if (f < fup) {
      const std::uint32_t slot =
          static_cast<std::uint32_t>(a / cycle_slots) * fup + f + 1;
      if (slot <= ttl) {
        const std::size_t firing = firing_hop(config, slot);
        if (firing < hops) {
          for (std::size_t s = 0; s < channels[firing].state_count(); ++s) {
            const double mass = dist[grid(slot - 1, firing, s)];
            result.expected_transmissions += mass;
            result.expected_transmissions_per_hop[firing] += mass;
            result.expected_transmissions_delivered +=
                mass * v[a][grid(slot - 1, firing, s)];
          }
        }
      }
    }
    std::vector<double> next(n, 0.0);
    for (const Entry& e : matrix_of(f))
      next[e.col] += dist[e.row] * e.value;
    dist = std::move(next);
  }

  for (std::uint32_t i = 0; i < cycles; ++i)
    result.cycle_probabilities[i] = dist[goal(i)];
  result.discard_probability = dist[discard];

  finish_measures(config, result);
  return result;
}

}  // namespace whart::verify
