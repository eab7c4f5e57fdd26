#include "whart/hart/path_model.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/linalg/simd.hpp"
#include "whart/markov/superframe_kernel.hpp"

namespace whart::hart {

namespace {
constexpr std::uint32_t kNoOpportunity =
    std::numeric_limits<std::uint32_t>::max();
}

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
  for (net::SlotNumber s : config_.hop_slots)
    expects(s >= 1 && s <= config_.superframe.uplink_slots,
            "hop slots lie within the uplink frame");
  expects(config_.retry_slots.empty() ||
              config_.retry_slots.size() == config_.hop_slots.size(),
          "retry_slots empty or one entry per hop");
  std::vector<net::SlotNumber> sorted = config_.hop_slots;
  for (net::SlotNumber s : config_.retry_slots) {
    if (s == 0) continue;  // no retry slot for this hop
    expects(s >= 1 && s <= config_.superframe.uplink_slots,
            "retry slots lie within the uplink frame");
    sorted.push_back(s);
  }
  std::sort(sorted.begin(), sorted.end());
  expects(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
          "each transmission opportunity has its own dedicated slot");

  // Firing table: mark each in-frame slot with the hop it carries, then
  // renumber the marked slots as opportunities in slot order.  A hop slot
  // and a retry slot never coincide (checked above), so each slot names
  // at most one hop.
  const std::uint32_t frame = config_.superframe.uplink_slots;
  const std::size_t hops = config_.hop_count();
  opportunity_of_slot_.assign(frame, kNoOpportunity);
  for (std::size_t h = 0; h < hops; ++h)
    opportunity_of_slot_[config_.hop_slots[h] - 1] =
        static_cast<std::uint32_t>(h);
  for (std::size_t h = 0; h < config_.retry_slots.size(); ++h)
    if (config_.retry_slots[h] != 0)
      opportunity_of_slot_[config_.retry_slots[h] - 1] =
          static_cast<std::uint32_t>(h);
  opportunities_.reserve(sorted.size());
  for (std::uint32_t slot = 1; slot <= frame; ++slot) {
    std::uint32_t& entry = opportunity_of_slot_[slot - 1];
    if (entry == kNoOpportunity) continue;
    opportunities_.push_back({slot, entry});
    entry = static_cast<std::uint32_t>(opportunities_.size() - 1);
  }

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

std::optional<std::size_t> PathModel::hop_in_slot(
    std::uint32_t global_slot) const noexcept {
  const std::uint32_t opportunity =
      opportunity_of_slot_[(global_slot - 1) % config_.superframe.uplink_slots];
  if (opportunity == kNoOpportunity) return std::nullopt;
  return opportunities_[opportunity].hop;
}

PathTransientResult PathModel::analyze(
    const LinkProbabilityProvider& links) const {
  return analyze(links, PathAnalysisOptions{});
}

PathTransientResult PathModel::analyze(
    const LinkProbabilityProvider& links,
    const PathAnalysisOptions& options) const {
  if (channel_enlarged(links, config_.hop_count()))
    return analyze_channel(links, options);
  if (options.kernel == TransientKernel::kSuperframeProduct) {
    if (links.cycle_stationary())
      return analyze_superframe(links, options.inject_product_error);
    WHART_COUNT("hart.path_solve.kernel_fallback");
  }
  return analyze_per_slot(links);
}

PathTransientResult PathModel::analyze_per_slot(
    const LinkProbabilityProvider& links) const {
  SolveWorkspace workspace;
  PathTransientResult result;
  analyze_per_slot_into(links, workspace, result);
  return result;
}

void PathModel::analyze_per_slot_into(const LinkProbabilityProvider& links,
                                      SolveWorkspace& ws,
                                      PathTransientResult& result) const {
  WHART_SPAN("path_solve");
  expects(links.hop_count() >= config_.hop_count(),
          "provider covers every hop");
#ifndef WHART_OBS_DISABLED
  const bool timed = common::obs::metrics_enabled();
  const auto solve_start = timed ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
#endif
  const std::size_t hops = config_.hop_count();
  const std::uint32_t ttl = config_.effective_ttl();
  const std::uint32_t horizon = config_.horizon();

  result.cycle_probabilities.assign(config_.reporting_interval, 0.0);
  result.expected_transmissions_per_hop.assign(hops, 0.0);
  result.discard_probability = 0.0;
  result.expected_transmissions = 0.0;
  result.expected_transmissions_delivered = 0.0;
  result.trajectory_stride = 1;
  result.diagnostics = SolverDiagnostics{};
  result.goal_trajectory.resize(horizon + 1);
  std::size_t trajectory_entry = 0;
  const auto record_trajectory = [&] {
    result.goal_trajectory[trajectory_entry++].assign(
        result.cycle_probabilities.begin(), result.cycle_probabilities.end());
  };
  record_trajectory();

  // Backward pass: beta[t][h] = P(eventual delivery | at (t, h) before
  // slot t+1).  Needed to attribute attempts to delivered messages.
  ws.beta.assign(static_cast<std::size_t>(ttl) * hops, 0.0);
  const auto beta_at = [&](std::uint32_t t, std::size_t h) -> double& {
    return ws.beta[static_cast<std::size_t>(t) * hops + h];
  };
  for (std::uint32_t t = ttl; t-- > 0;) {
    const std::uint32_t slot = t + 1;
    const std::optional<std::size_t> firing = hop_in_slot(slot);
    for (std::size_t h = 0; h < hops; ++h) {
      const double continue_beta = slot == ttl ? 0.0 : beta_at(t + 1, h);
      if (firing == h) {
        const double ps = links.up_probability(
            h, config_.superframe.absolute_slot_of_uplink(slot));
        const double success_beta =
            h + 1 == hops
                ? 1.0
                : (slot == ttl ? 0.0 : beta_at(t + 1, h + 1));
        beta_at(t, h) = ps * success_beta + (1.0 - ps) * continue_beta;
      } else {
        beta_at(t, h) = continue_beta;
      }
    }
  }

  ws.mass.assign(hops, 0.0);
  ws.mass[0] = 1.0;

  for (std::uint32_t slot = 1; slot <= horizon; ++slot) {
    if (slot <= ttl) {
      if (const auto firing = hop_in_slot(slot); firing.has_value()) {
        const std::size_t h = *firing;
        if (ws.mass[h] > 0.0) {
          const double ps = links.up_probability(
              h, config_.superframe.absolute_slot_of_uplink(slot));
          result.expected_transmissions += ws.mass[h];
          result.expected_transmissions_per_hop[h] += ws.mass[h];
          result.expected_transmissions_delivered +=
              ws.mass[h] * beta_at(slot - 1, h);
          const double moved = ws.mass[h] * ps;
          ws.mass[h] -= moved;
          if (h + 1 == hops) {
            const std::uint32_t cycle =
                (slot - 1) / config_.superframe.uplink_slots;  // 0-based
            result.cycle_probabilities[cycle] += moved;
          } else {
            ws.mass[h + 1] += moved;
          }
        }
      }
      if (slot == ttl) {
        // TTL expired: every in-flight message is discarded.
        for (double& m : ws.mass) {
          result.discard_probability += m;
          m = 0.0;
        }
      }
    }
    record_trajectory();
  }

  result.diagnostics.dtmc_states = state_count();
  result.diagnostics.transient_states = transient_count_;
  result.diagnostics.absorbing_states = config_.reporting_interval + 1;
  result.diagnostics.forward_steps = horizon;
  const double goal_mass =
      std::accumulate(result.cycle_probabilities.begin(),
                      result.cycle_probabilities.end(), 0.0);
  result.diagnostics.mass_residual =
      std::abs(1.0 - goal_mass - result.discard_probability);
  WHART_COUNT("hart.path_solve.count");
  WHART_OBSERVE("hart.path_solve.states", state_count());
  WHART_EVENT(kSolveDone, "hart.path_solve", state_count(), 0);
#ifndef WHART_OBS_DISABLED
  if (timed) {
    const auto elapsed = std::chrono::steady_clock::now() - solve_start;
    result.diagnostics.solve_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    WHART_OBSERVE("hart.path_solve.ns", result.diagnostics.solve_ns);
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
  // Fresh build: collapse the opportunity chain through SuperframeKernel,
  // then hand its factors and product to the superframe core at one lane
  // with a throwaway workspace.  Skeleton refills feed the same core, so
  // the two agree bitwise.
  markov::SuperframeKernel kernel(opportunity_matrices(links));
  if (inject != 0.0) kernel.perturb_product_entry(0, 0, inject);
  const auto operand = [](const linalg::CsrMatrix& m) {
    return LaneCsr{m.row_start().data(), m.col_index().data(),
                   m.values().data()};
  };
  SolveWorkspace workspace;
  for (std::size_t i = 0; i < opportunities_.size(); ++i) {
    const Opportunity& o = opportunities_[i];
    workspace.factor_operands.push_back(operand(kernel.slot_matrix(i)));
    workspace.ps.push_back(links.up_probability(
        o.hop, config_.superframe.absolute_slot_of_uplink(o.slot)));
  }
  PathTransientResult result;
  PathTransientResult* const lane = &result;
  analyze_superframe_batch_into(workspace.factor_operands,
                                operand(kernel.cycle_product()), workspace,
                                {&lane, 1});
  return result;
}

void PathModel::analyze_superframe_batch_into(
    std::span<const LaneCsr> factors, const LaneCsr& product,
    SolveWorkspace& ws, std::span<PathTransientResult* const> results) const {
  // Common batch widths run the fixed-width instantiation (flat-unrolled
  // lane loops); anything else takes the runtime-width one.  Same
  // arithmetic either way — the dispatch only changes code generation.
  switch (results.size()) {
    case 1:
      analyze_superframe_batch_lanes<1>(factors, product, ws, results);
      break;
    case 4:
      analyze_superframe_batch_lanes<4>(factors, product, ws, results);
      break;
    case 8:
      analyze_superframe_batch_lanes<8>(factors, product, ws, results);
      break;
    case 16:
      analyze_superframe_batch_lanes<16>(factors, product, ws, results);
      break;
    default:
      analyze_superframe_batch_lanes<0>(factors, product, ws, results);
      break;
  }
}

template <std::size_t kLanes>
void PathModel::analyze_superframe_batch_lanes(
    std::span<const LaneCsr> factors, const LaneCsr& product,
    SolveWorkspace& ws, std::span<PathTransientResult* const> results) const {
  WHART_SPAN("path_solve");
  namespace simd = linalg::simd;
  const std::size_t lanes = kLanes == 0 ? results.size() : kLanes;
  expects(lanes >= 1, "at least one lane");
  expects(factors.size() == opportunities_.size(),
          "one chain factor per transmission opportunity");
  expects(ws.ps.size() == opportunities_.size() * lanes,
          "one success probability per opportunity per lane");
#ifndef WHART_OBS_DISABLED
  const bool timed = common::obs::metrics_enabled();
  const auto solve_start = timed ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
#endif
  const std::size_t hops = config_.hop_count();
  const std::size_t dim = hops + 2;
  const std::size_t goal = hops;
  const std::uint32_t frame = config_.superframe.uplink_slots;
  const std::uint32_t ttl = config_.effective_ttl();
  const std::uint32_t interval = config_.reporting_interval;
  const std::uint32_t horizon = config_.horizon();

  // One-cycle accounting matrices from a dense prefix/suffix sweep over
  // the transmission opportunities (identity slots leave both unchanged),
  // each entry widened to a lane array.
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
  ws.prefix.assign(dim * dim * lanes, 0.0);
  for (std::size_t i = 0; i < dim; ++i)
    simd::fill(ws.prefix.data() + (i * dim + i) * lanes, 1.0, lanes);
  ws.prefix_next.assign(dim * dim * lanes, 0.0);
  ws.attempts.assign(dim * hops * lanes, 0.0);
  ws.prefix_columns.resize(opportunities_.size() * dim * lanes);
  for (std::size_t i = 0; i < opportunities_.size(); ++i) {
    const std::size_t hop = opportunities_[i].hop;
    double* column = ws.prefix_columns.data() + i * dim * lanes;
    for (std::size_t r = 0; r < dim; ++r) {
      simd::copy(column + r * lanes,
                 ws.prefix.data() + (r * dim + hop) * lanes, lanes);
      simd::add(ws.attempts.data() + (r * hops + hop) * lanes,
                column + r * lanes, lanes);
    }
    // prefix <- prefix * M_i: the arithmetic of left_multiply_batch_into
    // (accumulation ascending over the factor's rows), lane-wide.
    const LaneCsr& step = factors[i];
    simd::fill(ws.prefix_next.data(), 0.0, dim * dim * lanes);
    for (std::size_t k = 0; k < dim; ++k)
      for (std::size_t idx = step.row_start[k]; idx < step.row_start[k + 1];
           ++idx) {
        const std::size_t c = step.col_index[idx];
        const double* value = step.values + idx * lanes;
        for (std::size_t r = 0; r < dim; ++r)
          simd::mul_add(ws.prefix_next.data() + (r * dim + c) * lanes,
                        ws.prefix.data() + (r * dim + k) * lanes, value,
                        lanes);
      }
    std::swap(ws.prefix, ws.prefix_next);
  }

  ws.delivered_kernel.assign(dim * dim * lanes, 0.0);
  ws.suffix.assign(dim * dim * lanes, 0.0);
  for (std::size_t i = 0; i < dim; ++i)
    simd::fill(ws.suffix.data() + (i * dim + i) * lanes, 1.0, lanes);
  ws.suffix_next.assign(dim * dim * lanes, 0.0);
  for (std::size_t i = opportunities_.size(); i-- > 0;) {
    const std::size_t hop = opportunities_[i].hop;
    const LaneCsr& step = factors[i];
    simd::fill(ws.suffix_next.data(), 0.0, dim * dim * lanes);
    for (std::size_t r = 0; r < dim; ++r)
      for (std::size_t idx = step.row_start[r]; idx < step.row_start[r + 1];
           ++idx) {
        const std::size_t k = step.col_index[idx];
        const double* value = step.values + idx * lanes;
        for (std::size_t c = 0; c < dim; ++c)
          simd::mul_add(ws.suffix_next.data() + (r * dim + c) * lanes, value,
                        ws.suffix.data() + (k * dim + c) * lanes, lanes);
      }
    std::swap(ws.suffix, ws.suffix_next);
    const double* column = ws.prefix_columns.data() + i * dim * lanes;
    for (std::size_t r = 0; r < dim; ++r)
      for (std::size_t c = 0; c < dim; ++c)
        simd::mul_add(ws.delivered_kernel.data() + (r * dim + c) * lanes,
                      column + r * lanes,
                      ws.suffix.data() + (hop * dim + c) * lanes, lanes);
  }

  for (PathTransientResult* result : results) {
    result->cycle_probabilities.assign(interval, 0.0);
    result->expected_transmissions_per_hop.assign(hops, 0.0);
    result->discard_probability = 0.0;
    result->expected_transmissions = 0.0;
    result->expected_transmissions_delivered = 0.0;
    result->trajectory_stride = frame;
    result->diagnostics = SolverDiagnostics{};
    result->goal_trajectory.resize(interval + 1);
  }
  std::size_t trajectory_entry = 0;
  const auto record_trajectory = [&] {
    for (PathTransientResult* result : results)
      result->goal_trajectory[trajectory_entry].assign(
          result->cycle_probabilities.begin(),
          result->cycle_probabilities.end());
    ++trajectory_entry;
  };
  record_trajectory();

  ws.p.assign(dim * lanes, 0.0);
  simd::fill(ws.p.data(), 1.0, lanes);
  ws.p_next.assign(dim * lanes, 0.0);
  ws.lane_scratch.assign(lanes, 0.0);
  ws.goal_seen.assign(lanes, 0.0);
  for (std::uint32_t cycle = 0; cycle < interval; ++cycle) {
    if (static_cast<std::uint64_t>(cycle + 1) * frame <= ttl) {
      // Full pre-TTL cycle: attempts via the accounting matrix, then one
      // product advance in place of `frame` per-slot steps.
      for (std::size_t h = 0; h < hops; ++h) {
        simd::fill(ws.lane_scratch.data(), 0.0, lanes);
        for (std::size_t x = 0; x < dim; ++x)
          simd::mul_add(ws.lane_scratch.data(), ws.p.data() + x * lanes,
                        ws.attempts.data() + (x * hops + h) * lanes, lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
          results[l]->expected_transmissions_per_hop[h] += ws.lane_scratch[l];
          results[l]->expected_transmissions += ws.lane_scratch[l];
        }
      }
      // p <- p^T * product.  Every row is visited: lanes cannot branch
      // independently, and a row with p[r] == 0 contributes exact zeros.
      simd::fill(ws.p_next.data(), 0.0, dim * lanes);
      for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t idx = product.row_start[r];
             idx < product.row_start[r + 1]; ++idx)
          simd::mul_add(ws.p_next.data() + product.col_index[idx] * lanes,
                        ws.p.data() + r * lanes,
                        product.values + idx * lanes, lanes);
      std::swap(ws.p, ws.p_next);
    } else if (cycle * frame < ttl) {
      // The cycle the TTL cuts through fires its opportunities one by one
      // so the discard lands on the exact slot; cycles past the TTL fall
      // straight through.
      for (std::size_t i = 0; i < opportunities_.size(); ++i) {
        if (cycle * frame + opportunities_[i].slot > ttl) break;
        const double* ps_lanes = ws.ps.data() + i * lanes;
        const std::size_t h = opportunities_[i].hop;
        const std::size_t target = h + 1 == hops ? goal : h + 1;
        for (std::size_t l = 0; l < lanes; ++l) {
          const double ph = ws.p[h * lanes + l];
          results[l]->expected_transmissions += ph;
          results[l]->expected_transmissions_per_hop[h] += ph;
          const double moved = ph * ps_lanes[l];
          ws.p[h * lanes + l] -= moved;
          ws.p[target * lanes + l] += moved;
        }
      }
      for (std::size_t h = 0; h < hops; ++h)
        for (std::size_t l = 0; l < lanes; ++l) {
          results[l]->discard_probability += ws.p[h * lanes + l];
          ws.p[h * lanes + l] = 0.0;
        }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      results[l]->cycle_probabilities[cycle] =
          ws.p[goal * lanes + l] - ws.goal_seen[l];
      ws.goal_seen[l] = ws.p[goal * lanes + l];
    }
    record_trajectory();
  }
  // When the TTL coincides with a product-advanced cycle boundary the
  // expired mass never passed a per-slot discard; sweep it now.
  for (std::size_t h = 0; h < hops; ++h)
    for (std::size_t l = 0; l < lanes; ++l) {
      results[l]->discard_probability += ws.p[h * lanes + l];
      ws.p[h * lanes + l] = 0.0;
    }

  // Delivered-attempt accounting, folded backward cycle-by-cycle.  b
  // starts as the goal indicator at the TTL slot (transient mass there is
  // lost, so its delivery probability is already 0); the TTL cycle runs
  // per-slot, every earlier cycle collapses through K and the product.
  {
    WHART_TIMER("hart.stage.tail_solve.ns");
    ws.b.assign(dim * lanes, 0.0);
    simd::fill(ws.b.data() + goal * lanes, 1.0, lanes);
    ws.u.assign(dim * lanes, 0.0);
    const std::uint32_t ttl_cycle = (ttl - 1) / frame;  // 0-based
    for (std::size_t i = opportunities_.size(); i-- > 0;) {
      if (ttl_cycle * frame + opportunities_[i].slot > ttl) continue;
      const double* ps_lanes = ws.ps.data() + i * lanes;
      const std::size_t h = opportunities_[i].hop;
      const std::size_t target = h + 1 == hops ? goal : h + 1;
      for (std::size_t l = 0; l < lanes; ++l) {
        const double ps = ps_lanes[l];
        const double b_before = ps * ws.b[target * lanes + l] +
                                (1.0 - ps) * ws.b[h * lanes + l];
        ws.u[h * lanes + l] = ps * ws.u[target * lanes + l] +
                              (1.0 - ps) * ws.u[h * lanes + l] + b_before;
        ws.b[h * lanes + l] = b_before;
      }
    }
    ws.u_next.assign(dim * lanes, 0.0);
    ws.b_next.assign(dim * lanes, 0.0);
    for (std::uint32_t cycle = ttl_cycle; cycle-- > 0;) {
      simd::fill(ws.u_next.data(), 0.0, dim * lanes);
      simd::fill(ws.b_next.data(), 0.0, dim * lanes);
      for (std::size_t r = 0; r < dim; ++r) {
        simd::fill(ws.lane_scratch.data(), 0.0, lanes);
        for (std::size_t c = 0; c < dim; ++c)
          simd::mul_add(ws.lane_scratch.data(),
                        ws.delivered_kernel.data() + (r * dim + c) * lanes,
                        ws.b.data() + c * lanes, lanes);
        simd::copy(ws.u_next.data() + r * lanes, ws.lane_scratch.data(),
                   lanes);
      }
      for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t idx = product.row_start[r];
             idx < product.row_start[r + 1]; ++idx) {
          const std::size_t c = product.col_index[idx];
          const double* value = product.values + idx * lanes;
          simd::mul_add(ws.u_next.data() + r * lanes, value,
                        ws.u.data() + c * lanes, lanes);
          simd::mul_add(ws.b_next.data() + r * lanes, value,
                        ws.b.data() + c * lanes, lanes);
        }
      std::swap(ws.u, ws.u_next);
      std::swap(ws.b, ws.b_next);
    }
    for (std::size_t l = 0; l < lanes; ++l)
      results[l]->expected_transmissions_delivered = ws.u[l];
  }

  for (PathTransientResult* result : results) {
    result->diagnostics.dtmc_states = dim;
    result->diagnostics.transient_states = hops;
    result->diagnostics.absorbing_states = 2;
    result->diagnostics.forward_steps = horizon;
    result->diagnostics.kernel = TransientKernel::kSuperframeProduct;
    const double goal_mass =
        std::accumulate(result->cycle_probabilities.begin(),
                        result->cycle_probabilities.end(), 0.0);
    result->diagnostics.mass_residual =
        std::abs(1.0 - goal_mass - result->discard_probability);
  }
  WHART_COUNT_N("hart.path_solve.count", lanes);
  WHART_COUNT_N("hart.path_solve.superframe", lanes);
  WHART_OBSERVE("hart.path_solve.states", dim);
  WHART_EVENT(kSolveDone, "hart.path_solve", dim, 0);
#ifndef WHART_OBS_DISABLED
  if (timed) {
    const auto elapsed = std::chrono::steady_clock::now() - solve_start;
    const auto total_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    // Each lane's reported solve time is its amortized share of the batch.
    for (PathTransientResult* result : results)
      result->diagnostics.solve_ns = total_ns / lanes;
    WHART_OBSERVE("hart.path_solve.ns", total_ns);
  }
#endif
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

  // Transient states and their outgoing transitions, t-major: state
  // (t, h) is number layer_start + h.
  std::size_t layer_start = 0;
  std::size_t width = layer_width(0, 0);
  for (std::uint32_t t = 0; t < ttl; ++t) {
    const std::uint32_t slot = t + 1;
    const std::optional<std::size_t> firing = hop_in_slot(slot);
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
                ? goal_index((slot - 1) / config_.superframe.uplink_slots)
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

namespace {

/// Verification-harness adapter: `inject_stale_skeleton` biases hop 0's
/// success probability, emulating a refill that wrote stale values into
/// the skeleton's structures.  Only the skeleton path applies it (the
/// refill gather through `bias`, the per-slot route through this
/// wrapper), so fresh and refilled solves diverge and the differential
/// oracle's refill arm must notice.
class StaleLinks final : public LinkProbabilityProvider {
 public:
  StaleLinks(const LinkProbabilityProvider& base, double delta) noexcept
      : base_(base), delta_(delta) {}

  [[nodiscard]] static double bias(double p, std::size_t hop,
                                   double delta) noexcept {
    return hop == 0 && delta != 0.0 ? std::clamp(p + delta, 0.0, 1.0) : p;
  }

  [[nodiscard]] double up_probability(
      std::size_t hop, std::uint64_t absolute_slot) const override {
    return bias(base_.up_probability(hop, absolute_slot), hop, delta_);
  }
  [[nodiscard]] std::size_t hop_count() const override {
    return base_.hop_count();
  }
  [[nodiscard]] bool cycle_stationary() const override {
    return base_.cycle_stationary();
  }

 private:
  const LinkProbabilityProvider& base_;
  double delta_;
};

/// Stage-attribution clock for the skeleton constructor: the symbolic
/// build spends its time in the member-initializer list, so the start
/// timestamp is taken while the first member initializes and the
/// elapsed time is observed at the end of the constructor body.
thread_local std::chrono::steady_clock::time_point g_skeleton_build_start;

PathModelConfig mark_skeleton_build(PathModelConfig config) {
  g_skeleton_build_start = std::chrono::steady_clock::now();
  return config;
}

/// Generic-probability factor patterns: any ps strictly inside (0, 1)
/// yields the full two-entries-per-firing-row sparsity.
std::vector<markov::CsrPattern> capture_factor_patterns(
    const PathModel& model) {
  const SteadyStateLinks generic(
      std::vector<double>(model.config().hop_count(), 0.5));
  const std::vector<linalg::CsrMatrix> factors =
      model.opportunity_matrices(generic);
  std::vector<markov::CsrPattern> patterns;
  patterns.reserve(factors.size());
  for (const linalg::CsrMatrix& m : factors)
    patterns.push_back(markov::CsrPattern::of(m));
  return patterns;
}

}  // namespace

PathModelSkeleton::PathModelSkeleton(PathModelConfig config)
    : model_(mark_skeleton_build(std::move(config))),
      factor_patterns_(capture_factor_patterns(model_)),
      chain_(factor_patterns_) {
  // Provenance: for every transmission opportunity, locate the values
  // indices of the two mutable entries of row `hop` in its factor —
  // (hop, hop) carries 1 - ps and (hop, target) carries ps; target
  // (hop + 1 or Goal) is always a higher column, so both are found by a
  // scan of the sorted row.
  const std::size_t hops = model_.config().hop_count();
  const std::span<const PathModel::Opportunity> opportunities =
      model_.opportunities();
  for (std::size_t i = 0; i < opportunities.size(); ++i) {
    const std::size_t h = opportunities[i].hop;
    const std::size_t target = h + 1 == hops ? hops : h + 1;
    const markov::CsrPattern& pattern = factor_patterns_[i];
    SlotProvenance prov;
    prov.slot = opportunities[i].slot;
    prov.hop = h;
    bool found_failure = false;
    bool found_success = false;
    for (std::size_t k = pattern.row_start[h]; k < pattern.row_start[h + 1];
         ++k) {
      if (pattern.col_index[k] == h) {
        prov.failure_index = k;
        found_failure = true;
      } else if (pattern.col_index[k] == target) {
        prov.success_index = k;
        found_success = true;
      }
    }
    ensures(found_failure && found_success,
            "firing row carries both its success and failure entries");
    provenance_.push_back(prov);
  }
  // Compile the SoA replay plan with the rest of the symbolic phase: the
  // batch refill then walks a flat op list instead of re-deriving the
  // Gustavson bookkeeping on every batch.
  batch_refill_ =
      std::make_unique<const markov::BatchRefill>(chain_, factor_patterns_);
  WHART_COUNT("hart.skeleton.builds");
  WHART_OBSERVE(
      "hart.stage.skeleton_build.ns",
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - g_skeleton_build_start)
              .count()));
}

void PathModelSkeleton::prime(SolveWorkspace& ws, std::size_t lanes) const {
  if (ws.primed && ws.primed_lanes == lanes &&
      ws.primed_config == model_.config())
    return;
  ws.factor_values.resize(factor_patterns_.size());
  for (std::size_t i = 0; i < factor_patterns_.size(); ++i)
    ws.factor_values[i].assign(factor_patterns_[i].nonzeros() * lanes, 1.0);
  ws.product_values.assign(chain_.pattern().nonzeros() * lanes, 0.0);
  ws.ps.assign(provenance_.size() * lanes, 0.0);
  ws.primed = true;
  ws.primed_lanes = lanes;
  ws.primed_config = model_.config();
}

void PathModelSkeleton::solve_refilled(
    SolveWorkspace& ws, std::span<PathTransientResult* const> results) const {
  ws.factor_operands.clear();
  for (std::size_t i = 0; i < factor_patterns_.size(); ++i)
    ws.factor_operands.push_back({factor_patterns_[i].row_start.data(),
                                  factor_patterns_[i].col_index.data(),
                                  ws.factor_values[i].data()});
  const markov::CsrPattern& product = chain_.pattern();
  model_.analyze_superframe_batch_into(
      ws.factor_operands,
      {product.row_start.data(), product.col_index.data(),
       ws.product_values.data()},
      ws, results);
}

void PathModelSkeleton::solve_unrefilled(const LinkProbabilityProvider& links,
                                         const PathAnalysisOptions& options,
                                         SolveWorkspace& ws,
                                         PathTransientResult& result) const {
  if (channel_enlarged(links, config().hop_count())) {
    // The skeleton's patterns describe the compact i.i.d. chain; a
    // multi-state channel enlarges the state space, so refilling cannot
    // reproduce a fresh build — solve fresh through the channel core.
    WHART_COUNT("hart.skeleton.refill_fallback");
    result = model_.analyze(links, options);
    return;
  }
  if (options.kernel == TransientKernel::kSuperframeProduct)
    WHART_COUNT("hart.path_solve.kernel_fallback");
  WHART_COUNT("hart.skeleton.refills");
  const StaleLinks stale(links, options.inject_stale_skeleton);
  model_.analyze_per_slot_into(stale, ws, result);
}

void PathModelSkeleton::refill_and_solve(
    std::span<const LinkProbabilityProvider* const> links,
    const PathAnalysisOptions& options, SolveWorkspace& ws,
    std::span<PathTransientResult* const> results) const {
  const std::size_t lanes = links.size();
  prime(ws, lanes);
  {
    WHART_TIMER("hart.stage.refill.ns");
    // Gather each opportunity's per-lane success probabilities into its
    // factor's value lanes, then replay the cycle-product chain once for
    // all lanes.
    const net::SuperframeConfig& superframe = model_.config().superframe;
    for (std::size_t fi = 0; fi < provenance_.size(); ++fi) {
      const SlotProvenance& prov = provenance_[fi];
      const std::uint64_t slot = superframe.absolute_slot_of_uplink(prov.slot);
      double* ps = ws.ps.data() + fi * lanes;
      std::vector<double>& values = ws.factor_values[fi];
      for (std::size_t l = 0; l < lanes; ++l) {
        ps[l] = StaleLinks::bias(links[l]->up_probability(prov.hop, slot),
                                 prov.hop, options.inject_stale_skeleton);
        values[prov.failure_index * lanes + l] = 1.0 - ps[l];
        values[prov.success_index * lanes + l] = ps[l];
      }
    }
    batch_refill_->refill(ws.factor_values, lanes, ws.chain_arena,
                          ws.product_values);
  }
  WHART_COUNT_N("hart.skeleton.refills", lanes);
  if (lanes > 1) {
    WHART_COUNT("hart.batch.refills");
    WHART_COUNT_N("hart.batch.lanes_filled", lanes);
    if (options.inject_lane_swap) {
      // Verification-harness injection: cross-lane contamination of the
      // refilled product, the signature of a lane-indexing bug.
      for (std::size_t k = 0; k < chain_.pattern().nonzeros(); ++k)
        std::swap(ws.product_values[k * lanes],
                  ws.product_values[k * lanes + 1]);
    }
  }
  solve_refilled(ws, results);
}

void PathModelSkeleton::analyze_into(const LinkProbabilityProvider& links,
                                     const PathAnalysisOptions& options,
                                     SolveWorkspace& ws,
                                     PathTransientResult& result) const {
  expects(links.hop_count() >= config().hop_count(),
          "provider covers every hop");
  if (options.kernel != TransientKernel::kSuperframeProduct ||
      !links.cycle_stationary() ||
      channel_enlarged(links, config().hop_count())) {
    solve_unrefilled(links, options, ws, result);
    return;
  }
  const LinkProbabilityProvider* const lane = &links;
  PathTransientResult* const out = &result;
  refill_and_solve({&lane, 1}, options, ws, {&out, 1});
}

void PathModelSkeleton::analyze_batch_into(
    std::span<const LinkProbabilityProvider* const> links,
    const PathAnalysisOptions& options, SolveWorkspace& ws,
    std::span<PathTransientResult> results) const {
  expects(links.size() == results.size(), "one result per provider");
  ws.lane_links.clear();
  ws.result_ptrs.clear();
  for (std::size_t i = 0; i < links.size(); ++i) {
    expects(links[i]->hop_count() >= config().hop_count(),
            "provider covers every hop");
    if (options.kernel == TransientKernel::kSuperframeProduct &&
        links[i]->cycle_stationary() &&
        !channel_enlarged(*links[i], config().hop_count())) {
      ws.lane_links.push_back(links[i]);
      ws.result_ptrs.push_back(&results[i]);
    } else {
      WHART_COUNT("hart.batch.remainder_points");
      solve_unrefilled(*links[i], options, ws, results[i]);
    }
  }
  if (!ws.lane_links.empty())
    refill_and_solve(ws.lane_links, options, ws, ws.result_ptrs);
}

bool PathModelSkeleton::analyze_incremental_into(
    const LinkProbabilityProvider& links, const PathAnalysisOptions& options,
    std::span<const std::size_t> changed_hops,
    markov::IncrementalProduct& product, SolveWorkspace& ws,
    PathTransientResult& result) const {
  expects(links.hop_count() >= config().hop_count(),
          "provider covers every hop");
  // The incremental path exists only where the cycle product does; every
  // regime analyze_into would route to another core is declined here so
  // the caller's fallback reproduces analyze_into's behavior exactly.
  if (options.kernel != TransientKernel::kSuperframeProduct ||
      !links.cycle_stationary() ||
      channel_enlarged(links, config().hop_count())) {
    WHART_COUNT("hart.whatif.incremental_fallback");
    return false;
  }
  prime(ws, 1);
  {
    WHART_TIMER("hart.stage.incremental_refill.ns");
    // Cold start: write every firing value and seed the partial-value
    // cache with one full replay.  Warm: write the changed hops' values
    // and replay only the product rows they reach.
    const bool seed = !product.seeded();
    const net::SuperframeConfig& superframe = model_.config().superframe;
    for (std::size_t i = 0; i < provenance_.size(); ++i) {
      const SlotProvenance& prov = provenance_[i];
      ws.ps[i] = links.up_probability(
          prov.hop, superframe.absolute_slot_of_uplink(prov.slot));
      if (!seed && std::find(changed_hops.begin(), changed_hops.end(),
                             prov.hop) == changed_hops.end())
        continue;
      prov.write(ws.ps[i], ws.factor_values[i]);
      if (!seed) {
        product.update(i, prov.failure_index);
        product.update(i, prov.success_index);
      }
    }
    if (seed) {
      product.refill(ws.factor_values);
      WHART_COUNT("hart.whatif.seeds");
    } else {
      product.propagate(ws.factor_values);
      WHART_COUNT("hart.whatif.incremental_solves");
    }
    const std::span<const double> values = product.values();
    std::copy(values.begin(), values.end(), ws.product_values.begin());
    if (options.inject_stale_product_row != 0.0) {
      // Emulate a row the targeted re-accumulation failed to replay.
      const markov::CsrPattern& pattern = chain_.pattern();
      for (std::size_t k = pattern.row_start[0]; k < pattern.row_start[1]; ++k)
        ws.product_values[k] += options.inject_stale_product_row;
    }
  }
  PathTransientResult* const out = &result;
  solve_refilled(ws, {&out, 1});
  return true;
}

}  // namespace whart::hart
