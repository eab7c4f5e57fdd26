// Channel-enlarged path solver (DESIGN.md §14).  When any hop carries a
// multi-state link::ChannelModel, the compact message chain ("waiting at
// hop h" + Goal + Discard) is widened so each hop's waiting state splits
// into that hop's channel states: state off[h] + s means "waiting at hop
// h with the channel in state s", off[h] = sum of earlier hops' state
// counts.  Tracking only the *current* hop's channel state is exact:
// per-link chains are independent and started stationary, so the channel
// a message arrives at is a fresh draw from its stationary distribution
// regardless of the message's history.
//
// Two cores mirror the i.i.d. solvers: a per-slot forward pass with a
// stored backward delivery vector (any provider), and the superframe-
// product collapse through markov::SuperframeKernel over the enlarged
// cycle matrices (cycle-stationary providers).  Unlike the i.i.d. chain,
// idle uplink slots and downlink slots are *not* identities here — the
// channel mixes in every 10 ms slot — so the prefix/suffix accounting
// sweeps and the TTL tail advance through every slot matrix of the
// cycle, not just the firing ones.
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>
#include <vector>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/hart/path_model.hpp"
#include "whart/linalg/matrix.hpp"
#include "whart/markov/superframe_kernel.hpp"

namespace whart::hart {

namespace {

/// Block layout of the enlarged chain: per-hop channel pointers (null =
/// per-slot independent, one state), state counts, block offsets.
struct ChannelLayout {
  std::vector<const link::ChannelModel*> channel;
  std::vector<std::size_t> k;
  std::vector<std::size_t> off;
  std::size_t transient = 0;
  std::size_t goal = 0;
  std::size_t discard = 0;
  std::size_t dim = 0;

  /// Stationary probability of state `s` of hop `h` (1 for k = 1 hops).
  [[nodiscard]] double stationary(std::size_t h, std::size_t s) const {
    return channel[h] != nullptr ? channel[h]->stationary()[s] : 1.0;
  }

  /// Channel transition probability s -> s2 on hop `h`.
  [[nodiscard]] double transition(std::size_t h, std::size_t s,
                                  std::size_t s2) const {
    return channel[h] != nullptr ? channel[h]->transition(s, s2) : 1.0;
  }
};

ChannelLayout make_layout(const PathModelConfig& config,
                          const LinkProbabilityProvider& links) {
  const std::size_t hops = config.hop_count();
  ChannelLayout layout;
  layout.channel.resize(hops);
  layout.k.resize(hops);
  layout.off.resize(hops);
  std::size_t offset = 0;
  for (std::size_t h = 0; h < hops; ++h) {
    layout.channel[h] = links.channel_model(h);
    layout.k[h] =
        layout.channel[h] != nullptr ? layout.channel[h]->state_count() : 1;
    layout.off[h] = offset;
    offset += layout.k[h];
  }
  layout.transient = offset;
  layout.goal = offset;
  layout.discard = offset + 1;
  layout.dim = offset + 2;
  return layout;
}

/// Success probability of an attempt on hop `h` in channel state `s`
/// (uplink slot `slot`, frozen from the first cycle like
/// PathModel::opportunity_matrices).
double success_probability(const ChannelLayout& layout,
                           const LinkProbabilityProvider& links,
                           const PathModelConfig& config, std::size_t h,
                           std::size_t s, std::uint32_t slot) {
  if (layout.channel[h] != nullptr)
    return layout.channel[h]->success_in_state(s);
  return links.up_probability(h,
                              config.superframe.absolute_slot_of_uplink(slot));
}

void init_result(PathTransientResult& result, const ChannelLayout& layout,
                 const PathModelConfig& config, std::uint32_t stride,
                 std::size_t trajectory_entries) {
  result.cycle_probabilities.assign(config.reporting_interval, 0.0);
  result.expected_transmissions_per_hop.assign(config.hop_count(), 0.0);
  result.discard_probability = 0.0;
  result.expected_transmissions = 0.0;
  result.expected_transmissions_delivered = 0.0;
  result.trajectory_stride = stride;
  result.diagnostics = SolverDiagnostics{};
  result.goal_trajectory.resize(trajectory_entries);
  result.diagnostics.dtmc_states = layout.dim;
  result.diagnostics.transient_states = layout.transient;
  result.diagnostics.absorbing_states = 2;
  result.diagnostics.forward_steps = config.horizon();
}

void finish_result(PathTransientResult& result) {
  const double goal_mass =
      std::accumulate(result.cycle_probabilities.begin(),
                      result.cycle_probabilities.end(), 0.0);
  result.diagnostics.mass_residual =
      std::abs(1.0 - goal_mass - result.discard_probability);
}

/// p <- p^T M into `next` (the vector-through-CSR advance of the
/// superframe core, over the enlarged dimension).
void advance(const linalg::CsrMatrix& matrix, std::vector<double>& p,
             std::vector<double>& next) {
  std::fill(next.begin(), next.end(), 0.0);
  for (std::size_t r = 0; r < p.size(); ++r) {
    const double xr = p[r];
    if (xr == 0.0) continue;
    matrix.for_each_in_row(
        r, [&](std::size_t c, double v) { next[c] += xr * v; });
  }
  std::swap(p, next);
}

}  // namespace

std::vector<linalg::CsrMatrix> PathModel::channel_slot_matrices(
    const LinkProbabilityProvider& links, bool inject_state_leak) const {
  expects(links.hop_count() >= config_.hop_count(),
          "provider covers every hop");
  const std::size_t hops = config_.hop_count();
  const ChannelLayout layout = make_layout(config_, links);
  std::vector<linalg::CsrMatrix> matrices;
  matrices.reserve(config_.superframe.cycle_slots());

  const auto push_mixing_row = [&](std::vector<linalg::Triplet>& entries,
                                   std::size_t h, std::size_t s) {
    const std::size_t r = layout.off[h] + s;
    for (std::size_t s2 = 0; s2 < layout.k[h]; ++s2) {
      const double v = layout.transition(h, s, s2);
      if (v > 0.0) entries.push_back({r, layout.off[h] + s2, v});
    }
  };

  for (std::uint32_t slot = 1; slot <= config_.superframe.uplink_slots;
       ++slot) {
    const std::optional<std::size_t> firing = hop_in_slot(slot);
    std::vector<linalg::Triplet> entries;
    for (std::size_t h = 0; h < hops; ++h) {
      if (firing != h) {
        for (std::size_t s = 0; s < layout.k[h]; ++s)
          push_mixing_row(entries, h, s);
        continue;
      }
      for (std::size_t s = 0; s < layout.k[h]; ++s) {
        const std::size_t r = layout.off[h] + s;
        const double q =
            success_probability(layout, links, config_, h, s, slot);
        if (q > 0.0) {
          if (h + 1 == hops) {
            entries.push_back({r, layout.goal, q});
          } else {
            for (std::size_t s2 = 0; s2 < layout.k[h + 1]; ++s2) {
              const double v = q * layout.stationary(h + 1, s2);
              if (v > 0.0) entries.push_back({r, layout.off[h + 1] + s2, v});
            }
          }
        }
        if (q < 1.0) {
          for (std::size_t s2 = 0; s2 < layout.k[h]; ++s2) {
            const double conditioned = inject_state_leak
                                           ? layout.stationary(h, s2)
                                           : layout.transition(h, s, s2);
            const double v = (1.0 - q) * conditioned;
            if (v > 0.0) entries.push_back({r, layout.off[h] + s2, v});
          }
        }
      }
    }
    entries.push_back({layout.goal, layout.goal, 1.0});
    entries.push_back({layout.discard, layout.discard, 1.0});
    matrices.emplace_back(layout.dim, layout.dim, std::move(entries));
  }
  for (std::uint32_t s = 0; s < config_.superframe.downlink_slots; ++s) {
    std::vector<linalg::Triplet> entries;
    for (std::size_t h = 0; h < hops; ++h)
      for (std::size_t cs = 0; cs < layout.k[h]; ++cs)
        push_mixing_row(entries, h, cs);
    entries.push_back({layout.goal, layout.goal, 1.0});
    entries.push_back({layout.discard, layout.discard, 1.0});
    matrices.emplace_back(layout.dim, layout.dim, std::move(entries));
  }
  return matrices;
}

namespace {

/// Per-slot channel core: forward propagation over every absolute slot
/// of the interval with a stored backward delivery vector v_a = P(final
/// delivery | chain state at absolute slot a), so attempt mass at a
/// firing can be attributed to delivered messages exactly as the i.i.d.
/// core's beta recursion does.
void analyze_channel_per_slot(const PathModel& model,
                              const LinkProbabilityProvider& links,
                              const std::vector<linalg::CsrMatrix>& matrices,
                              PathTransientResult& result) {
  WHART_SPAN("path_solve");
#ifndef WHART_OBS_DISABLED
  const bool timed = common::obs::metrics_enabled();
  const auto solve_start = timed ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
#endif
  const PathModelConfig& config = model.config();
  const ChannelLayout layout = make_layout(config, links);
  const std::size_t dim = layout.dim;
  const std::uint32_t frame = config.superframe.uplink_slots;
  const std::uint32_t cycle_slots = config.superframe.cycle_slots();
  const std::uint32_t ttl = config.effective_ttl();
  const std::uint32_t horizon = config.horizon();

  init_result(result, layout, config, 1, horizon + 1);
  std::size_t trajectory_entry = 0;
  const auto record_trajectory = [&] {
    result.goal_trajectory[trajectory_entry++].assign(
        result.cycle_probabilities.begin(), result.cycle_probabilities.end());
  };

  // Backward pass, stored: v[a] for absolute slots a = 0..ttl_end, where
  // ttl_end is the boundary right after uplink slot `ttl` fired (and its
  // discard swept every transient state, so transient delivery
  // probability at the boundary is 0 and Goal's is 1).
  const std::size_t ttl_end =
      static_cast<std::size_t>(
          config.superframe.absolute_slot_of_uplink(ttl)) +
      1;
  std::vector<double> v((ttl_end + 1) * dim, 0.0);
  v[ttl_end * dim + layout.goal] = 1.0;
  for (std::size_t a = ttl_end; a-- > 0;) {
    const linalg::CsrMatrix& matrix = matrices[a % cycle_slots];
    double* va = v.data() + a * dim;
    const double* vnext = v.data() + (a + 1) * dim;
    for (std::size_t r = 0; r < dim; ++r) {
      double acc = 0.0;
      matrix.for_each_in_row(
          r, [&](std::size_t c, double val) { acc += val * vnext[c]; });
      va[r] = acc;
    }
  }

  // Forward pass over every absolute slot; the message starts at hop 0
  // with its channel stationary.
  std::vector<double> p(dim, 0.0);
  for (std::size_t s = 0; s < layout.k[0]; ++s)
    p[layout.off[0] + s] = layout.stationary(0, s);
  std::vector<double> p_next(dim, 0.0);
  double goal_seen = 0.0;
  record_trajectory();
  const std::uint64_t total_abs =
      static_cast<std::uint64_t>(config.reporting_interval) * cycle_slots;
  for (std::uint64_t a = 0; a < total_abs; ++a) {
    const std::uint32_t pos = static_cast<std::uint32_t>(a % cycle_slots);
    const bool uplink = pos < frame;
    const std::uint32_t slot =
        uplink ? static_cast<std::uint32_t>(a / cycle_slots) * frame + pos + 1
               : 0;
    if (uplink && slot <= ttl) {
      if (const auto firing = model.hop_in_slot(slot); firing.has_value()) {
        const std::size_t h = *firing;
        const double* va = v.data() + a * dim;
        for (std::size_t s = 0; s < layout.k[h]; ++s) {
          const double m = p[layout.off[h] + s];
          if (m == 0.0) continue;
          result.expected_transmissions += m;
          result.expected_transmissions_per_hop[h] += m;
          result.expected_transmissions_delivered +=
              m * va[layout.off[h] + s];
        }
      }
    }
    advance(matrices[pos], p, p_next);
    if (uplink && slot == ttl) {
      for (std::size_t x = 0; x < layout.transient; ++x) {
        result.discard_probability += p[x];
        p[x] = 0.0;
      }
    }
    if (uplink) {
      const std::uint32_t cycle = (slot - 1) / frame;
      result.cycle_probabilities[cycle] += p[layout.goal] - goal_seen;
      goal_seen = p[layout.goal];
      record_trajectory();
    }
  }

  finish_result(result);
  WHART_COUNT("hart.path_solve.count");
  WHART_COUNT("hart.path_solve.channel");
  WHART_OBSERVE("hart.path_solve.states", dim);
  WHART_EVENT(kSolveDone, "hart.path_solve", dim, 0);
#ifndef WHART_OBS_DISABLED
  if (timed) {
    const auto elapsed = std::chrono::steady_clock::now() - solve_start;
    result.diagnostics.solve_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    WHART_OBSERVE("hart.path_solve.ns", result.diagnostics.solve_ns);
  }
#endif
}

/// Superframe-product channel core: the enlarged cycle matrices collapse
/// through markov::SuperframeKernel and full pre-TTL cycles advance in
/// one product step, with the same one-cycle accounting structures as
/// the i.i.d. collapse — except that attempts/delivered bookkeeping sums
/// a firing hop's whole channel block, and the prefix/suffix sweeps
/// advance through *every* slot matrix because idle slots mix.
void analyze_channel_superframe(const PathModel& model,
                                const LinkProbabilityProvider& links,
                                const PathAnalysisOptions& options,
                                const std::vector<linalg::CsrMatrix>& matrices,
                                PathTransientResult& result) {
  WHART_SPAN("path_solve");
#ifndef WHART_OBS_DISABLED
  const bool timed = common::obs::metrics_enabled();
  const auto solve_start = timed ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
#endif
  const PathModelConfig& config = model.config();
  const ChannelLayout layout = make_layout(config, links);
  const std::size_t hops = config.hop_count();
  const std::size_t dim = layout.dim;
  const std::uint32_t frame = config.superframe.uplink_slots;
  const std::uint32_t cycle_slots = config.superframe.cycle_slots();
  const std::uint32_t ttl = config.effective_ttl();
  const std::uint32_t interval = config.reporting_interval;

  markov::SuperframeKernel kernel(matrices);
  if (options.inject_product_error != 0.0)
    kernel.perturb_product_entry(0, 0, options.inject_product_error);
  const linalg::CsrMatrix& product = kernel.cycle_product();

  // Column storage of the prefix sweep: for each firing j (hop h), the
  // k_h prefix columns of hop h's channel block, flattened.  column_of
  // maps frame position -> offset into the flat buffer (SIZE_MAX = no
  // firing in that slot).
  std::vector<std::size_t> column_of(frame, SIZE_MAX);
  std::size_t column_doubles = 0;
  for (std::uint32_t slot = 1; slot <= frame; ++slot)
    if (const auto h = model.hop_in_slot(slot); h.has_value()) {
      column_of[slot - 1] = column_doubles;
      column_doubles += layout.k[*h] * dim;
    }
  std::vector<double> prefix_columns(column_doubles, 0.0);

  linalg::Matrix prefix(dim, dim);
  linalg::Matrix prefix_next(dim, dim);
  for (std::size_t i = 0; i < dim; ++i) prefix(i, i) = 1.0;
  linalg::Matrix attempts(dim, hops);
  for (std::uint32_t j = 0; j < cycle_slots; ++j) {
    if (j < frame && column_of[j] != SIZE_MAX) {
      const std::size_t h = model.hop_in_slot(j + 1).value();
      for (std::size_t s = 0; s < layout.k[h]; ++s) {
        double* column = prefix_columns.data() + column_of[j] + s * dim;
        for (std::size_t r = 0; r < dim; ++r) {
          column[r] = prefix(r, layout.off[h] + s);
          attempts(r, h) += column[r];
        }
      }
    }
    linalg::left_multiply_batch_into(prefix, matrices[j], prefix_next);
    std::swap(prefix, prefix_next);
  }

  linalg::Matrix delivered_kernel(dim, dim);
  linalg::Matrix suffix(dim, dim);
  linalg::Matrix suffix_next(dim, dim);
  for (std::size_t i = 0; i < dim; ++i) suffix(i, i) = 1.0;
  for (std::uint32_t j = cycle_slots; j-- > 0;) {
    const linalg::CsrMatrix& step = matrices[j];
    for (std::size_t r = 0; r < dim; ++r)
      for (std::size_t c = 0; c < dim; ++c) suffix_next(r, c) = 0.0;
    for (std::size_t r = 0; r < dim; ++r)
      step.for_each_in_row(r, [&](std::size_t k, double val) {
        for (std::size_t c = 0; c < dim; ++c)
          suffix_next(r, c) += val * suffix(k, c);
      });
    std::swap(suffix, suffix_next);
    if (j < frame && column_of[j] != SIZE_MAX) {
      const std::size_t h = model.hop_in_slot(j + 1).value();
      for (std::size_t s = 0; s < layout.k[h]; ++s) {
        const double* column = prefix_columns.data() + column_of[j] + s * dim;
        for (std::size_t r = 0; r < dim; ++r)
          for (std::size_t c = 0; c < dim; ++c)
            delivered_kernel(r, c) +=
                column[r] * suffix(layout.off[h] + s, c);
      }
    }
  }

  init_result(result, layout, config, frame, interval + 1);
  result.diagnostics.kernel = TransientKernel::kSuperframeProduct;
  std::size_t trajectory_entry = 0;
  const auto record_trajectory = [&] {
    result.goal_trajectory[trajectory_entry++].assign(
        result.cycle_probabilities.begin(), result.cycle_probabilities.end());
  };
  record_trajectory();

  std::vector<double> p(dim, 0.0);
  for (std::size_t s = 0; s < layout.k[0]; ++s)
    p[layout.off[0] + s] = layout.stationary(0, s);
  std::vector<double> p_next(dim, 0.0);
  double goal_seen = 0.0;
  for (std::uint32_t cycle = 0; cycle < interval; ++cycle) {
    if (static_cast<std::uint64_t>(cycle + 1) * frame <= ttl) {
      for (std::size_t h = 0; h < hops; ++h) {
        double a = 0.0;
        for (std::size_t x = 0; x < dim; ++x) a += p[x] * attempts(x, h);
        result.expected_transmissions_per_hop[h] += a;
        result.expected_transmissions += a;
      }
      advance(product, p, p_next);
    } else {
      // The cycle the TTL cuts through runs per-slot; slots past the
      // discard sweep only mix zeroed transient mass, so they (and the
      // cycle's downlink) are skipped exactly.
      for (std::uint32_t s = 1; s <= frame; ++s) {
        const std::uint32_t slot = cycle * frame + s;
        if (slot > ttl) break;
        if (const auto firing = model.hop_in_slot(slot);
            firing.has_value()) {
          const std::size_t h = *firing;
          for (std::size_t cs = 0; cs < layout.k[h]; ++cs) {
            const double m = p[layout.off[h] + cs];
            result.expected_transmissions += m;
            result.expected_transmissions_per_hop[h] += m;
          }
        }
        advance(matrices[s - 1], p, p_next);
        if (slot == ttl) {
          for (std::size_t x = 0; x < layout.transient; ++x) {
            result.discard_probability += p[x];
            p[x] = 0.0;
          }
        }
      }
    }
    result.cycle_probabilities[cycle] = p[layout.goal] - goal_seen;
    goal_seen = p[layout.goal];
    record_trajectory();
  }
  // TTL on a product-advanced cycle boundary: the expired mass never
  // passed a per-slot discard; sweep it now.
  for (std::size_t x = 0; x < layout.transient; ++x) {
    result.discard_probability += p[x];
    p[x] = 0.0;
  }

  // Delivered-attempt accounting, folded backward exactly as in the
  // i.i.d. collapse: b = delivery probability at the cycle's end, u =
  // delivered-attempt mass accrued after it; the TTL cycle runs
  // per-slot (through every matrix — idle slots mix), earlier cycles
  // collapse as u <- K b + P u, b <- P b.  b starts as the Goal
  // indicator after uplink slot `ttl`: later matrices leave it
  // invariant (transient rows carry no mass into Goal under mixing).
  {
    WHART_TIMER("hart.stage.tail_solve.ns");
    std::vector<double> b(dim, 0.0);
    b[layout.goal] = 1.0;
    std::vector<double> u(dim, 0.0);
    std::vector<double> b_next(dim, 0.0);
    std::vector<double> u_next(dim, 0.0);
    const std::uint32_t ttl_cycle = (ttl - 1) / frame;  // 0-based
    for (std::uint32_t slot = ttl; slot > ttl_cycle * frame; --slot) {
      const linalg::CsrMatrix& step = matrices[(slot - 1) % frame];
      for (std::size_t r = 0; r < dim; ++r) {
        double bacc = 0.0;
        double uacc = 0.0;
        step.for_each_in_row(r, [&](std::size_t c, double val) {
          bacc += val * b[c];
          uacc += val * u[c];
        });
        b_next[r] = bacc;
        u_next[r] = uacc;
      }
      if (const auto firing = model.hop_in_slot(slot); firing.has_value()) {
        const std::size_t h = *firing;
        for (std::size_t s = 0; s < layout.k[h]; ++s)
          u_next[layout.off[h] + s] += b_next[layout.off[h] + s];
      }
      std::swap(b, b_next);
      std::swap(u, u_next);
    }
    for (std::uint32_t cycle = ttl_cycle; cycle-- > 0;) {
      for (std::size_t r = 0; r < dim; ++r) {
        double acc = 0.0;
        for (std::size_t c = 0; c < dim; ++c)
          acc += delivered_kernel(r, c) * b[c];
        u_next[r] = acc;
        b_next[r] = 0.0;
      }
      for (std::size_t r = 0; r < dim; ++r)
        product.for_each_in_row(r, [&](std::size_t c, double val) {
          u_next[r] += val * u[c];
          b_next[r] += val * b[c];
        });
      std::swap(u, u_next);
      std::swap(b, b_next);
    }
    double delivered = 0.0;
    for (std::size_t s = 0; s < layout.k[0]; ++s)
      delivered += layout.stationary(0, s) * u[layout.off[0] + s];
    result.expected_transmissions_delivered = delivered;
  }

  finish_result(result);
  WHART_COUNT("hart.path_solve.count");
  WHART_COUNT("hart.path_solve.superframe");
  WHART_COUNT("hart.path_solve.channel");
  WHART_OBSERVE("hart.path_solve.states", dim);
  WHART_EVENT(kSolveDone, "hart.path_solve", dim, 0);
#ifndef WHART_OBS_DISABLED
  if (timed) {
    const auto elapsed = std::chrono::steady_clock::now() - solve_start;
    result.diagnostics.solve_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    WHART_OBSERVE("hart.path_solve.ns", result.diagnostics.solve_ns);
  }
#endif
}

}  // namespace

PathTransientResult PathModel::analyze_channel(
    const LinkProbabilityProvider& links,
    const PathAnalysisOptions& options) const {
  const std::vector<linalg::CsrMatrix> matrices =
      channel_slot_matrices(links, options.inject_channel_state_leak);
  PathTransientResult result;
  if (options.kernel == TransientKernel::kSuperframeProduct &&
      links.cycle_stationary()) {
    analyze_channel_superframe(*this, links, options, matrices, result);
    return result;
  }
  if (options.kernel == TransientKernel::kSuperframeProduct)
    WHART_COUNT("hart.path_solve.kernel_fallback");
  analyze_channel_per_slot(*this, links, matrices, result);
  return result;
}

}  // namespace whart::hart
