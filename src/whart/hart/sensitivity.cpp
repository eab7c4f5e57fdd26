#include "whart/hart/sensitivity.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "whart/common/contracts.hpp"
#include "whart/common/parallel.hpp"
#include "whart/hart/path_cache.hpp"
#include "whart/hart/what_if.hpp"
#include "whart/linalg/matrix.hpp"
#include "whart/linalg/simd.hpp"
#include "whart/markov/batch_refill.hpp"
#include "whart/markov/superframe_kernel.hpp"

namespace whart::hart {

namespace {

std::optional<std::size_t> hop_in_slot(const PathModelConfig& config,
                                       std::uint32_t global_slot) {
  const net::SlotNumber in_frame =
      ((global_slot - 1) % config.superframe.uplink_slots) + 1;
  for (std::size_t h = 0; h < config.hop_slots.size(); ++h)
    if (config.hop_slots[h] == in_frame) return h;
  return std::nullopt;
}

std::vector<double> sensitivity_per_slot(const PathModel& model,
                                         const LinkProbabilityProvider& links);

/// Collapsed adjoint over the compact message chain: the per-slot sum
/// mass * (beta_success - beta_failure) for hop h over one full cycle is
/// the bilinear form p G_h b with
///   G_h = sum over slots j firing hop h of
///         (column h of Prefix_{j-1}) ((e_target - e_h)^T Suffix_{j+1}),
/// p the cycle-entry distribution and b the eventual-delivery vector at
/// the cycle's end.  Full pre-TTL cycles then cost one form each (p and b
/// advance through the cycle product); only the cycle the TTL cuts runs
/// per-slot.
std::vector<double> sensitivity_superframe(
    const PathModel& model, const LinkProbabilityProvider& links) {
  const PathModelConfig& config = model.config();
  const std::size_t hops = config.hop_count();
  const std::size_t dim = hops + 2;
  const std::size_t goal = hops;
  const std::uint32_t frame = config.superframe.uplink_slots;
  const std::uint32_t ttl = config.effective_ttl();

  const std::vector<linalg::CsrMatrix> slots = model.slot_matrices(links);
  struct Firing {
    std::uint32_t slot;
    std::size_t hop;
    double ps;
  };
  std::vector<Firing> firings;
  firings.reserve(hops);
  for (std::uint32_t slot = 1; slot <= frame; ++slot)
    if (const auto h = hop_in_slot(config, slot); h.has_value())
      firings.push_back(
          {slot, *h,
           links.up_probability(
               *h, config.superframe.absolute_slot_of_uplink(slot))});

  linalg::Matrix prefix = linalg::Matrix::identity(dim);
  std::vector<linalg::Vector> prefix_columns;
  prefix_columns.reserve(firings.size());
  for (const Firing& f : firings) {
    linalg::Vector column(dim);
    for (std::size_t r = 0; r < dim; ++r) column[r] = prefix(r, f.hop);
    prefix_columns.push_back(std::move(column));
    prefix = linalg::left_multiply_batch(prefix, slots[f.slot - 1]);
  }

  std::vector<linalg::Matrix> adjoint(hops, linalg::Matrix(dim, dim));
  linalg::Matrix suffix = linalg::Matrix::identity(dim);
  for (std::size_t i = firings.size(); i-- > 0;) {
    const Firing& f = firings[i];
    // Here suffix == Suffix_{slot+1}: beta right after this slot fires.
    const std::size_t target = f.hop + 1 == hops ? goal : f.hop + 1;
    for (std::size_t r = 0; r < dim; ++r)
      for (std::size_t c = 0; c < dim; ++c)
        adjoint[f.hop](r, c) += prefix_columns[i][r] *
                                (suffix(target, c) - suffix(f.hop, c));
    const linalg::CsrMatrix& step = slots[f.slot - 1];
    linalg::Matrix next(dim, dim);
    for (std::size_t r = 0; r < dim; ++r)
      step.for_each_in_row(r, [&](std::size_t k, double v) {
        for (std::size_t c = 0; c < dim; ++c) next(r, c) += v * suffix(k, c);
      });
    suffix = std::move(next);
  }
  const linalg::CsrMatrix product = [&] {
    linalg::SparseProductArena arena;
    linalg::CsrMatrix acc = slots.front();
    for (std::size_t i = 1; i < slots.size(); ++i)
      acc = linalg::multiply(acc, slots[i], arena);
    return acc;
  }();

  // Delivery vectors at the end of each full pre-TTL cycle, backward
  // from the TTL cycle (whose interior runs per-slot from e_goal — the
  // transient mass alive at the TTL slot is lost, delivery 0).
  const std::uint32_t ttl_cycle = (ttl - 1) / frame;  // 0-based
  linalg::Vector b(dim);
  b[goal] = 1.0;
  std::vector<linalg::Vector> beta_in_ttl_cycle;  // per slot, newest first
  for (std::uint32_t slot = ttl; slot > ttl_cycle * frame; --slot) {
    beta_in_ttl_cycle.push_back(b);
    if (const auto firing = hop_in_slot(config, slot); firing.has_value()) {
      const std::size_t h = *firing;
      const double ps = links.up_probability(
          h, config.superframe.absolute_slot_of_uplink(slot));
      const std::size_t target = h + 1 == hops ? goal : h + 1;
      b[h] = ps * b[target] + (1.0 - ps) * b[h];
    }
  }
  std::vector<linalg::Vector> cycle_end_delivery(ttl_cycle);
  if (ttl_cycle > 0) {
    cycle_end_delivery[ttl_cycle - 1] = b;
    for (std::uint32_t c = ttl_cycle - 1; c-- > 0;) {
      linalg::Vector next(dim);
      for (std::size_t r = 0; r < dim; ++r)
        product.for_each_in_row(r, [&](std::size_t k, double v) {
          next[r] += v * cycle_end_delivery[c + 1][k];
        });
      cycle_end_delivery[c] = std::move(next);
    }
  }

  std::vector<double> sensitivity(hops, 0.0);
  linalg::Vector p(dim);
  p[0] = 1.0;
  for (std::uint32_t cycle = 0; cycle < ttl_cycle; ++cycle) {
    for (std::size_t h = 0; h < hops; ++h) {
      double form = 0.0;
      for (std::size_t r = 0; r < dim; ++r) {
        double row = 0.0;
        for (std::size_t c = 0; c < dim; ++c)
          row += adjoint[h](r, c) * cycle_end_delivery[cycle][c];
        form += p[r] * row;
      }
      sensitivity[h] += form;
    }
    p = product.left_multiply(p);
  }
  // The cycle the TTL cuts, per-slot (beta vectors recorded above are in
  // reverse slot order: entry k corresponds to slot ttl - k, i.e. beta
  // right after that slot fires).
  for (std::uint32_t slot = ttl_cycle * frame + 1; slot <= ttl; ++slot) {
    if (const auto firing = hop_in_slot(config, slot); firing.has_value()) {
      const std::size_t h = *firing;
      const double ps = links.up_probability(
          h, config.superframe.absolute_slot_of_uplink(slot));
      const std::size_t target = h + 1 == hops ? goal : h + 1;
      const linalg::Vector& beta_after = beta_in_ttl_cycle[ttl - slot];
      sensitivity[h] += p[h] * (beta_after[target] - beta_after[h]);
      const double moved = p[h] * ps;
      p[h] -= moved;
      if (h + 1 == hops)
        p[goal] += moved;
      else
        p[h + 1] += moved;
    }
  }
  return sensitivity;
}

std::vector<double> sensitivity_per_slot(const PathModel& model,
                                         const LinkProbabilityProvider& links) {
  const PathModelConfig& config = model.config();
  expects(links.hop_count() >= config.hop_count(),
          "provider covers every hop");
  const std::size_t hops = config.hop_count();
  const std::uint32_t ttl = config.effective_ttl();

  // Backward pass: beta[t][h] = P(delivery | at (t, h)).
  std::vector<std::vector<double>> beta(ttl + 1,
                                        std::vector<double>(hops, 0.0));
  for (std::uint32_t t = ttl; t-- > 0;) {
    const std::uint32_t slot = t + 1;
    const std::optional<std::size_t> firing = hop_in_slot(config, slot);
    for (std::size_t h = 0; h < hops; ++h) {
      const double continue_beta = slot == ttl ? 0.0 : beta[t + 1][h];
      if (firing == h) {
        const double ps = links.up_probability(
            h, config.superframe.absolute_slot_of_uplink(slot));
        const double success_beta =
            h + 1 == hops ? 1.0
                          : (slot == ttl ? 0.0 : beta[t + 1][h + 1]);
        beta[t][h] = ps * success_beta + (1.0 - ps) * continue_beta;
      } else {
        beta[t][h] = continue_beta;
      }
    }
  }

  // Forward pass accumulating the adjoint: each attempt of hop h at slot
  // s contributes mass * (beta_success - beta_failure) to dR/dps_h.
  std::vector<double> sensitivity(hops, 0.0);
  std::vector<double> mass(hops, 0.0);
  mass[0] = 1.0;
  for (std::uint32_t slot = 1; slot <= ttl; ++slot) {
    const std::optional<std::size_t> firing = hop_in_slot(config, slot);
    if (firing.has_value()) {
      const std::size_t h = *firing;
      if (mass[h] > 0.0) {
        const double ps = links.up_probability(
            h, config.superframe.absolute_slot_of_uplink(slot));
        const double success_beta =
            h + 1 == hops ? 1.0
                          : (slot == ttl ? 0.0 : beta[slot][h + 1]);
        const double failure_beta = slot == ttl ? 0.0 : beta[slot][h];
        sensitivity[h] += mass[h] * (success_beta - failure_beta);
        const double moved = mass[h] * ps;
        mass[h] -= moved;
        if (h + 1 < hops) mass[h + 1] += moved;
        // Delivered mass leaves the transient system.
      }
    }
    if (slot == ttl) break;
  }
  return sensitivity;
}

/// SoA mirror of sensitivity_superframe over a shared skeleton: every
/// numeric structure of the adjoint sweep is widened by a lane dimension
/// (entry-major, as in the batch solve core) and the per-lane arithmetic
/// order matches the scalar sweep, so lane L agrees with the scalar
/// sweep of provider L to rounding.  All providers must be
/// cycle-stationary.  Degenerate firing probabilities (0 or 1) need no
/// fallback here: the skeleton's generic pattern merely carries entries
/// a fresh build would drop, and those contribute exact zeros.
std::vector<std::vector<double>> sensitivity_superframe_batch(
    const PathModelSkeleton& skeleton,
    std::span<const LinkProbabilityProvider* const> links) {
  namespace simd = linalg::simd;
  const PathModelConfig& config = skeleton.config();
  const std::size_t lanes = links.size();
  const std::size_t hops = config.hop_count();
  const std::size_t dim = hops + 2;
  const std::size_t goal = hops;
  const std::uint32_t frame = config.superframe.uplink_slots;
  const std::uint32_t ttl = config.effective_ttl();
  const std::vector<markov::CsrPattern>& patterns = skeleton.factor_patterns();

  // SoA factor values over the skeleton's patterns (one factor per
  // transmission opportunity, retry slots included): constant entries
  // hold 1.0, firing entries get their per-lane failure/success
  // probabilities.
  const std::span<const PathModelSkeleton::SlotProvenance> provenance =
      skeleton.provenance();
  std::vector<std::vector<double>> factor_values(patterns.size());
  for (std::size_t i = 0; i < provenance.size(); ++i) {
    const PathModelSkeleton::SlotProvenance& prov = provenance[i];
    std::vector<double>& values = factor_values[i];
    values.assign(patterns[i].nonzeros() * lanes, 1.0);
    for (std::size_t l = 0; l < lanes; ++l) {
      const double ps = links[l]->up_probability(
          prov.hop, config.superframe.absolute_slot_of_uplink(prov.slot));
      values[prov.failure_index * lanes + l] = 1.0 - ps;
      values[prov.success_index * lanes + l] = ps;
    }
  }

  // The adjoint firing list mirrors the scalar sweep: dedicated hop
  // slots only (hop_in_slot above ignores retry slots, so retries shape
  // the products but accrue no adjoint of their own), each with the
  // chain factor of its opportunity.
  struct Firing {
    std::uint32_t slot = 0;
    std::size_t hop = 0;
    std::size_t factor = 0;
  };
  std::vector<Firing> firings;
  std::vector<double> ps;  // firings x lanes
  for (std::size_t i = 0; i < provenance.size(); ++i) {
    const PathModelSkeleton::SlotProvenance& prov = provenance[i];
    if (config.hop_slots[prov.hop] != prov.slot) continue;  // retry slot
    firings.push_back({prov.slot, prov.hop, i});
    for (std::size_t l = 0; l < lanes; ++l)
      ps.push_back(links[l]->up_probability(
          prov.hop, config.superframe.absolute_slot_of_uplink(prov.slot)));
  }
  // Lane ps of the adjoint firing scheduled in global uplink slot `slot`
  // (nullptr when that slot carries none).
  const auto firing_lanes = [&](std::uint32_t slot) -> const double* {
    const std::uint32_t in_frame = ((slot - 1) % frame) + 1;
    for (std::size_t i = 0; i < firings.size(); ++i)
      if (firings[i].slot == in_frame) return ps.data() + i * lanes;
    return nullptr;
  };
  const auto firing_hop = [&](std::uint32_t slot) {
    return hop_in_slot(config, slot);
  };

  // Prefix sweep: record each firing's entry column, then advance.
  std::vector<double> prefix(dim * dim * lanes, 0.0);
  for (std::size_t i = 0; i < dim; ++i)
    simd::fill(prefix.data() + (i * dim + i) * lanes, 1.0, lanes);
  std::vector<double> prefix_next(dim * dim * lanes, 0.0);
  std::vector<double> prefix_columns(firings.size() * dim * lanes);
  for (std::size_t i = 0; i < firings.size(); ++i) {
    const Firing& f = firings[i];
    double* column = prefix_columns.data() + i * dim * lanes;
    for (std::size_t r = 0; r < dim; ++r)
      simd::copy(column + r * lanes,
                 prefix.data() + (r * dim + f.hop) * lanes, lanes);
    const markov::CsrPattern& step = patterns[f.factor];
    const std::vector<double>& step_values = factor_values[f.factor];
    simd::fill(prefix_next.data(), 0.0, dim * dim * lanes);
    for (std::size_t k = 0; k < dim; ++k)
      for (std::size_t idx = step.row_start[k]; idx < step.row_start[k + 1];
           ++idx) {
        const std::size_t c = step.col_index[idx];
        for (std::size_t r = 0; r < dim; ++r)
          simd::mul_add(prefix_next.data() + (r * dim + c) * lanes,
                        prefix.data() + (r * dim + k) * lanes,
                        step_values.data() + idx * lanes, lanes);
      }
    std::swap(prefix, prefix_next);
  }

  // Suffix sweep accumulating the per-hop adjoint.
  std::vector<std::vector<double>> adjoint(
      hops, std::vector<double>(dim * dim * lanes, 0.0));
  std::vector<double> suffix(dim * dim * lanes, 0.0);
  for (std::size_t i = 0; i < dim; ++i)
    simd::fill(suffix.data() + (i * dim + i) * lanes, 1.0, lanes);
  std::vector<double> suffix_next(dim * dim * lanes, 0.0);
  for (std::size_t i = firings.size(); i-- > 0;) {
    const Firing& f = firings[i];
    const std::size_t target = f.hop + 1 == hops ? goal : f.hop + 1;
    const double* column = prefix_columns.data() + i * dim * lanes;
    std::vector<double>& acc = adjoint[f.hop];
    for (std::size_t r = 0; r < dim; ++r)
      for (std::size_t c = 0; c < dim; ++c)
        for (std::size_t l = 0; l < lanes; ++l)
          acc[(r * dim + c) * lanes + l] +=
              column[r * lanes + l] *
              (suffix[(target * dim + c) * lanes + l] -
               suffix[(f.hop * dim + c) * lanes + l]);
    const markov::CsrPattern& step = patterns[f.factor];
    const std::vector<double>& step_values = factor_values[f.factor];
    simd::fill(suffix_next.data(), 0.0, dim * dim * lanes);
    for (std::size_t r = 0; r < dim; ++r)
      for (std::size_t idx = step.row_start[r]; idx < step.row_start[r + 1];
           ++idx) {
        const std::size_t k = step.col_index[idx];
        for (std::size_t c = 0; c < dim; ++c)
          simd::mul_add(suffix_next.data() + (r * dim + c) * lanes,
                        step_values.data() + idx * lanes,
                        suffix.data() + (k * dim + c) * lanes, lanes);
      }
    std::swap(suffix, suffix_next);
  }

  // Cycle product, one SoA refill for all lanes.
  const markov::CsrPattern& product = skeleton.chain().pattern();
  std::vector<double> product_values(product.nonzeros() * lanes);
  markov::BatchLaneArena arena;
  markov::BatchRefill(skeleton.chain(), patterns)
      .refill(factor_values, lanes, arena,
              std::span<double>(product_values));

  // Delivery vectors backward from the TTL cycle.
  const std::uint32_t ttl_cycle = (ttl - 1) / frame;  // 0-based
  std::vector<double> b(dim * lanes, 0.0);
  simd::fill(b.data() + goal * lanes, 1.0, lanes);
  std::vector<std::vector<double>> beta_in_ttl_cycle;  // newest first
  for (std::uint32_t slot = ttl; slot > ttl_cycle * frame; --slot) {
    beta_in_ttl_cycle.push_back(b);
    if (const double* ps_lanes = firing_lanes(slot); ps_lanes != nullptr) {
      const std::size_t h = firing_hop(slot).value();
      const std::size_t target = h + 1 == hops ? goal : h + 1;
      for (std::size_t l = 0; l < lanes; ++l)
        b[h * lanes + l] = ps_lanes[l] * b[target * lanes + l] +
                           (1.0 - ps_lanes[l]) * b[h * lanes + l];
    }
  }
  std::vector<std::vector<double>> cycle_end_delivery(ttl_cycle);
  if (ttl_cycle > 0) {
    cycle_end_delivery[ttl_cycle - 1] = b;
    for (std::uint32_t c = ttl_cycle - 1; c-- > 0;) {
      std::vector<double> next(dim * lanes, 0.0);
      for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t idx = product.row_start[r];
             idx < product.row_start[r + 1]; ++idx)
          simd::mul_add(next.data() + r * lanes,
                        product_values.data() + idx * lanes,
                        cycle_end_delivery[c + 1].data() +
                            product.col_index[idx] * lanes,
                        lanes);
      cycle_end_delivery[c] = std::move(next);
    }
  }

  // Forward pass: one bilinear form per hop per full pre-TTL cycle.
  std::vector<std::vector<double>> sensitivity(
      lanes, std::vector<double>(hops, 0.0));
  std::vector<double> p(dim * lanes, 0.0);
  simd::fill(p.data(), 1.0, lanes);
  std::vector<double> p_next(dim * lanes, 0.0);
  std::vector<double> row(lanes, 0.0);
  std::vector<double> form(lanes, 0.0);
  for (std::uint32_t cycle = 0; cycle < ttl_cycle; ++cycle) {
    for (std::size_t h = 0; h < hops; ++h) {
      simd::fill(form.data(), 0.0, lanes);
      for (std::size_t r = 0; r < dim; ++r) {
        simd::fill(row.data(), 0.0, lanes);
        for (std::size_t c = 0; c < dim; ++c)
          simd::mul_add(row.data(),
                        adjoint[h].data() + (r * dim + c) * lanes,
                        cycle_end_delivery[cycle].data() + c * lanes, lanes);
        simd::mul_add(form.data(), p.data() + r * lanes, row.data(), lanes);
      }
      for (std::size_t l = 0; l < lanes; ++l) sensitivity[l][h] += form[l];
    }
    simd::fill(p_next.data(), 0.0, dim * lanes);
    for (std::size_t r = 0; r < dim; ++r)
      for (std::size_t idx = product.row_start[r];
           idx < product.row_start[r + 1]; ++idx)
        simd::mul_add(p_next.data() + product.col_index[idx] * lanes,
                      p.data() + r * lanes,
                      product_values.data() + idx * lanes, lanes);
    std::swap(p, p_next);
  }
  // The cycle the TTL cuts, per-slot.
  for (std::uint32_t slot = ttl_cycle * frame + 1; slot <= ttl; ++slot) {
    if (const double* ps_lanes = firing_lanes(slot); ps_lanes != nullptr) {
      const std::size_t h = firing_hop(slot).value();
      const std::size_t target = h + 1 == hops ? goal : h + 1;
      const std::vector<double>& beta_after = beta_in_ttl_cycle[ttl - slot];
      for (std::size_t l = 0; l < lanes; ++l) {
        sensitivity[l][h] += p[h * lanes + l] *
                             (beta_after[target * lanes + l] -
                              beta_after[h * lanes + l]);
        const double moved = p[h * lanes + l] * ps_lanes[l];
        p[h * lanes + l] -= moved;
        p[target * lanes + l] += moved;
      }
    }
  }
  return sensitivity;
}

}  // namespace

std::vector<double> reachability_sensitivity(
    const PathModel& model, const LinkProbabilityProvider& links,
    TransientKernel kernel) {
  expects(links.hop_count() >= model.config().hop_count(),
          "provider covers every hop");
  if (kernel == TransientKernel::kSuperframeProduct &&
      links.cycle_stationary())
    return sensitivity_superframe(model, links);
  return sensitivity_per_slot(model, links);
}

std::vector<std::vector<double>> reachability_sensitivity_batch(
    const PathModelSkeleton& skeleton,
    std::span<const LinkProbabilityProvider* const> links,
    TransientKernel kernel) {
  std::vector<std::vector<double>> results(links.size());
  std::vector<std::size_t> batched;
  for (std::size_t i = 0; i < links.size(); ++i) {
    expects(links[i]->hop_count() >= skeleton.config().hop_count(),
            "provider covers every hop");
    if (kernel == TransientKernel::kSuperframeProduct &&
        links[i]->cycle_stationary())
      batched.push_back(i);
    else
      results[i] =
          reachability_sensitivity(skeleton.model(), *links[i], kernel);
  }
  if (batched.size() < 2) {
    for (std::size_t i : batched)
      results[i] =
          reachability_sensitivity(skeleton.model(), *links[i], kernel);
    return results;
  }
  std::vector<const LinkProbabilityProvider*> lane_links;
  lane_links.reserve(batched.size());
  for (std::size_t i : batched) lane_links.push_back(links[i]);
  std::vector<std::vector<double>> lane_results =
      sensitivity_superframe_batch(skeleton, lane_links);
  for (std::size_t j = 0; j < batched.size(); ++j)
    results[batched[j]] = std::move(lane_results[j]);
  return results;
}

std::vector<LinkSensitivity> rank_link_upgrades(
    const net::Network& network, const std::vector<net::Path>& paths,
    const net::Schedule& schedule, net::SuperframeConfig superframe,
    std::uint32_t reporting_interval, unsigned threads,
    TransientKernel kernel, std::size_t batch_lanes) {
  expects(!paths.empty(), "at least one path");
  std::vector<LinkSensitivity> ranking;
  for (net::LinkId id : network.links())
    ranking.push_back(LinkSensitivity{id, 0.0, 0});

  // Paths of identical schedule shape share one symbolic build: the
  // adjoint sweep reads only shape fields (all covered by the skeleton
  // fingerprint), so reusing the shared skeleton's model is bitwise the
  // same as constructing a PathModel per path.
  std::vector<std::string> shape_keys(paths.size());
  std::unordered_map<std::string, std::shared_ptr<const PathModelSkeleton>>
      skeletons;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const PathModelConfig config = PathModelConfig::from_schedule(
        schedule, p, superframe, reporting_interval);
    shape_keys[p] = PathAnalysisCache::skeleton_fingerprint(config, kernel);
    auto& slot = skeletons[shape_keys[p]];
    if (slot == nullptr)
      slot = std::make_shared<const PathModelSkeleton>(config);
  }

  // Same-shape paths chunk into groups of at most batch_lanes lanes —
  // singletons when batching is off — priced by one SoA adjoint sweep
  // per group (DESIGN.md §13).  Groups fan out across threads; the
  // accumulation over shared links stays serial and in path order so the
  // sums are reproducible.
  std::vector<std::vector<std::size_t>> groups;
  {
    const std::size_t width = std::max<std::size_t>(batch_lanes, 1);
    std::unordered_map<std::string, std::size_t> open;
    for (std::size_t p = 0; p < paths.size(); ++p) {
      const auto [it, inserted] = open.try_emplace(shape_keys[p],
                                                   groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(p);
      if (groups[it->second].size() == width) open.erase(it);
    }
  }
  std::vector<std::vector<double>> per_hop_all(paths.size());
  common::parallel_for(
      groups.size(),
      [&](std::size_t g) {
        const std::vector<std::size_t>& group = groups[g];
        const PathModelSkeleton& skeleton =
            *skeletons.at(shape_keys[group.front()]);
        // Reserve before taking element pointers — emplace_back must not
        // reallocate under the provider span.
        std::vector<SteadyStateLinks> providers;
        providers.reserve(group.size());
        std::vector<const LinkProbabilityProvider*> ptrs;
        ptrs.reserve(group.size());
        for (std::size_t p : group) {
          providers.emplace_back(paths[p].hop_models(network));
          ptrs.push_back(&providers.back());
        }
        std::vector<std::vector<double>> group_results =
            reachability_sensitivity_batch(skeleton, ptrs, kernel);
        for (std::size_t j = 0; j < group.size(); ++j)
          per_hop_all[group[j]] = std::move(group_results[j]);
      },
      threads);
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const std::vector<net::LinkId> hop_links =
        paths[p].resolve_links(network);
    for (std::size_t h = 0; h < hop_links.size(); ++h) {
      ranking[hop_links[h].value].total_dR_dpi += per_hop_all[p][h];
      ++ranking[hop_links[h].value].paths_using;
    }
  }

  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const LinkSensitivity& a, const LinkSensitivity& b) {
                     return a.total_dR_dpi > b.total_dR_dpi;
                   });
  return ranking;
}

std::vector<LinkUpgradeImpact> evaluate_link_upgrades(
    WhatIfEngine& engine, double target_availability) {
  expects(target_availability >= 0.0 && target_availability <= 1.0,
          "availability in [0, 1]");
  // The all-links what-if sweep: one incremental query per link.  The
  // base vector is in ascending link-id order (Network::links), so the
  // stable sort leaves equal-delta links id-ordered — the same
  // tie-breaking rank_link_upgrades applies.
  std::vector<LinkUpgradeImpact> ranking;
  ranking.reserve(engine.links().size());
  for (net::LinkId link : engine.links()) {
    const WhatIfDelta delta = engine.what_if_delta(link, target_availability);
    ranking.push_back({link, delta.reachability_delta,
                       delta.worst_expected_delay_ms, delta.paths_resolved});
  }
  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const LinkUpgradeImpact& a, const LinkUpgradeImpact& b) {
                     return a.reachability_delta > b.reachability_delta;
                   });
  return ranking;
}

}  // namespace whart::hart
