#include "whart/hart/sensitivity.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "whart/common/contracts.hpp"
#include "whart/common/parallel.hpp"
#include "whart/hart/path_cache.hpp"
#include "whart/hart/what_if.hpp"
#include "whart/linalg/simd.hpp"
#include "whart/markov/batch_refill.hpp"

namespace whart::hart {

namespace {

/// Collapsed adjoint over the compact message chain, lane-parallel over
/// one provider per lane on a shared skeleton: the per-slot sum
/// mass * (beta_success - beta_failure) for hop h over one full cycle is
/// the bilinear form p G_h b with
///   G_h = sum over opportunities j firing hop h of
///         (column h of Prefix_{j-1}) ((e_target - e_h)^T Suffix_{j+1}),
/// p the cycle-entry distribution and b the eventual-delivery vector at
/// the cycle's end (Prefix/Suffix are products of opportunity factors;
/// the identity slots between them change neither).  Full pre-TTL cycles
/// then cost one form each (p and b advance through the cycle product);
/// only the cycle the TTL cuts runs opportunity by opportunity.  Every
/// numeric structure is widened by a lane dimension (entry-major, as in
/// the superframe solve core), and each lane's arithmetic is independent
/// of the lane count.  All providers must be cycle-stationary.
/// Degenerate firing probabilities (0 or 1) need no special case: the
/// skeleton's generic pattern merely carries entries a fresh build would
/// drop, and those contribute exact zeros.
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
  const std::span<const PathModelSkeleton::SlotProvenance> provenance =
      skeleton.provenance();
  const std::size_t count = provenance.size();
  const auto target_of = [&](std::size_t h) {
    return h + 1 == hops ? goal : h + 1;
  };

  // SoA factor values over the skeleton's patterns (one factor per
  // transmission opportunity, retry slots included): constant entries
  // hold 1.0, firing entries get their per-lane failure/success
  // probabilities, which ps (opportunities x lanes) also keeps.
  std::vector<std::vector<double>> factor_values(count);
  std::vector<double> ps(count * lanes);
  for (std::size_t i = 0; i < count; ++i) {
    const PathModelSkeleton::SlotProvenance& prov = provenance[i];
    factor_values[i].assign(patterns[i].nonzeros() * lanes, 1.0);
    for (std::size_t l = 0; l < lanes; ++l) {
      ps[i * lanes + l] = links[l]->up_probability(
          prov.hop, config.superframe.absolute_slot_of_uplink(prov.slot));
      factor_values[i][prov.failure_index * lanes + l] =
          1.0 - ps[i * lanes + l];
      factor_values[i][prov.success_index * lanes + l] = ps[i * lanes + l];
    }
  }

  // Prefix sweep: record each opportunity's entry column, then advance.
  std::vector<double> prefix(dim * dim * lanes, 0.0);
  for (std::size_t i = 0; i < dim; ++i)
    simd::fill(prefix.data() + (i * dim + i) * lanes, 1.0, lanes);
  std::vector<double> prefix_next(dim * dim * lanes, 0.0);
  std::vector<double> prefix_columns(count * dim * lanes);
  for (std::size_t i = 0; i < count; ++i) {
    double* column = prefix_columns.data() + i * dim * lanes;
    for (std::size_t r = 0; r < dim; ++r)
      simd::copy(column + r * lanes,
                 prefix.data() + (r * dim + provenance[i].hop) * lanes, lanes);
    const markov::CsrPattern& step = patterns[i];
    const std::vector<double>& step_values = factor_values[i];
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
  for (std::size_t i = count; i-- > 0;) {
    const std::size_t h = provenance[i].hop;
    const std::size_t target = target_of(h);
    const double* column = prefix_columns.data() + i * dim * lanes;
    std::vector<double>& acc = adjoint[h];
    for (std::size_t r = 0; r < dim; ++r)
      for (std::size_t c = 0; c < dim; ++c)
        for (std::size_t l = 0; l < lanes; ++l)
          acc[(r * dim + c) * lanes + l] +=
              column[r * lanes + l] *
              (suffix[(target * dim + c) * lanes + l] -
               suffix[(h * dim + c) * lanes + l]);
    const markov::CsrPattern& step = patterns[i];
    const std::vector<double>& step_values = factor_values[i];
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

  // Delivery vectors backward from the TTL cycle; beta_after holds b
  // right after each opportunity of the TTL cycle fires.
  const std::uint32_t ttl_cycle = (ttl - 1) / frame;  // 0-based
  std::vector<double> b(dim * lanes, 0.0);
  simd::fill(b.data() + goal * lanes, 1.0, lanes);
  std::vector<double> beta_after(count * dim * lanes);
  for (std::size_t i = count; i-- > 0;) {
    if (ttl_cycle * frame + provenance[i].slot > ttl) continue;
    simd::copy(beta_after.data() + i * dim * lanes, b.data(), dim * lanes);
    const std::size_t h = provenance[i].hop;
    const std::size_t target = target_of(h);
    const double* ps_lanes = ps.data() + i * lanes;
    for (std::size_t l = 0; l < lanes; ++l)
      b[h * lanes + l] = ps_lanes[l] * b[target * lanes + l] +
                         (1.0 - ps_lanes[l]) * b[h * lanes + l];
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
  // The cycle the TTL cuts, opportunity by opportunity.
  for (std::size_t i = 0; i < count; ++i) {
    if (ttl_cycle * frame + provenance[i].slot > ttl) break;
    const std::size_t h = provenance[i].hop;
    const std::size_t target = target_of(h);
    const double* after = beta_after.data() + i * dim * lanes;
    const double* ps_lanes = ps.data() + i * lanes;
    for (std::size_t l = 0; l < lanes; ++l) {
      sensitivity[l][h] += p[h * lanes + l] * (after[target * lanes + l] -
                                               after[h * lanes + l]);
      const double moved = p[h * lanes + l] * ps_lanes[l];
      p[h * lanes + l] -= moved;
      p[target * lanes + l] += moved;
    }
  }
  return sensitivity;
}

}  // namespace

std::vector<double> reachability_sensitivity(
    const PathModel& model, const LinkProbabilityProvider& links,
    TransientKernel kernel) {
  const std::size_t hops = model.config().hop_count();
  expects(links.hop_count() >= hops, "provider covers every hop");
  if (kernel == TransientKernel::kSuperframeProduct &&
      links.cycle_stationary() && !channel_enlarged(links, hops)) {
    const PathModelSkeleton skeleton(model.config());
    const LinkProbabilityProvider* const lane = &links;
    return std::move(sensitivity_superframe_batch(skeleton, {&lane, 1})[0]);
  }
  // The firing-table walk's two passes price every hop at once.
  std::vector<double> sensitivity(hops, 0.0);
  SolveWorkspace workspace;
  PathTransientResult result;
  model.walk(links, ChannelFault::kNone, workspace, result, sensitivity);
  return sensitivity;
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
        links[i]->cycle_stationary() &&
        !channel_enlarged(*links[i], skeleton.config().hop_count()))
      batched.push_back(i);
    else
      results[i] = reachability_sensitivity(skeleton.model(), *links[i],
                                            TransientKernel::kPerSlot);
  }
  if (batched.empty()) return results;
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

  // Same-shape paths chunk into groups of at most batch_lanes lanes,
  // priced by one lane-parallel adjoint sweep per group (DESIGN.md §13).  Groups fan out across threads; the
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
