// Per-slot link success probabilities for the hierarchical path model
// (paper Section IV).  The path DTMC asks, for each hop and each absolute
// 10 ms slot, the probability that the hop's link is UP; different
// providers implement the paper's three regimes: links in steady state
// (Eq. 4), links evolving transiently from a known initial state (Eq. 3),
// and links with scripted failures (Section VI-C).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "whart/link/channel_model.hpp"
#include "whart/link/failure_script.hpp"
#include "whart/link/link_model.hpp"

namespace whart::hart {

/// Interface: UP probability of hop `hop` (0-based) at `absolute_slot`
/// (0-based, counting both uplink and downlink slots — link states evolve
/// in every slot even though uplink messages sleep during downlink).
class LinkProbabilityProvider {
 public:
  virtual ~LinkProbabilityProvider() = default;

  [[nodiscard]] virtual double up_probability(
      std::size_t hop, std::uint64_t absolute_slot) const = 0;

  /// Number of hops this provider serves.
  [[nodiscard]] virtual std::size_t hop_count() const = 0;

  /// True when up_probability is independent of the absolute slot, so
  /// every superframe cycle sees identical per-slot transition matrices
  /// — the precondition of the superframe-product transient kernel
  /// (markov::SuperframeKernel).  Providers whose probabilities evolve
  /// over time (transient links, scripted failures) must keep the
  /// default false; PathModel then walks the firing table.
  [[nodiscard]] virtual bool cycle_stationary() const { return false; }

  /// The finite-state Markov channel behind hop `hop`, or nullptr when
  /// the hop is per-slot independent.  When any hop returns a channel
  /// with more than one state, PathModel's firing-table walk enlarges the
  /// DTMC so the hop carries the channel state, and up_probability is
  /// interpreted as the channel's stationary marginal success (used by
  /// the i.i.d. code paths a degenerate channel must reproduce).
  [[nodiscard]] virtual const link::ChannelModel* channel_model(
      std::size_t /*hop*/) const {
    return nullptr;
  }
};

/// Correlated burst-loss links: each hop runs an independent k-state
/// ChannelModel started from its stationary distribution, so the
/// marginal per-attempt success is constant (cycle-stationary) while
/// consecutive attempts on the same hop are correlated through the
/// chain.  With every channel at k = 1 this degenerates to
/// SteadyStateLinks semantics exactly.
class ChannelLinks final : public LinkProbabilityProvider {
 public:
  explicit ChannelLinks(std::vector<link::ChannelModel> channels);

  /// Homogeneous shorthand: `hops` copies of the same channel.
  ChannelLinks(std::size_t hops, link::ChannelModel channel);

  [[nodiscard]] double up_probability(std::size_t hop,
                                      std::uint64_t absolute_slot)
      const override;
  [[nodiscard]] std::size_t hop_count() const override;

  /// Stationary-start channels have slot-independent marginals.
  [[nodiscard]] bool cycle_stationary() const override { return true; }

  [[nodiscard]] const link::ChannelModel* channel_model(
      std::size_t hop) const override;

 private:
  std::vector<link::ChannelModel> channels_;
  std::vector<double> marginal_;  ///< cached marginal_success per hop
};

/// Paper Eq. 4: all links have reached steady state — each attempt on hop
/// h succeeds with the constant pi_h(up).
class SteadyStateLinks final : public LinkProbabilityProvider {
 public:
  explicit SteadyStateLinks(std::vector<link::LinkModel> links);

  /// Directly from per-hop stationary UP probabilities (each in [0, 1]).
  explicit SteadyStateLinks(std::vector<double> availabilities);

  /// Homogeneous shorthand: `hops` copies of the same model.
  SteadyStateLinks(std::size_t hops, link::LinkModel model);

  [[nodiscard]] double up_probability(std::size_t hop,
                                      std::uint64_t absolute_slot)
      const override;
  [[nodiscard]] std::size_t hop_count() const override;

  /// Steady-state probabilities are slot-independent by construction.
  [[nodiscard]] bool cycle_stationary() const override { return true; }

 private:
  std::vector<double> availability_;
};

/// Paper Eq. 3: links evolve from known initial UP probabilities at slot 0;
/// the success probability of an attempt at slot t is the transient
/// p_up(t) of that hop's link DTMC.
class TransientLinks final : public LinkProbabilityProvider {
 public:
  /// One initial UP probability per link.
  TransientLinks(std::vector<link::LinkModel> links,
                 std::vector<double> initial_up);

  [[nodiscard]] double up_probability(std::size_t hop,
                                      std::uint64_t absolute_slot)
      const override;
  [[nodiscard]] std::size_t hop_count() const override;

 private:
  std::vector<link::LinkModel> links_;
  std::vector<double> initial_up_;
};

/// Links with scripted failure windows (Section VI-C): forced DOWN inside
/// each window, steady state before the first window, transient recovery
/// from DOWN afterwards.
/// True when any of the first `hops` hops of `links` carries a
/// multi-state channel — the condition under which PathModel enlarges
/// its DTMC state space (and the superframe collapse gives way to the
/// walk).
[[nodiscard]] bool channel_enlarged(const LinkProbabilityProvider& links,
                                    std::size_t hops);

class ScriptedLinks final : public LinkProbabilityProvider {
 public:
  explicit ScriptedLinks(std::vector<link::ScriptedLink> links);

  /// Convenience: steady-state links except `failed_hop`, which carries
  /// the given failure windows.
  ScriptedLinks(std::vector<link::LinkModel> links, std::size_t failed_hop,
                std::vector<link::FailureWindow> windows);

  [[nodiscard]] double up_probability(std::size_t hop,
                                      std::uint64_t absolute_slot)
      const override;
  [[nodiscard]] std::size_t hop_count() const override;

 private:
  std::vector<link::ScriptedLink> links_;
};

}  // namespace whart::hart
