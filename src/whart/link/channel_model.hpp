// Finite-state Markov channel models (burst-loss links).  The paper's
// path DTMC assumes per-slot-independent failures; real industrial
// channels are bursty, and finite-state Markov chains are the standard
// fix ("Learning Markov models of fading channels", PAPERS.md).  A
// ChannelModel is a k-state chain evolving every 10 ms slot — including
// the downlink half of each superframe — with a per-state message error
// rate; k = 1 recovers the per-slot-independent regime and k = 2 with
// (p_good->bad, p_bad->good) is the classic Gilbert-Elliott model.
//
// The path solver enlarges its DTMC state space so each hop carries its
// channel state (hart::PathModel's firing-table walk); the Monte-Carlo
// simulator draws from the same chain (sim::LinkRegime::kChannel), which
// is the cross-validation target of the verify battery.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "whart/link/link_model.hpp"
#include "whart/markov/dtmc.hpp"

namespace whart::link {

/// Thrown by ChannelModel::parse on a malformed or out-of-range spec; the
/// message names the spec and the problem.
class channel_spec_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A k-state Markov fading channel with per-state message error rates.
///
/// Immutable value type.  The transition matrix is row-stochastic; the
/// stationary distribution is solved at construction (closed form for
/// k <= 2, direct linear solve otherwise) and cached.
class ChannelModel {
 public:
  /// Per-slot-independent channel: one state, every attempt succeeds
  /// with `success_probability`.
  static ChannelModel iid(double success_probability = 1.0);

  /// Two-state Gilbert-Elliott channel: Good -> Bad with p_good_to_bad,
  /// Bad -> Good with p_bad_to_good; attempts fail with error_good in
  /// the Good state and error_bad in the Bad state.  State 0 is Good.
  static ChannelModel gilbert_elliott(double p_good_to_bad,
                                      double p_bad_to_good,
                                      double error_good, double error_bad);

  /// General k-state fading chain from a row-major k x k transition
  /// matrix and k per-state error rates.
  static ChannelModel chain(std::vector<double> transition_row_major,
                            std::vector<double> error_rates);

  /// The paper's UP/DOWN link DTMC as a channel: Gilbert-Elliott with
  /// (pfl, prc) transitions, error 0 when UP and 1 when DOWN.
  static ChannelModel from_link_model(const LinkModel& link);

  /// Parse a CLI spec: "iid" | "ge:pgb,pbg,eg,eb" | "chain:<file>".
  /// The chain file holds k (1..64) on the first line, then k rows of k
  /// transition probabilities, then one line of k error rates
  /// (whitespace-separated; '#' starts a comment).  Every value is
  /// checked before a model is built: probabilities in [0, 1], rows
  /// summing to 1, and a chain with one stationary law (some state
  /// reachable from every state).  Throws channel_spec_error otherwise.
  static ChannelModel parse(const std::string& spec);

  /// Number of channel states k (1 for iid, 2 for Gilbert-Elliott).
  [[nodiscard]] std::size_t state_count() const noexcept { return states_; }

  /// True when the channel carries no slot-to-slot memory (k == 1).
  [[nodiscard]] bool is_iid() const noexcept { return states_ == 1; }

  /// Transition probability from state `from` to state `to`.
  [[nodiscard]] double transition(std::size_t from, std::size_t to) const {
    return transition_[from * states_ + to];
  }

  /// Message error rate while the channel sits in `state`.
  [[nodiscard]] double error_rate(std::size_t state) const {
    return error_[state];
  }

  /// Per-attempt success probability in `state` (1 - error rate).
  [[nodiscard]] double success_in_state(std::size_t state) const {
    return 1.0 - error_[state];
  }

  /// Stationary distribution of the channel chain (size k).
  [[nodiscard]] const std::vector<double>& stationary() const noexcept {
    return stationary_;
  }

  /// Stationary per-attempt success probability
  /// sum_s pi(s) (1 - e_s) — the availability an engineer would measure
  /// on this channel, and the value a degenerate chain must reproduce
  /// through the i.i.d. solver.
  [[nodiscard]] double marginal_success() const noexcept;

  /// Expected sojourn length of `state` in slots: 1 / (1 - P(s, s)).
  [[nodiscard]] double mean_sojourn_slots(std::size_t state) const;

  /// Gilbert-Elliott mean burst length: expected consecutive slots in
  /// the Bad state, 1 / p_bad->good.  Requires k == 2.
  [[nodiscard]] double mean_bad_burst_length() const;

  /// The same burst structure rescaled so marginal_success() equals
  /// `availability`: error rates are multiplied by
  /// (1 - availability) / sum_s pi(s) e_s (clamped to [0, 1]); the
  /// transition matrix — hence the stationary distribution and burst
  /// lengths — is unchanged.  A channel with zero error everywhere and
  /// availability < 1 gets the uniform error rate 1 - availability.
  /// This is how a channel *template* (--channel) combines with each
  /// link's engineered availability.
  [[nodiscard]] ChannelModel with_marginal_success(double availability) const;

  /// The channel chain as an explicit DTMC (states "C0", "C1", ...).
  [[nodiscard]] markov::Dtmc to_dtmc() const;

  /// Round-trippable spec string ("iid" stays "iid" only at success 1;
  /// otherwise "ge:..." / "chain(k)[...]").
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const ChannelModel&, const ChannelModel&) = default;

 private:
  ChannelModel(std::size_t states, std::vector<double> transition_row_major,
               std::vector<double> error_rates);

  std::size_t states_;
  std::vector<double> transition_;  ///< k x k, row-major
  std::vector<double> error_;      ///< k
  std::vector<double> stationary_;  ///< k, solved at construction
};

}  // namespace whart::link
