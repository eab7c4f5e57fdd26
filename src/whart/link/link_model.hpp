// The paper's two-state link DTMC (Section III, Fig. 3): a link is UP or
// DOWN in each 10 ms slot; it fails with probability pfl and recovers with
// probability prc (close to 1 thanks to channel hopping + blacklisting).
#pragma once

#include <cstdint>

#include "whart/markov/dtmc.hpp"
#include "whart/phy/frame.hpp"
#include "whart/phy/snr.hpp"

namespace whart::link {

/// State of a link in a slot.
enum class LinkState : std::uint8_t { kUp = 0, kDown = 1 };

/// Two-state UP/DOWN link model.
///
/// Immutable value type.  All probabilities are per-slot.
class LinkModel {
 public:
  /// The paper's default recovery probability (Sections V-B, VI).
  static constexpr double kDefaultRecovery = 0.9;

  /// Construct from failure and recovery probabilities, both in [0, 1].
  /// pfl + prc must be positive (the chain must not be frozen in place).
  LinkModel(double failure_probability, double recovery_probability);

  /// From a bit error rate via paper Eq. 2: pfl = 1 - (1 - BER)^L.
  static LinkModel from_ber(double bit_error_rate,
                            std::uint32_t message_bits = phy::kMessageBits,
                            double recovery_probability = kDefaultRecovery);

  /// From a measured Eb/N0 via Eq. 1 (OQPSK over AWGN) and Eq. 2.
  static LinkModel from_snr(phy::EbN0 ebn0,
                            std::uint32_t message_bits = phy::kMessageBits,
                            double recovery_probability = kDefaultRecovery);

  /// The link whose stationary availability pi(up) equals `availability`
  /// given the recovery probability: pfl = prc (1 - pi) / pi.
  static LinkModel from_availability(
      double availability, double recovery_probability = kDefaultRecovery);

  [[nodiscard]] double failure_probability() const noexcept { return pfl_; }
  [[nodiscard]] double recovery_probability() const noexcept { return prc_; }

  /// Stationary availability pi(up) = prc / (prc + pfl)  (paper Eq. 4).
  [[nodiscard]] double steady_state_availability() const noexcept;

  /// Transient UP probability after `slots` steps given the UP probability
  /// at slot 0 (paper Eq. 3, in closed form:
  /// p_up(t) = pi + (p0 - pi) (1 - pfl - prc)^t).
  [[nodiscard]] double up_probability_after(double initial_up_probability,
                                            std::uint64_t slots) const;

  /// Transient UP probability after `slots` steps from a known state.
  [[nodiscard]] double up_probability_after(LinkState initial,
                                            std::uint64_t slots) const;

  /// Second eigenvalue lambda = 1 - pfl - prc; |lambda| governs how fast
  /// the link forgets its initial state (Fig. 17's "almost immediately").
  [[nodiscard]] double memory_eigenvalue() const noexcept;

  /// Number of slots until |p_up(t) - pi| <= tolerance from the worst-case
  /// initial state (DOWN when pi >= 1/2).
  [[nodiscard]] std::uint64_t slots_to_steady_state(double tolerance) const;

  /// The link as an explicit 2-state DTMC (states "UP", "DOWN").
  [[nodiscard]] markov::Dtmc to_dtmc() const;

  friend bool operator==(const LinkModel&, const LinkModel&) = default;

 private:
  double pfl_;
  double prc_;
};

}  // namespace whart::link
