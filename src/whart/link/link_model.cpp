#include "whart/link/link_model.hpp"

#include <cmath>

#include "whart/common/contracts.hpp"
#include "whart/phy/modulation.hpp"

namespace whart::link {

LinkModel::LinkModel(double failure_probability, double recovery_probability)
    : pfl_(failure_probability), prc_(recovery_probability) {
  expects(pfl_ >= 0.0 && pfl_ <= 1.0, "0 <= pfl <= 1");
  expects(prc_ >= 0.0 && prc_ <= 1.0, "0 <= prc <= 1");
  expects(pfl_ + prc_ > 0.0, "pfl + prc > 0",
          "a chain with pfl = prc = 0 never changes state");
}

LinkModel LinkModel::from_ber(double bit_error_rate,
                              std::uint32_t message_bits,
                              double recovery_probability) {
  return LinkModel(
      phy::message_failure_probability(bit_error_rate, message_bits),
      recovery_probability);
}

LinkModel LinkModel::from_snr(phy::EbN0 ebn0, std::uint32_t message_bits,
                              double recovery_probability) {
  return from_ber(phy::oqpsk_ber(ebn0), message_bits, recovery_probability);
}

LinkModel LinkModel::from_availability(double availability,
                                       double recovery_probability) {
  expects(availability > 0.0 && availability <= 1.0, "0 < pi(up) <= 1");
  const double pfl =
      recovery_probability * (1.0 - availability) / availability;
  expects(pfl <= 1.0, "pfl <= 1",
          "availability too low for the given recovery probability");
  return LinkModel(pfl, recovery_probability);
}

double LinkModel::steady_state_availability() const noexcept {
  return prc_ / (prc_ + pfl_);
}

double LinkModel::up_probability_after(double initial_up_probability,
                                       std::uint64_t slots) const {
  expects(initial_up_probability >= 0.0 && initial_up_probability <= 1.0,
          "0 <= p0 <= 1");
  const double pi = steady_state_availability();
  const double lambda = memory_eigenvalue();
  return pi + (initial_up_probability - pi) *
                  std::pow(lambda, static_cast<double>(slots));
}

double LinkModel::up_probability_after(LinkState initial,
                                       std::uint64_t slots) const {
  return up_probability_after(initial == LinkState::kUp ? 1.0 : 0.0, slots);
}

double LinkModel::memory_eigenvalue() const noexcept {
  return 1.0 - pfl_ - prc_;
}

std::uint64_t LinkModel::slots_to_steady_state(double tolerance) const {
  expects(tolerance > 0.0, "tolerance > 0");
  const double pi = steady_state_availability();
  const double worst_gap = std::max(pi, 1.0 - pi);
  if (worst_gap <= tolerance) return 0;
  const double lambda = std::abs(memory_eigenvalue());
  if (lambda == 0.0) return 1;
  // Smallest t with worst_gap * lambda^t <= tolerance.
  const double t = std::log(tolerance / worst_gap) / std::log(lambda);
  return static_cast<std::uint64_t>(std::ceil(t));
}

markov::Dtmc LinkModel::to_dtmc() const {
  using linalg::Triplet;
  std::vector<Triplet> transitions{
      {0, 0, 1.0 - pfl_}, {0, 1, pfl_}, {1, 0, prc_}, {1, 1, 1.0 - prc_}};
  return markov::Dtmc(2, std::move(transitions), {"UP", "DOWN"});
}

}  // namespace whart::link
