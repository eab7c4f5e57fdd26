#include "whart/phy/path_loss.hpp"

#include <cmath>

#include "whart/common/contracts.hpp"

namespace whart::phy {

double PathLossModel::path_loss_db(double distance_m) const {
  expects(distance_m > 0.0, "distance > 0");
  expects(reference_distance_m > 0.0, "reference distance > 0");
  const double clamped = std::max(distance_m, reference_distance_m);
  return reference_loss_db +
         10.0 * exponent * std::log10(clamped / reference_distance_m);
}

double LinkBudget::received_power_dbm(double path_loss_db) const {
  return tx_power_dbm - path_loss_db;
}

EbN0 LinkBudget::ebn0_for_loss(double path_loss_db) const {
  const double snr_db =
      received_power_dbm(path_loss_db) - noise_floor_dbm +
      processing_gain_db;
  // Eb/N0 can never be negative in linear terms; from_db handles any dB.
  return EbN0::from_db(snr_db);
}

EbN0 LinkBudget::ebn0_at(double distance_m,
                         const PathLossModel& propagation) const {
  return ebn0_for_loss(propagation.path_loss_db(distance_m));
}

double range_for_ebn0(const LinkBudget& budget,
                      const PathLossModel& propagation, EbN0 required) {
  expects(required.linear() > 0.0, "required Eb/N0 > 0");
  // Solve: tx - PL(d) - noise + gain = required_db for d.
  const double allowed_loss = budget.tx_power_dbm -
                              budget.noise_floor_dbm +
                              budget.processing_gain_db - required.db();
  const double excess = allowed_loss - propagation.reference_loss_db;
  if (excess <= 0.0) return propagation.reference_distance_m;
  return propagation.reference_distance_m *
         std::pow(10.0, excess / (10.0 * propagation.exponent));
}

}  // namespace whart::phy
