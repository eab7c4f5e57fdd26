// Radio propagation for synthetic plant layouts: log-distance path loss
// and the link budget that turns a transmit power and a distance into the
// Eb/N0 the link model consumes (the paper measures Eb/N0 with pilot
// packages; this module generates physically-plausible values when no
// measurement exists).
#pragma once

#include <cstdint>

#include "whart/phy/snr.hpp"

namespace whart::phy {

/// Log-distance path loss PL(d) = PL(d0) + 10 n log10(d / d0) dB.
struct PathLossModel {
  /// Path-loss exponent; ~2 free space, 2.5-3.5 cluttered industrial.
  double exponent = 2.8;

  /// Loss at the reference distance, dB.  40 dB at 1 m is the standard
  /// 2.4 GHz free-space figure.
  double reference_loss_db = 40.0;

  /// Reference distance, meters.
  double reference_distance_m = 1.0;

  /// Deterministic path loss at `distance_m` (> 0) in dB.
  [[nodiscard]] double path_loss_db(double distance_m) const;
};

/// Link budget of an IEEE 802.15.4 radio.
struct LinkBudget {
  /// Transmit power, dBm (0 dBm = 1 mW, the 802.15.4 default).
  double tx_power_dbm = 0.0;

  /// Thermal noise floor over the 2 MHz channel plus receiver noise
  /// figure, dBm.
  double noise_floor_dbm = -95.0;

  /// Spreading/processing gain of the DSSS PHY, dB (2 Mchip/s over
  /// 250 kbit/s gives 10 log10(8) ~ 9 dB).
  double processing_gain_db = 9.0;

  /// Received power after `path_loss_db` of attenuation, dBm.
  [[nodiscard]] double received_power_dbm(double path_loss_db) const;

  /// Eb/N0 delivered to the demodulator for the given path loss.
  [[nodiscard]] EbN0 ebn0_for_loss(double path_loss_db) const;

  /// Convenience: Eb/N0 at a distance under a propagation model.
  [[nodiscard]] EbN0 ebn0_at(double distance_m,
                             const PathLossModel& propagation) const;
};

/// The distance at which the budget still delivers `required` Eb/N0
/// (deterministic propagation) — the nominal radio range.  Solved in
/// closed form from the log-distance model.
double range_for_ebn0(const LinkBudget& budget,
                      const PathLossModel& propagation, EbN0 required);

}  // namespace whart::phy
