// The bit-error-rate curve over an AWGN channel of WirelessHART's radio
// (IEEE 802.15.4, 2.4 GHz OQPSK) and its inverse.
//
// Paper Eq. 1: BER_OQPSK = 1/2 erfc(sqrt(Eb/N0)).
#pragma once

#include "whart/phy/snr.hpp"

namespace whart::phy {

/// The paper's Eq. 1 specialized to WirelessHART's OQPSK radio.
double oqpsk_ber(EbN0 ebn0) noexcept;

/// Invert the OQPSK BER curve: the Eb/N0 (linear) that yields `ber`.
/// ber must lie in (0, 0.5); solved by bisection to ~1e-12 relative error.
EbN0 oqpsk_required_ebn0(double ber);

}  // namespace whart::phy
