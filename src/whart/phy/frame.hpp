// WirelessHART framing constants (IEC 62591 / IEEE 802.15.4) and the
// message-failure mapping of paper Eq. 2.
#pragma once

#include <cstdint>

namespace whart::phy {

/// Duration of one TDMA slot: the standard fixes 10 ms slots.
inline constexpr std::uint32_t kSlotMilliseconds = 10;

/// Number of non-overlapping 2.4 GHz frequency channels (IEEE 802.15.4
/// channels 11-26) available to channel hopping.
inline constexpr std::uint32_t kChannelCount = 16;

/// Maximum MAC-layer payload: 127 bytes — the "typical WirelessHART
/// message" the paper uses for Eq. 2.
inline constexpr std::uint32_t kMaxPayloadBytes = 127;

/// Message length in bits: L = 127 * 8 = 1016 (paper Section V-B).
inline constexpr std::uint32_t kMessageBits = kMaxPayloadBytes * 8;

/// Paper Eq. 2: probability that an L-bit message fails on a channel with
/// the given bit error rate: pfl = 1 - (1 - BER)^L.
double message_failure_probability(double bit_error_rate,
                                   std::uint32_t message_bits = kMessageBits);

}  // namespace whart::phy
