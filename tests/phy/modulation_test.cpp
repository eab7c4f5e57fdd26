#include "whart/phy/modulation.hpp"

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"

namespace whart::phy {
namespace {

TEST(OqpskBer, PaperTableIVValues) {
  // Paper Section VI-E: BER3 = 1/2 erfc(sqrt(7)) = 9.14e-5 and
  // BER4 = 1/2 erfc(sqrt(6)) = 2.66e-4.
  EXPECT_NEAR(oqpsk_ber(EbN0::from_linear(7.0)), 9.14e-5, 5e-7);
  EXPECT_NEAR(oqpsk_ber(EbN0::from_linear(6.0)), 2.66e-4, 5e-6);
}

TEST(OqpskBer, ZeroSnrIsHalf) {
  EXPECT_NEAR(oqpsk_ber(EbN0::from_linear(0.0)), 0.5, 1e-12);
}

TEST(OqpskBer, MonotoneDecreasingInSnr) {
  double previous = 1.0;
  for (double snr = 0.0; snr <= 12.0; snr += 0.5) {
    const double ber = oqpsk_ber(EbN0::from_linear(snr));
    EXPECT_LT(ber, previous);
    previous = ber;
  }
}

TEST(RequiredEbN0, InvertsTheBerCurve) {
  for (double ber : {1e-3, 1e-4, 1e-5, 1e-6}) {
    const EbN0 snr = oqpsk_required_ebn0(ber);
    EXPECT_NEAR(oqpsk_ber(snr) / ber, 1.0, 1e-9) << "ber=" << ber;
  }
}

TEST(RequiredEbN0, InvalidBerThrows) {
  EXPECT_THROW(oqpsk_required_ebn0(0.0), precondition_error);
  EXPECT_THROW(oqpsk_required_ebn0(0.5), precondition_error);
  EXPECT_THROW(oqpsk_required_ebn0(0.7), precondition_error);
}

}  // namespace
}  // namespace whart::phy
