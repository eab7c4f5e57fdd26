#include "whart/phy/modulation.hpp"

#include <cmath>

#include "whart/common/contracts.hpp"

namespace whart::phy {

double oqpsk_ber(EbN0 ebn0) noexcept {
  return 0.5 * std::erfc(std::sqrt(ebn0.linear()));
}

EbN0 oqpsk_required_ebn0(double ber) {
  expects(ber > 0.0 && ber < 0.5, "0 < BER < 0.5");
  // BER is strictly decreasing in Eb/N0; bisection on the linear ratio.
  double lo = 0.0;
  double hi = 1.0;
  while (oqpsk_ber(EbN0::from_linear(hi)) > ber) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (oqpsk_ber(EbN0::from_linear(mid)) > ber)
      lo = mid;
    else
      hi = mid;
  }
  return EbN0::from_linear(0.5 * (lo + hi));
}

}  // namespace whart::phy
