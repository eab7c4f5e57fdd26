#include "whart/phy/frame.hpp"

#include <cmath>

#include "whart/common/contracts.hpp"

namespace whart::phy {

double message_failure_probability(double bit_error_rate,
                                   std::uint32_t message_bits) {
  expects(bit_error_rate >= 0.0 && bit_error_rate <= 1.0, "0 <= BER <= 1");
  expects(message_bits > 0, "message_bits > 0");
  return 1.0 -
         std::pow(1.0 - bit_error_rate, static_cast<double>(message_bits));
}

}  // namespace whart::phy
