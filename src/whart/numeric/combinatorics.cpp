#include "whart/numeric/combinatorics.hpp"

namespace whart::numeric {

double binomial(std::uint32_t n, std::uint32_t k) noexcept {
  if (k > n) return 0.0;
  if (k > n - k) k = n - k;
  double result = 1.0;
  for (std::uint32_t i = 1; i <= k; ++i) {
    result *= static_cast<double>(n - k + i);
    result /= static_cast<double>(i);
  }
  return result;
}

double retry_placements(std::uint32_t failures, std::uint32_t hops) noexcept {
  if (hops == 0) return failures == 0 ? 1.0 : 0.0;
  return binomial(failures + hops - 1, failures);
}

}  // namespace whart::numeric
