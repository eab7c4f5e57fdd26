#include "whart/numeric/distributions.hpp"

#include <cmath>

#include "whart/common/contracts.hpp"
#include "whart/numeric/combinatorics.hpp"

namespace whart::numeric {

std::vector<double> negative_binomial_cycles(std::uint32_t hops, double ps,
                                             std::uint32_t max_cycles) {
  expects(hops >= 1, "hops >= 1");
  expects(ps >= 0.0 && ps <= 1.0, "0 <= ps <= 1");
  std::vector<double> cycles;
  cycles.reserve(max_cycles);
  const double pf = 1.0 - ps;
  const double success_all = std::pow(ps, static_cast<double>(hops));
  double failure_power = 1.0;
  for (std::uint32_t m = 1; m <= max_cycles; ++m) {
    const double ways = retry_placements(m - 1, hops);
    cycles.push_back(ways * success_all * failure_power);
    failure_power *= pf;
  }
  return cycles;
}

}  // namespace whart::numeric
