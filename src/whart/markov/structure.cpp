#include "whart/markov/structure.hpp"

#include <algorithm>

namespace whart::markov {

double max_row_sum_residual(const Dtmc& chain) {
  long double worst = 0.0L;
  for (std::size_t row = 0; row < chain.num_states(); ++row) {
    long double sum = 0.0L;
    chain.matrix().for_each_in_row(
        row, [&](std::size_t, double value) { sum += value; });
    const long double residual = sum > 1.0L ? sum - 1.0L : 1.0L - sum;
    worst = std::max(worst, residual);
  }
  return static_cast<double>(worst);
}

double distribution_mass_residual(const linalg::Vector& distribution) {
  long double sum = 0.0L;
  for (double value : distribution) sum += value;
  const long double residual = sum > 1.0L ? sum - 1.0L : 1.0L - sum;
  return static_cast<double>(residual);
}

}  // namespace whart::markov
