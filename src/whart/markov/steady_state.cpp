#include "whart/markov/steady_state.hpp"

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"
#include "whart/linalg/lu.hpp"
#include "whart/linalg/matrix.hpp"

namespace whart::markov {

linalg::Vector steady_state_direct(const Dtmc& chain) {
  const std::size_t n = chain.num_states();
  expects(n > 0, "chain is non-empty");
  WHART_COUNT("markov.steady_state.direct.solves");
  WHART_OBSERVE("markov.steady_state.states", n);

  // Solve (P^T - I) pi = 0 with the last equation replaced by sum(pi) = 1.
  linalg::Matrix system(n, n);
  for (std::size_t row = 0; row < n; ++row) {
    chain.matrix().for_each_in_row(row, [&](std::size_t col, double value) {
      system(col, row) += value;  // transpose
    });
  }
  for (std::size_t i = 0; i < n; ++i) system(i, i) -= 1.0;
  for (std::size_t j = 0; j < n; ++j) system(n - 1, j) = 1.0;

  linalg::Vector rhs(n);
  rhs[n - 1] = 1.0;
  linalg::Vector pi = linalg::solve(system, rhs);

  // Guard against tiny negative round-off.
  for (double& p : pi)
    if (p < 0.0 && p > -1e-12) p = 0.0;
  return pi;
}

}  // namespace whart::markov
