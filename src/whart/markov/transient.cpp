#include "whart/markov/transient.hpp"

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"

namespace whart::markov {

linalg::Vector distribution_after(const Dtmc& chain,
                                  const linalg::Vector& initial,
                                  std::uint64_t steps) {
  expects(initial.size() == chain.num_states(),
          "initial distribution matches state space");
  WHART_COUNT("markov.transient.solves");
  WHART_COUNT_N("markov.transient.steps", steps);
  linalg::Vector p = initial;
  for (std::uint64_t t = 0; t < steps; ++t) p = chain.step(p);
  return p;
}

}  // namespace whart::markov
