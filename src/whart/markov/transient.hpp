// Transient analysis: the distribution of a time-homogeneous DTMC after
// t steps (paper Eq. 3 for links).  Paths are periodic and
// time-inhomogeneous (paper Eq. 5); hart::PathModel walks their firing
// tables instead.
#pragma once

#include <cstdint>

#include "whart/linalg/vector.hpp"
#include "whart/markov/dtmc.hpp"

namespace whart::markov {

/// Distribution after `steps` steps of a homogeneous chain: p0 * P^steps,
/// computed by iterated sparse products.  steps == 0 returns the initial
/// distribution unchanged.
linalg::Vector distribution_after(const Dtmc& chain,
                                  const linalg::Vector& initial,
                                  std::uint64_t steps);

}  // namespace whart::markov
