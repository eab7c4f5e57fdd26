// Transient analysis: the distribution of a DTMC after t steps, both for
// time-homogeneous chains (paper Eq. 3 for links) and periodic
// time-inhomogeneous ones (paper Eq. 5 for paths, where per-slot
// transition probabilities follow the link models).
#pragma once

#include <cstdint>

#include "whart/linalg/matrix.hpp"
#include "whart/linalg/vector.hpp"
#include "whart/markov/dtmc.hpp"
#include "whart/markov/superframe_kernel.hpp"

namespace whart::markov {

/// Distribution after `steps` steps of a homogeneous chain: p0 * P^steps,
/// computed by iterated sparse products.  steps == 0 returns the initial
/// distribution unchanged.
linalg::Vector distribution_after(const Dtmc& chain,
                                  const linalg::Vector& initial,
                                  std::uint64_t steps);

/// Time-inhomogeneous transient analysis for a *periodic* step sequence,
/// answered through the superframe-product collapse: floor(steps /
/// period) applications of the precomputed cycle matrix plus at most
/// period - 1 per-slot tail steps.  Equivalent (to rounding) to stepping
/// through kernel.slot_matrix((t - 1) % kernel.period()) for t = 1 ..
/// steps.
linalg::Vector distribution_after_periodic(const SuperframeKernel& kernel,
                                           const linalg::Vector& initial,
                                           std::uint64_t steps);

/// Batched periodic transient analysis: every row of `initials` advances
/// `steps` slots through the kernel in one cache-blocked pass.  Row i
/// equals distribution_after_periodic(kernel, row i, steps) exactly.
linalg::Matrix distributions_after_periodic(const SuperframeKernel& kernel,
                                            const linalg::Matrix& initials,
                                            std::uint64_t steps);

}  // namespace whart::markov
