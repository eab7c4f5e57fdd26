// Stochasticity residuals of a DTMC and of a distribution: how far the
// stored rows and the propagated mass drift from exact.  The
// verification subsystem holds constructed chains and transient steps
// to these.
#pragma once

#include "whart/linalg/vector.hpp"
#include "whart/markov/dtmc.hpp"

namespace whart::markov {

/// Largest |1 - row sum| over all rows, accumulated in long double so
/// the residual measures the stored entries, not the measurement
/// arithmetic.  The construction-time stochasticity check tolerates
/// 1e-9; the verification subsystem holds constructed chains to 1e-12.
double max_row_sum_residual(const Dtmc& chain);

/// |1 - sum of entries|, accumulated in long double — the probability
/// mass drift of a distribution under transient stepping.
double distribution_mass_residual(const linalg::Vector& distribution);

}  // namespace whart::markov
