// Steady-state (stationary) distribution solver: pi = pi P, sum(pi) = 1,
// by a direct linear solve (exact, O(n^3)).
#pragma once

#include "whart/linalg/vector.hpp"
#include "whart/markov/dtmc.hpp"

namespace whart::markov {

/// Direct solve of the stationary equations via LU.  Replaces one balance
/// equation with the normalization constraint.  Intended for irreducible
/// chains (unique stationary distribution); throws whart::invariant_error
/// when the system is singular beyond that replacement.
linalg::Vector steady_state_direct(const Dtmc& chain);

}  // namespace whart::markov
