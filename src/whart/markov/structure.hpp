// Structural analysis of a DTMC's transition graph: communicating
// classes (Tarjan SCC), state classification (transient vs recurrent),
// irreducibility and periodicity.  These are the preconditions of the
// steady-state solvers — steady_state_direct assumes a unique stationary
// distribution, power iteration assumes convergence — made checkable.
#pragma once

#include <cstdint>
#include <vector>

#include "whart/linalg/vector.hpp"
#include "whart/markov/dtmc.hpp"

namespace whart::markov {

/// The communicating classes of the chain.
struct ClassDecomposition {
  /// class_of[s]: index of the communicating class containing state s.
  std::vector<std::size_t> class_of;

  /// classes[c]: the states of class c, ascending.
  std::vector<std::vector<StateIndex>> classes;

  /// is_closed[c]: no transition leaves class c (its states are
  /// recurrent); open classes contain transient states.
  std::vector<bool> is_closed;

  [[nodiscard]] std::size_t class_count() const noexcept {
    return classes.size();
  }
};

/// Tarjan's strongly-connected components over the positive-probability
/// transition graph.
ClassDecomposition communicating_classes(const Dtmc& chain);

/// True when the whole chain is one communicating class.
bool is_irreducible(const Dtmc& chain);

/// Recurrent states: members of closed communicating classes.
std::vector<StateIndex> recurrent_states(const Dtmc& chain);

/// Transient states: members of open classes.
std::vector<StateIndex> transient_states(const Dtmc& chain);

/// The period of `state`: gcd of the lengths of all cycles through it
/// (1 = aperiodic).  Returns 0 when no cycle passes through the state
/// (possible only for transient states).
std::uint32_t period(const Dtmc& chain, StateIndex state);

/// True when the chain is irreducible and aperiodic — the regime where
/// the power iteration on P itself converges and the stationary
/// distribution is also the limit distribution.
bool is_ergodic(const Dtmc& chain);

/// Largest |1 - row sum| over all rows, accumulated in long double so
/// the residual measures the stored entries, not the measurement
/// arithmetic.  The construction-time stochasticity check tolerates
/// 1e-9; the verification subsystem holds constructed chains to 1e-12.
double max_row_sum_residual(const Dtmc& chain);

/// |1 - sum of entries|, accumulated in long double — the probability
/// mass drift of a distribution under transient stepping.
double distribution_mass_residual(const linalg::Vector& distribution);

}  // namespace whart::markov
