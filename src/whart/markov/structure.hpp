// Structural analysis of a DTMC's transition graph: communicating
// classes (Tarjan SCC), state classification (transient vs recurrent),
// irreducibility and periodicity.  These are the preconditions of the
// steady-state solvers — steady_state_direct assumes a unique stationary
// distribution, power iteration assumes convergence — made checkable.
//
// This header also hosts the *symbolic* side of the symbolic/numeric
// split (DESIGN.md §12): CsrPattern captures a sparse matrix's shape
// without its values, and ChainProductSkeleton captures the sparsity of
// every left-to-right partial product of a matrix chain so the cycle
// product can be refilled numerically (markov::BatchRefill,
// markov::IncrementalProduct) — same pattern, new probabilities —
// without re-running the symbolic pass or allocating.
#pragma once

#include <cstdint>
#include <vector>

#include "whart/linalg/sparse.hpp"
#include "whart/markov/dtmc.hpp"

namespace whart::markov {

/// Sparsity pattern of a CSR matrix: everything but the values.
struct CsrPattern {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::size_t> row_start;  // size rows + 1
  std::vector<std::size_t> col_index;  // sorted within each row

  /// Capture the pattern of an assembled matrix.
  static CsrPattern of(const linalg::CsrMatrix& matrix);

  [[nodiscard]] std::size_t nonzeros() const noexcept {
    return col_index.size();
  }

  friend bool operator==(const CsrPattern&, const CsrPattern&) = default;
};

/// Symbolic skeleton of the chain product M_0 * M_1 * ... * M_{F-1}:
/// the sparsity pattern of every left-to-right partial product, computed
/// once.  The numeric passes over it (markov::BatchRefill and
/// markov::IncrementalProduct) replay Gustavson's arithmetic against
/// fresh factor values — bitwise equal to rebuilding the chain through
/// linalg::multiply, because they visit the same nonzeros in the same
/// order.
class ChainProductSkeleton {
 public:
  /// Symbolic chain collapse over the factor patterns (at least one;
  /// inner dimensions must agree).
  explicit ChainProductSkeleton(const std::vector<CsrPattern>& factors);

  /// Pattern of the full product M_0 ... M_{F-1}.
  [[nodiscard]] const CsrPattern& pattern() const noexcept {
    return partials_.back();
  }

  /// Number of chain factors.
  [[nodiscard]] std::size_t factor_count() const noexcept {
    return partials_.size();
  }

  /// Patterns of every left-to-right partial product (partials()[k] is
  /// the pattern of M_0 * ... * M_k) — the replay schedule that
  /// markov::BatchRefill walks lane-parallel.
  [[nodiscard]] const std::vector<CsrPattern>& partials() const noexcept {
    return partials_;
  }

  /// Widest column count across the partials (accumulator sizing).
  [[nodiscard]] std::size_t max_cols() const noexcept { return max_cols_; }

  /// Largest intermediate-partial nonzero count (ping-pong sizing).
  [[nodiscard]] std::size_t max_partial_nonzeros() const noexcept {
    return max_partial_nnz_;
  }

 private:
  /// partials_[k]: pattern of M_0 * ... * M_k.
  std::vector<CsrPattern> partials_;
  std::size_t max_cols_ = 0;         // accumulator/marker size
  std::size_t max_partial_nnz_ = 0;  // ping-pong buffer size
};

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
