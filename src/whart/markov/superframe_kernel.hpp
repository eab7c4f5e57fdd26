// Superframe-product transient kernel: the cyclic-chain collapse for
// time-inhomogeneous DTMCs whose per-slot transition matrices repeat with
// a fixed period (a TDMA superframe of Fup + Fdown slots).  Instead of
// one sparse vector-matrix product per 10 ms slot, the kernel multiplies
// the per-slot matrices once into the cycle-product matrix
//
//   P = M_1 * M_2 * ... * M_F      (F = period)
//
// so a t-slot transient is floor(t / F) applications of P plus a tail
// of at most F - 1 per-slot steps.  P is row-stochastic whenever every
// M_i is (a product of stochastic matrices is stochastic), so the
// collapsed chain is a DTMC in its own right; see DESIGN.md §11 for the
// math and the tail handling.  hart::PathModel's reference collapse
// reads the product and the per-slot matrices.
#pragma once

#include <vector>

#include "whart/linalg/sparse.hpp"

namespace whart::markov {

class SuperframeKernel {
 public:
  /// Build the kernel from the per-slot matrices of one cycle, in slot
  /// order (slot_matrices[i] advances slot i+1 of the cycle).  All
  /// matrices must be square with one common dimension; the cycle
  /// product is formed immediately via the arena-based sparse-sparse
  /// product.  Build cost is O(period) products and is paid once.
  explicit SuperframeKernel(std::vector<linalg::CsrMatrix> slot_matrices);

  /// Slots per cycle (the paper's Fup + Fdown).
  [[nodiscard]] std::size_t period() const noexcept {
    return slot_matrices_.size();
  }

  /// State-space dimension.
  [[nodiscard]] std::size_t dimension() const noexcept {
    return product_.rows();
  }

  /// The collapsed cycle-product matrix P = M_1 ... M_F.
  [[nodiscard]] const linalg::CsrMatrix& cycle_product() const noexcept {
    return product_;
  }

  /// Per-slot matrix of cycle position `position` (0-based).
  [[nodiscard]] const linalg::CsrMatrix& slot_matrix(
      std::size_t position) const;

  /// Largest |1 - row sum| over the product matrix — the numeric health
  /// of the collapse (exact arithmetic gives 0 for stochastic slots).
  [[nodiscard]] double product_row_sum_residual() const;

  /// Verification-harness fault injection: add `delta` to product entry
  /// (row, col), creating it if absent.  This deliberately breaks the
  /// collapse so the differential oracle can prove it would catch a bad
  /// product build.  Never called in production code.
  void perturb_product_entry(std::size_t row, std::size_t col, double delta);

 private:
  std::vector<linalg::CsrMatrix> slot_matrices_;
  linalg::CsrMatrix product_;
};

}  // namespace whart::markov
