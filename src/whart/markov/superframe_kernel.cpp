#include "whart/markov/superframe_kernel.hpp"

#include <chrono>
#include <cmath>
#include <utility>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"

namespace whart::markov {

SuperframeKernel::SuperframeKernel(
    std::vector<linalg::CsrMatrix> slot_matrices)
    : slot_matrices_(std::move(slot_matrices)) {
  expects(!slot_matrices_.empty(), "at least one slot matrix per cycle");
  const std::size_t dim = slot_matrices_.front().rows();
  for (const linalg::CsrMatrix& m : slot_matrices_)
    expects(m.rows() == dim && m.cols() == dim,
            "slot matrices square with one common dimension");
#ifndef WHART_OBS_DISABLED
  const bool timed = common::obs::metrics_enabled();
  const auto build_start = timed ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
#endif
  // Left-to-right product so the partial result is always the collapse
  // of a cycle prefix; one arena serves all period() - 1 multiplies.
  linalg::SparseProductArena arena;
  product_ = slot_matrices_.front();
  for (std::size_t i = 1; i < slot_matrices_.size(); ++i)
    product_ = linalg::multiply(product_, slot_matrices_[i], arena);
  WHART_COUNT("markov.superframe.builds");
  WHART_OBSERVE("markov.superframe.product_nnz", product_.nonzeros());
#ifndef WHART_OBS_DISABLED
  if (timed) {
    const auto elapsed = std::chrono::steady_clock::now() - build_start;
    const auto elapsed_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
    WHART_OBSERVE("markov.superframe.build_ns", elapsed_ns);
    // Stage-attribution alias: the product build is one of the named
    // pipeline stages reported by tools/obs_report.py.
    WHART_OBSERVE("hart.stage.product_build.ns", elapsed_ns);
  }
#endif
}

const linalg::CsrMatrix& SuperframeKernel::slot_matrix(
    std::size_t position) const {
  expects(position < slot_matrices_.size(), "cycle position in range");
  return slot_matrices_[position];
}

double SuperframeKernel::product_row_sum_residual() const {
  double worst = 0.0;
  for (std::size_t r = 0; r < product_.rows(); ++r)
    worst = std::max(worst, std::abs(1.0 - product_.row_sum(r)));
  return worst;
}

void SuperframeKernel::perturb_product_entry(std::size_t row,
                                             std::size_t col, double delta) {
  expects(row < dimension() && col < dimension(), "entry in range");
  std::vector<linalg::Triplet> entries;
  entries.reserve(product_.nonzeros() + 1);
  for (std::size_t r = 0; r < product_.rows(); ++r)
    product_.for_each_in_row(r, [&](std::size_t c, double v) {
      entries.push_back({r, c, v});
    });
  entries.push_back({row, col, delta});  // duplicate entries sum on assembly
  product_ =
      linalg::CsrMatrix(dimension(), dimension(), std::move(entries));
}

}  // namespace whart::markov
