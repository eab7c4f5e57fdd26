#include "whart/markov/incremental_product.hpp"

#include <algorithm>
#include <limits>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"

namespace whart::markov {

namespace {
constexpr std::size_t kNoTag = std::numeric_limits<std::size_t>::max();
}  // namespace

IncrementalProduct::IncrementalProduct(const ChainProductSkeleton& chain,
                                       const std::vector<CsrPattern>& factors)
    : chain_(&chain), factors_(&factors) {
  expects(factors.size() == chain.factor_count(),
          "one factor pattern per chain factor");
  expects(factors.front() == chain.partials().front(),
          "first factor matches the skeleton's first partial");

  // values index -> row, per factor (a flat expansion of row_start).
  row_of_.resize(factors.size());
  for (std::size_t k = 0; k < factors.size(); ++k) {
    const CsrPattern& f = factors[k];
    row_of_[k].resize(f.nonzeros());
    for (std::size_t r = 0; r < f.rows; ++r)
      for (std::size_t ki = f.row_start[r]; ki < f.row_start[r + 1]; ++ki)
        row_of_[k][ki] = r;
  }

  // Column -> rows transpose of every intermediate partial: when factor
  // k's row i changes, the rows of partial k that move are exactly the
  // rows r with partial_{k-1}(r, i) != 0 — and once a row is dirty it
  // stays dirty for every later partial, because row r of partial k
  // depends only on row r of partial k - 1.
  const std::vector<CsrPattern>& partials = chain.partials();
  if (partials.size() > 1) {
    transpose_start_.resize(partials.size() - 1);
    transpose_rows_.resize(partials.size() - 1);
    for (std::size_t k = 0; k + 1 < partials.size(); ++k) {
      const CsrPattern& p = partials[k];
      std::vector<std::size_t>& start = transpose_start_[k];
      std::vector<std::size_t>& rows = transpose_rows_[k];
      start.assign(p.cols + 1, 0);
      for (std::size_t c : p.col_index) ++start[c + 1];
      for (std::size_t c = 0; c < p.cols; ++c) start[c + 1] += start[c];
      rows.resize(p.nonzeros());
      std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
      for (std::size_t r = 0; r < p.rows; ++r)
        for (std::size_t ki = p.row_start[r]; ki < p.row_start[r + 1]; ++ki)
          rows[cursor[p.col_index[ki]]++] = r;
    }
  }

  partial_values_.resize(partials.size());
  for (std::size_t k = 0; k < partials.size(); ++k)
    partial_values_[k].assign(partials[k].nonzeros(), 0.0);

  accumulator_.assign(chain.max_cols(), 0.0);
  marker_.assign(chain.max_cols(), kNoTag);
}

void IncrementalProduct::replay_row(std::size_t k, std::size_t r,
                                    const double* b_values) {
  // linalg::multiply's row body verbatim: left-partial entries in CSR
  // order times the factor's rows, dense-accumulated per column, then
  // written out in the output pattern's sorted column order.  Identical
  // operand values in identical order make the result bitwise equal to a
  // full refill of the same factors.
  const CsrPattern& left = chain_->partials()[k - 1];
  const CsrPattern& out = chain_->partials()[k];
  const CsrPattern& b = (*factors_)[k];
  const double* left_values = partial_values_[k - 1].data();
  double* out_values = partial_values_[k].data();
  const std::size_t row_tag = next_tag_++;
  for (std::size_t ka = left.row_start[r]; ka < left.row_start[r + 1]; ++ka) {
    const std::size_t ac = left.col_index[ka];
    const double av = left_values[ka];
    for (std::size_t kb = b.row_start[ac]; kb < b.row_start[ac + 1]; ++kb) {
      const std::size_t bc = b.col_index[kb];
      if (marker_[bc] != row_tag) {
        marker_[bc] = row_tag;
        accumulator_[bc] = av * b_values[kb];
      } else {
        accumulator_[bc] += av * b_values[kb];
      }
    }
  }
  for (std::size_t ko = out.row_start[r]; ko < out.row_start[r + 1]; ++ko)
    out_values[ko] = accumulator_[out.col_index[ko]];
}

void IncrementalProduct::expect_factor_values(
    std::span<const std::vector<double>> factor_values) const {
  expects(factor_values.size() == factors_->size(),
          "one value array per factor pattern");
  for (std::size_t k = 0; k < factor_values.size(); ++k)
    expects(factor_values[k].size() == (*factors_)[k].nonzeros(),
            "factor values sized to their pattern");
}

void IncrementalProduct::refill(
    std::span<const std::vector<double>> factor_values) {
  expect_factor_values(factor_values);
  const std::vector<CsrPattern>& partials = chain_->partials();
  std::copy(factor_values.front().begin(), factor_values.front().end(),
            partial_values_[0].begin());
  for (std::size_t k = 1; k < partials.size(); ++k)
    for (std::size_t r = 0; r < partials[k].rows; ++r)
      replay_row(k, r, factor_values[k].data());
  pending_.clear();
  seeded_ = true;
}

void IncrementalProduct::update(std::size_t factor, std::size_t values_index) {
  expects(factor < row_of_.size(), "factor index in range");
  expects(values_index < row_of_[factor].size(), "values index in range");
  pending_.emplace_back(factor, values_index);
}

std::size_t IncrementalProduct::propagate(
    std::span<const std::vector<double>> factor_values) {
  expects(seeded_, "propagate requires a seeded product (call refill)");
  expect_factor_values(factor_values);
  if (pending_.empty()) return 0;
  const std::vector<CsrPattern>& partials = chain_->partials();
  const std::size_t rows = partials.front().rows;
  dirty_.assign(rows, 0);

  // Walk the stages in chain order, folding in each stage's pending
  // entries as it is reached; the dirty-row set only grows, so a stage
  // recomputes exactly the rows any earlier-or-current update reaches.
  std::sort(pending_.begin(), pending_.end());
  std::size_t replayed = 0;
  std::size_t pi = 0;
  for (std::size_t k = pending_.front().first; k < partials.size(); ++k) {
    while (pi < pending_.size() && pending_[pi].first == k) {
      const std::size_t i = row_of_[k][pending_[pi].second];
      if (k == 0) {
        dirty_[i] = 1;
      } else {
        for (std::size_t t = transpose_start_[k - 1][i];
             t < transpose_start_[k - 1][i + 1]; ++t)
          dirty_[transpose_rows_[k - 1][t]] = 1;
      }
      ++pi;
    }
    for (std::size_t r = 0; r < rows; ++r) {
      if (dirty_[r] == 0) continue;
      if (k == 0) {
        const CsrPattern& f = partials.front();
        for (std::size_t ki = f.row_start[r]; ki < f.row_start[r + 1]; ++ki)
          partial_values_[0][ki] = factor_values[0][ki];
      } else {
        replay_row(k, r, factor_values[k].data());
      }
      ++replayed;
    }
  }
  pending_.clear();
  rows_replayed_ += replayed;
  WHART_COUNT_N("markov.incremental.rows_replayed", replayed);
  return replayed;
}

}  // namespace whart::markov
