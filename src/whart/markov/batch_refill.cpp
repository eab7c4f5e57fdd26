#include "whart/markov/batch_refill.hpp"

#include <limits>

#include "whart/common/contracts.hpp"
#include "whart/linalg/simd.hpp"

namespace whart::markov {

namespace {

constexpr std::size_t kNoTag = std::numeric_limits<std::size_t>::max();

}  // namespace

BatchRefill::BatchRefill(const ChainProductSkeleton& chain,
                         const std::vector<CsrPattern>& factors)
    : chain_(&chain), factors_(&factors) {
  expects(factors.size() == chain.factor_count(),
          "one factor pattern per chain step");
  expects(factors.front().nonzeros() == chain.partials().front().nonzeros(),
          "first factor matches its captured pattern");
  const std::vector<CsrPattern>& partials = chain.partials();
  if (partials.size() == 1) return;  // single factor: refill is a copy

  // Compile the Gustavson replay once: the same row/entry walk
  // linalg::multiply performs, recorded as a flat op list instead of
  // executed.  Replay then needs no marker array, no sparse accumulator
  // and no copy-out pass — each visit already knows its output slot.
  // Op order equals linalg::multiply's visit order, which makes every
  // lane bitwise equal to a fresh chain build.
  std::vector<std::uint32_t> col_slot(chain.max_cols(), 0);
  std::vector<std::size_t> col_tag(chain.max_cols(), kNoTag);
  std::size_t tag = 0;
  steps_.reserve(partials.size() - 1);
  for (std::size_t k = 1; k < partials.size(); ++k) {
    const CsrPattern& left = partials[k - 1];
    const CsrPattern& out = partials[k];
    const CsrPattern& b = factors[k];
    expects(b.rows == left.cols && b.cols == out.cols,
            "factor dimensions match the skeleton");
    const auto begin = static_cast<std::uint32_t>(ops_.size());
    for (std::size_t r = 0; r < out.rows; ++r) {
      // Column -> output entry slot of this row (the out pattern holds
      // exactly the columns the walk below reaches, by construction of
      // the skeleton).
      for (std::size_t ko = out.row_start[r]; ko < out.row_start[r + 1];
           ++ko)
        col_slot[out.col_index[ko]] = static_cast<std::uint32_t>(ko);
      const std::size_t row_tag = tag++;
      for (std::size_t ka = left.row_start[r]; ka < left.row_start[r + 1];
           ++ka) {
        const std::size_t ac = left.col_index[ka];
        for (std::size_t kb = b.row_start[ac]; kb < b.row_start[ac + 1];
             ++kb) {
          const std::size_t bc = b.col_index[kb];
          const bool first = col_tag[bc] != row_tag;
          col_tag[bc] = row_tag;
          ops_.push_back({static_cast<std::uint32_t>(ka),
                          static_cast<std::uint32_t>(kb),
                          col_slot[bc] | (first ? kFirstTouch : 0u)});
        }
      }
    }
    steps_.push_back({begin, static_cast<std::uint32_t>(ops_.size())});
  }
}

template <std::size_t kLanes>
void BatchRefill::replay(std::span<const std::vector<double>> factor_values,
                         std::size_t runtime_lanes, BatchLaneArena& arena,
                         std::span<double> values_out) const {
  const std::size_t lanes = kLanes == 0 ? runtime_lanes : kLanes;
  const std::size_t partial_count = chain_->partials().size();
  const double* left_values = factor_values.front().data();
  for (std::size_t k = 1; k < partial_count; ++k) {
    const double* b_values = factor_values[k].data();
    double* out_values = k + 1 == partial_count ? values_out.data()
                         : k % 2 == 1           ? arena.partial_a.data()
                                                : arena.partial_b.data();
    const Step step = steps_[k - 1];
    for (std::uint32_t i = step.begin; i < step.end; ++i) {
      const Op op = ops_[i];
      double* out = out_values + (op.out & ~kFirstTouch) * lanes;
      const double* av = left_values + op.a * lanes;
      const double* bv = b_values + op.b * lanes;
      if ((op.out & kFirstTouch) != 0)
        linalg::simd::mul(out, av, bv, lanes);
      else
        linalg::simd::mul_add(out, av, bv, lanes);
    }
    left_values = out_values;
  }
}

void BatchRefill::refill(std::span<const std::vector<double>> factor_values,
                         std::size_t lanes, BatchLaneArena& arena,
                         std::span<double> values_out) const {
  const std::vector<CsrPattern>& partials = chain_->partials();
  expects(lanes >= 1, "at least one lane");
  expects(factor_values.size() == partials.size(),
          "one value block per skeleton pattern");
  expects(values_out.size() == chain_->pattern().nonzeros() * lanes,
          "output sized to the product pattern times the lane count");
  for (std::size_t k = 0; k < factor_values.size(); ++k)
    expects(factor_values[k].size() == (*factors_)[k].nonzeros() * lanes,
            "factor values sized to their pattern times the lane count");

  const std::vector<double>& first = factor_values.front();
  if (partials.size() == 1) {
    linalg::simd::copy(values_out.data(), first.data(), values_out.size());
    return;
  }
  // Warm-up sizing only (no-ops once the arena saw this shape and lane
  // count).
  arena.partial_a.resize(chain_->max_partial_nonzeros() * lanes);
  arena.partial_b.resize(chain_->max_partial_nonzeros() * lanes);

  // Common lane counts dispatch to fixed-width instantiations
  // (flat-unrolled lane loops); anything else takes the runtime-width
  // instantiation — same arithmetic either way.
  switch (lanes) {
    case 1:
      replay<1>(factor_values, lanes, arena, values_out);
      break;
    case 4:
      replay<4>(factor_values, lanes, arena, values_out);
      break;
    case 8:
      replay<8>(factor_values, lanes, arena, values_out);
      break;
    case 16:
      replay<16>(factor_values, lanes, arena, values_out);
      break;
    default:
      replay<0>(factor_values, lanes, arena, values_out);
      break;
  }
}

}  // namespace whart::markov
