#include "whart/markov/structure.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "whart/common/contracts.hpp"

namespace whart::markov {

namespace {

/// Iterative Tarjan SCC (explicit stack — path DTMCs can be thousands of
/// states deep, so recursion is off the table).
struct Tarjan {
  const Dtmc& chain;
  std::vector<std::uint32_t> index;
  std::vector<std::uint32_t> low;
  std::vector<bool> on_stack;
  std::vector<StateIndex> stack;
  std::vector<std::vector<StateIndex>> components;
  std::uint32_t next_index = 1;  // 0 = unvisited

  explicit Tarjan(const Dtmc& c)
      : chain(c),
        index(c.num_states(), 0),
        low(c.num_states(), 0),
        on_stack(c.num_states(), false) {}

  struct Frame {
    StateIndex state;
    std::vector<StateIndex> successors;
    std::size_t next = 0;
  };

  void run(StateIndex root) {
    std::vector<Frame> frames;
    frames.push_back(make_frame(root));
    visit(root);

    while (!frames.empty()) {
      Frame& frame = frames.back();
      if (frame.next < frame.successors.size()) {
        const StateIndex successor = frame.successors[frame.next++];
        if (index[successor] == 0) {
          visit(successor);
          frames.push_back(make_frame(successor));
        } else if (on_stack[successor]) {
          low[frame.state] = std::min(low[frame.state], index[successor]);
        }
      } else {
        if (low[frame.state] == index[frame.state]) pop_component(frame.state);
        const StateIndex finished = frame.state;
        frames.pop_back();
        if (!frames.empty())
          low[frames.back().state] =
              std::min(low[frames.back().state], low[finished]);
      }
    }
  }

  Frame make_frame(StateIndex state) {
    Frame frame;
    frame.state = state;
    chain.matrix().for_each_in_row(state, [&](std::size_t to, double p) {
      if (p > 0.0) frame.successors.push_back(to);
    });
    return frame;
  }

  void visit(StateIndex state) {
    index[state] = low[state] = next_index++;
    stack.push_back(state);
    on_stack[state] = true;
  }

  void pop_component(StateIndex root) {
    std::vector<StateIndex> component;
    for (;;) {
      const StateIndex s = stack.back();
      stack.pop_back();
      on_stack[s] = false;
      component.push_back(s);
      if (s == root) break;
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
};

}  // namespace

ClassDecomposition communicating_classes(const Dtmc& chain) {
  expects(chain.num_states() > 0, "chain is non-empty");
  Tarjan tarjan(chain);
  for (StateIndex s = 0; s < chain.num_states(); ++s)
    if (tarjan.index[s] == 0) tarjan.run(s);

  ClassDecomposition result;
  result.classes = std::move(tarjan.components);
  // Deterministic order: by smallest member.
  std::sort(result.classes.begin(), result.classes.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  result.class_of.assign(chain.num_states(), 0);
  for (std::size_t c = 0; c < result.classes.size(); ++c)
    for (StateIndex s : result.classes[c]) result.class_of[s] = c;

  result.is_closed.assign(result.classes.size(), true);
  for (StateIndex s = 0; s < chain.num_states(); ++s) {
    chain.matrix().for_each_in_row(s, [&](std::size_t to, double p) {
      if (p > 0.0 && result.class_of[to] != result.class_of[s])
        result.is_closed[result.class_of[s]] = false;
    });
  }
  return result;
}

bool is_irreducible(const Dtmc& chain) {
  return communicating_classes(chain).class_count() == 1;
}

std::vector<StateIndex> recurrent_states(const Dtmc& chain) {
  const ClassDecomposition decomposition = communicating_classes(chain);
  std::vector<StateIndex> result;
  for (std::size_t c = 0; c < decomposition.class_count(); ++c)
    if (decomposition.is_closed[c])
      result.insert(result.end(), decomposition.classes[c].begin(),
                    decomposition.classes[c].end());
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<StateIndex> transient_states(const Dtmc& chain) {
  const ClassDecomposition decomposition = communicating_classes(chain);
  std::vector<StateIndex> result;
  for (std::size_t c = 0; c < decomposition.class_count(); ++c)
    if (!decomposition.is_closed[c])
      result.insert(result.end(), decomposition.classes[c].begin(),
                    decomposition.classes[c].end());
  std::sort(result.begin(), result.end());
  return result;
}

std::uint32_t period(const Dtmc& chain, StateIndex state) {
  expects(state < chain.num_states(), "state in range");
  // BFS levels within the state's communicating class; the period is the
  // gcd of (level(u) + 1 - level(v)) over intra-class edges u -> v.
  const ClassDecomposition decomposition = communicating_classes(chain);
  const std::size_t cls = decomposition.class_of[state];

  std::vector<std::int64_t> level(chain.num_states(), -1);
  std::vector<StateIndex> queue{state};
  level[state] = 0;
  std::uint32_t gcd = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const StateIndex u = queue[head];
    chain.matrix().for_each_in_row(u, [&](std::size_t to, double p) {
      if (p <= 0.0 || decomposition.class_of[to] != cls) return;
      if (level[to] < 0) {
        level[to] = level[u] + 1;
        queue.push_back(to);
      } else {
        const std::int64_t difference = level[u] + 1 - level[to];
        gcd = std::gcd(gcd, static_cast<std::uint32_t>(
                                difference < 0 ? -difference : difference));
      }
    });
  }
  return gcd;
}

bool is_ergodic(const Dtmc& chain) {
  return is_irreducible(chain) && period(chain, 0) == 1;
}

double max_row_sum_residual(const Dtmc& chain) {
  long double worst = 0.0L;
  for (std::size_t row = 0; row < chain.num_states(); ++row) {
    long double sum = 0.0L;
    chain.matrix().for_each_in_row(
        row, [&](std::size_t, double value) { sum += value; });
    const long double residual = sum > 1.0L ? sum - 1.0L : 1.0L - sum;
    worst = std::max(worst, residual);
  }
  return static_cast<double>(worst);
}

double distribution_mass_residual(const linalg::Vector& distribution) {
  long double sum = 0.0L;
  for (double value : distribution) sum += value;
  const long double residual = sum > 1.0L ? sum - 1.0L : 1.0L - sum;
  return static_cast<double>(residual);
}

CsrPattern CsrPattern::of(const linalg::CsrMatrix& matrix) {
  CsrPattern pattern;
  pattern.rows = matrix.rows();
  pattern.cols = matrix.cols();
  pattern.row_start.reserve(matrix.rows() + 1);
  pattern.row_start.push_back(0);
  pattern.col_index.reserve(matrix.nonzeros());
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    matrix.for_each_in_row(
        r, [&](std::size_t c, double) { pattern.col_index.push_back(c); });
    pattern.row_start.push_back(pattern.col_index.size());
  }
  return pattern;
}

namespace {

constexpr std::size_t kNoTag = std::numeric_limits<std::size_t>::max();

/// Pattern of a * b: the symbolic half of Gustavson's algorithm (the
/// same marker walk linalg::multiply runs, minus the arithmetic).
CsrPattern symbolic_multiply(const CsrPattern& a, const CsrPattern& b) {
  expects(a.cols == b.rows, "inner dimensions agree");
  CsrPattern out;
  out.rows = a.rows;
  out.cols = b.cols;
  out.row_start.reserve(a.rows + 1);
  out.row_start.push_back(0);
  std::vector<std::size_t> marker(b.cols, kNoTag);
  std::vector<std::size_t> scratch;
  for (std::size_t r = 0; r < a.rows; ++r) {
    scratch.clear();
    for (std::size_t ka = a.row_start[r]; ka < a.row_start[r + 1]; ++ka) {
      const std::size_t ac = a.col_index[ka];
      for (std::size_t kb = b.row_start[ac]; kb < b.row_start[ac + 1]; ++kb) {
        const std::size_t bc = b.col_index[kb];
        if (marker[bc] != r) {
          marker[bc] = r;
          scratch.push_back(bc);
        }
      }
    }
    std::sort(scratch.begin(), scratch.end());
    out.col_index.insert(out.col_index.end(), scratch.begin(), scratch.end());
    out.row_start.push_back(out.col_index.size());
  }
  return out;
}

}  // namespace

ChainProductSkeleton::ChainProductSkeleton(
    const std::vector<CsrPattern>& factors) {
  expects(!factors.empty(), "chain has at least one factor");
  partials_.reserve(factors.size());
  partials_.push_back(factors.front());
  for (std::size_t k = 1; k < factors.size(); ++k)
    partials_.push_back(symbolic_multiply(partials_.back(), factors[k]));
  for (const CsrPattern& p : partials_) max_cols_ = std::max(max_cols_, p.cols);
  for (std::size_t k = 0; k + 1 < partials_.size(); ++k)
    max_partial_nnz_ = std::max(max_partial_nnz_, partials_[k].nonzeros());
}

}  // namespace whart::markov
