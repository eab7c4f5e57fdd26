// Discrete distribution used by the models: the negative binomial
// (cycles needed to traverse an n-hop path with i.i.d. per-attempt
// success).
#pragma once

#include <cstdint>
#include <vector>

namespace whart::numeric {

/// Negative-binomial cycle distribution for an n-hop path.
///
/// With links in steady state, every scheduled attempt succeeds i.i.d. with
/// probability ps.  A message that is absorbed in cycle m has accumulated
/// exactly m-1 failed attempts, distributed over the n hops in any order:
///   P(cycle = m) = C(m-1 + n-1, m-1) * ps^n * (1-ps)^(m-1).
/// Returns the probabilities for cycles 1..max_cycles (not normalized — the
/// remaining mass is the probability of discard after max_cycles).
std::vector<double> negative_binomial_cycles(std::uint32_t hops, double ps,
                                             std::uint32_t max_cycles);

}  // namespace whart::numeric
