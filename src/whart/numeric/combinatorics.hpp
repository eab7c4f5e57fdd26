// Combinatorial helpers used by the analytic (negative-binomial) path model.
#pragma once

#include <cstdint>

namespace whart::numeric {

/// Binomial coefficient C(n, k) computed in floating point.
///
/// Exact for the small arguments used by the path model (n below ~50) and
/// numerically stable for larger ones (multiplicative form).  Returns 0 for
/// k > n.
double binomial(std::uint32_t n, std::uint32_t k) noexcept;

/// Number of ways to place `failures` retries among `hops` hops of a path
/// (stars and bars): C(failures + hops - 1, failures).
double retry_placements(std::uint32_t failures, std::uint32_t hops) noexcept;

}  // namespace whart::numeric
