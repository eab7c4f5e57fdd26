// Deterministic pseudo-random number generation for the Monte-Carlo
// simulator.  A small xoshiro256** implementation is used instead of
// std::mt19937 so that simulation results are reproducible across standard
// library implementations.
#pragma once

#include <array>
#include <cstdint>

namespace whart::numeric {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
///
/// Fast, high-quality 64-bit generator with 2^256-1 period.  Seeded through
/// SplitMix64 so that any 64-bit seed produces a well-mixed state.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Construct from a 64-bit seed (expanded via SplitMix64).
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept;

  /// UniformRandomBitGenerator interface.
  std::uint64_t operator()() noexcept { return next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~0ULL; }

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Bernoulli trial: true with probability p (p clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Uniform integer in [0, bound) using Lemire's rejection-free reduction.
  std::uint64_t below(std::uint64_t bound) noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// SplitMix64 step; exposed for seeding utilities and tests.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

}  // namespace whart::numeric
