#include "whart/numeric/rng.hpp"

#include <set>

#include <gtest/gtest.h>

namespace whart::numeric {
namespace {

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Xoshiro, UniformMeanIsHalf) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Xoshiro, BernoulliEdgeCases) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Xoshiro, BernoulliFrequencyMatchesP) {
  Xoshiro256 rng(5);
  constexpr int kSamples = 200000;
  int hits = 0;
  for (int i = 0; i < kSamples; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(Xoshiro, BelowStaysInRange) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(rng.below(13), 13u);
}

TEST(Xoshiro, BelowZeroBoundIsZero) {
  Xoshiro256 rng(9);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Xoshiro, BelowCoversAllResidues) {
  Xoshiro256 rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(SplitMix, KnownFirstValueIsStable) {
  std::uint64_t s1 = 0;
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

}  // namespace
}  // namespace whart::numeric
