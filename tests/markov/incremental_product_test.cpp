#include "whart/markov/incremental_product.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "whart/common/contracts.hpp"
#include "whart/linalg/sparse.hpp"
#include "whart/markov/structure.hpp"
#include "whart/numeric/rng.hpp"

namespace whart::markov {
namespace {

/// Random square CSR chain factor: every row gets a self entry plus a
/// few random columns, so the chain product never collapses to empty.
linalg::CsrMatrix random_factor(std::size_t n, numeric::Xoshiro256& rng) {
  std::vector<linalg::Triplet> entries;
  for (std::size_t r = 0; r < n; ++r) {
    entries.push_back({r, r, 0.2 + 0.6 * rng.uniform()});
    const std::size_t extra = rng.below(3);
    for (std::size_t e = 0; e < extra; ++e)
      entries.push_back({r, rng.below(n), 0.01 + 0.5 * rng.uniform()});
  }
  return linalg::CsrMatrix(n, n, std::move(entries));
}

std::vector<CsrPattern> patterns_of(
    const std::vector<linalg::CsrMatrix>& factors) {
  std::vector<CsrPattern> patterns;
  patterns.reserve(factors.size());
  for (const linalg::CsrMatrix& m : factors)
    patterns.push_back(CsrPattern::of(m));
  return patterns;
}

/// One-lane value arrays of the factors (the layout IncrementalProduct
/// reads).
std::vector<std::vector<double>> values_of(
    const std::vector<linalg::CsrMatrix>& factors) {
  std::vector<std::vector<double>> values;
  values.reserve(factors.size());
  for (const linalg::CsrMatrix& m : factors)
    values.emplace_back(m.values().begin(), m.values().end());
  return values;
}

/// The reference product: a fresh linalg::multiply chain build.
std::vector<double> multiply_chain(
    const std::vector<linalg::CsrMatrix>& factors) {
  linalg::CsrMatrix product = factors.front();
  for (std::size_t k = 1; k < factors.size(); ++k)
    product = linalg::multiply(product, factors[k]);
  return {product.values().begin(), product.values().end()};
}

void expect_bitwise(std::span<const double> a, std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "entry " << i << ": " << a[i] << " vs " << b[i];
}

TEST(IncrementalProduct, RefillMatchesSkeletonBitwise) {
  numeric::Xoshiro256 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.below(7);
    const std::size_t chain_length = 1 + rng.below(6);
    std::vector<linalg::CsrMatrix> factors;
    for (std::size_t k = 0; k < chain_length; ++k)
      factors.push_back(random_factor(n, rng));
    const std::vector<CsrPattern> patterns = patterns_of(factors);
    const ChainProductSkeleton chain(patterns);

    IncrementalProduct product(chain, patterns);
    EXPECT_FALSE(product.seeded());
    product.refill(values_of(factors));
    EXPECT_TRUE(product.seeded());
    expect_bitwise(multiply_chain(factors), product.values());
  }
}

TEST(IncrementalProduct, TargetedUpdatesMatchFullRefillBitwise) {
  numeric::Xoshiro256 rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + rng.below(6);
    const std::size_t chain_length = 2 + rng.below(5);
    std::vector<linalg::CsrMatrix> factors;
    for (std::size_t k = 0; k < chain_length; ++k)
      factors.push_back(random_factor(n, rng));
    const std::vector<CsrPattern> patterns = patterns_of(factors);
    const ChainProductSkeleton chain(patterns);
    IncrementalProduct product(chain, patterns);
    std::vector<std::vector<double>> values = values_of(factors);
    product.refill(values);

    // Several rounds of sparse mutations against the same product: the
    // dirty-row replay must stay bitwise equal to a from-scratch chain
    // build after every round, not just the first.
    for (int round = 0; round < 4; ++round) {
      const std::size_t mutations = 1 + rng.below(4);
      for (std::size_t m = 0; m < mutations; ++m) {
        const std::size_t k = rng.below(factors.size());
        const std::size_t vi = rng.below(factors[k].nonzeros());
        factors[k].values()[vi] = 0.01 + 0.9 * rng.uniform();
        values[k][vi] = factors[k].values()[vi];
        product.update(k, vi);
      }
      product.propagate(values);
      expect_bitwise(multiply_chain(factors), product.values());
    }
  }
}

TEST(IncrementalProduct, PropagateWithoutPendingIsANoop) {
  numeric::Xoshiro256 rng(5);
  std::vector<linalg::CsrMatrix> factors;
  for (int k = 0; k < 3; ++k) factors.push_back(random_factor(4, rng));
  const std::vector<CsrPattern> patterns = patterns_of(factors);
  const ChainProductSkeleton chain(patterns);
  IncrementalProduct product(chain, patterns);
  const std::vector<std::vector<double>> values = values_of(factors);
  product.refill(values);
  const std::uint64_t replayed_before = product.rows_replayed();
  EXPECT_EQ(product.propagate(values), 0u);
  EXPECT_EQ(product.rows_replayed(), replayed_before);
}

TEST(IncrementalProduct, PropagateBeforeSeedingThrows) {
  numeric::Xoshiro256 rng(7);
  std::vector<linalg::CsrMatrix> factors{random_factor(3, rng)};
  const std::vector<CsrPattern> patterns = patterns_of(factors);
  const ChainProductSkeleton chain(patterns);
  IncrementalProduct product(chain, patterns);
  product.update(0, 0);
  EXPECT_THROW(product.propagate(values_of(factors)), precondition_error);
}

TEST(IncrementalProduct, LastFactorUpdateReplaysOnlyTheFinalStage) {
  // Bidiagonal factors (the shape of per-slot superframe matrices): an
  // update confined to the last factor can dirty rows of the final
  // partial only — the replay must not walk earlier stages.
  const std::size_t n = 16;
  const std::size_t chain_length = 8;
  numeric::Xoshiro256 rng(41);
  std::vector<linalg::CsrMatrix> factors;
  for (std::size_t k = 0; k < chain_length; ++k) {
    std::vector<linalg::Triplet> entries;
    for (std::size_t r = 0; r < n; ++r) {
      entries.push_back({r, r, 0.3 + 0.5 * rng.uniform()});
      if (r + 1 < n) entries.push_back({r, r + 1, 0.1 + 0.3 * rng.uniform()});
    }
    factors.push_back(linalg::CsrMatrix(n, n, std::move(entries)));
  }
  const std::vector<CsrPattern> patterns = patterns_of(factors);
  const ChainProductSkeleton chain(patterns);
  IncrementalProduct product(chain, patterns);
  std::vector<std::vector<double>> values = values_of(factors);
  product.refill(values);

  const std::size_t k = chain_length - 1;
  factors[k].values()[0] = 0.123456789;
  values[k][0] = 0.123456789;
  product.update(k, 0);
  const std::size_t replayed = product.propagate(values);
  EXPECT_GT(replayed, 0u);
  EXPECT_LE(replayed, n);  // one stage, at most every row of it

  expect_bitwise(multiply_chain(factors), product.values());
}

TEST(IncrementalProduct, RejectsMismatchedFactors) {
  numeric::Xoshiro256 rng(3);
  std::vector<linalg::CsrMatrix> factors;
  for (int k = 0; k < 2; ++k) factors.push_back(random_factor(4, rng));
  const std::vector<CsrPattern> patterns = patterns_of(factors);
  const ChainProductSkeleton chain(patterns);
  const std::vector<CsrPattern> too_few(patterns.begin(),
                                        patterns.begin() + 1);
  EXPECT_THROW(IncrementalProduct(chain, too_few), precondition_error);
}

}  // namespace
}  // namespace whart::markov
