// Differential tests for the Montgomery kernels. For each width the kernel
// Montgomery dispatches to (the fixed-width kernel on CPUs with BMI2), the
// portable kernel and a BigInt oracle, (a * b * R^{-1}) mod N by plain
// multiply and mod, must agree bit for bit: on edge operands and random
// pairs, on moduli at both ends of the top limb, and with the output
// aliasing either input or both.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/montgomery.h"
#include "bignum/random.h"
#include "common/rng.h"

namespace ice::bn {
namespace {

using Limb = BigInt::Limb;
using Limbs = std::vector<Limb>;

constexpr int kRandomPairsPerWidth = 10000;

Limbs to_limbs(const BigInt& x, std::size_t k) {
  Limbs out(k, 0);
  const LimbBuf& limbs = x.limbs();
  std::copy(limbs.begin(), limbs.end(), out.begin());
  return out;
}

BigInt from_limbs(const Limbs& x) {
  return BigInt::from_limbs(x.data(), x.size());
}

// The moduli a width is tested on: the top limb all ones (N just below
// 2^{64k}), the top limb 2^63 with random lower limbs (N just above
// 2^{64k-1}), and the sparsest such modulus, 2^{64k-1} + 1.
std::vector<BigInt> moduli_for(std::size_t k, SplitMix64& gen) {
  Limbs high(k), low(k), sparse(k, 0);
  for (std::size_t i = 0; i < k; ++i) {
    high[i] = gen();
    low[i] = gen();
  }
  high[k - 1] = ~Limb{0};
  low[k - 1] = Limb{1} << 63;
  sparse[k - 1] = Limb{1} << 63;
  high[0] |= 1;
  low[0] |= 1;
  sparse[0] = 1;
  return {from_limbs(high), from_limbs(low), from_limbs(sparse)};
}

// Everything one modulus needs: the context, its raw limbs and constants
// for the portable entry points, and R^{-1} mod N for the oracle.
struct Case {
  explicit Case(const BigInt& modulus)
      : n(modulus),
        mont(modulus),
        k(mont.limb_count()),
        n_limbs(to_limbs(modulus, k)),
        r_inv(mod_inverse((BigInt(1) << (64 * k)).mod(modulus), modulus)),
        scratch(mont.scratch_limbs()) {
    Limb inv = 1;  // N^{-1} mod 2^64 by Newton iteration
    for (int i = 0; i < 6; ++i) inv *= 2 - n_limbs[0] * inv;
    n0inv = ~inv + 1;
  }

  BigInt oracle(const BigInt& a, const BigInt& b) const {
    return ((a * b).mod(n) * r_inv).mod(n);
  }

  // Checks out = a * b * R^{-1} mod N through every entry point and every
  // aliasing pattern (with a == b this also covers the squaring kernels).
  void check(const Limbs& a, const Limbs& b) {
    const BigInt want = oracle(from_limbs(a), from_limbs(b));
    const bool square = a == b;
    Limbs out(k);
    mont.mul_into(out.data(), a.data(), b.data(), scratch.data());
    EXPECT_EQ(from_limbs(out), want) << "dispatched mul";
    detail::mont_mul_portable(out.data(), a.data(), b.data(), n_limbs.data(),
                              n0inv, k, scratch.data());
    EXPECT_EQ(from_limbs(out), want) << "portable mul";

    Limbs alias = a;  // out == a
    mont.mul_into(alias.data(), alias.data(), b.data(), scratch.data());
    EXPECT_EQ(from_limbs(alias), want) << "dispatched mul, out == a";
    alias = a;
    detail::mont_mul_portable(alias.data(), alias.data(), b.data(),
                              n_limbs.data(), n0inv, k, scratch.data());
    EXPECT_EQ(from_limbs(alias), want) << "portable mul, out == a";
    alias = b;  // out == b
    mont.mul_into(alias.data(), a.data(), alias.data(), scratch.data());
    EXPECT_EQ(from_limbs(alias), want) << "dispatched mul, out == b";
    alias = b;
    detail::mont_mul_portable(alias.data(), a.data(), alias.data(),
                              n_limbs.data(), n0inv, k, scratch.data());
    EXPECT_EQ(from_limbs(alias), want) << "portable mul, out == b";

    if (!square) return;
    mont.sqr_into(out.data(), a.data(), scratch.data());
    EXPECT_EQ(from_limbs(out), want) << "dispatched sqr";
    detail::mont_sqr_portable(out.data(), a.data(), n_limbs.data(), n0inv, k,
                              scratch.data());
    EXPECT_EQ(from_limbs(out), want) << "portable sqr";
    alias = a;  // out == a == b
    mont.mul_into(alias.data(), alias.data(), alias.data(), scratch.data());
    EXPECT_EQ(from_limbs(alias), want) << "dispatched mul, out == a == b";
    alias = a;
    mont.sqr_into(alias.data(), alias.data(), scratch.data());
    EXPECT_EQ(from_limbs(alias), want) << "dispatched sqr, out == a";
    alias = a;
    detail::mont_sqr_portable(alias.data(), alias.data(), n_limbs.data(),
                              n0inv, k, scratch.data());
    EXPECT_EQ(from_limbs(alias), want) << "portable sqr, out == a";
  }

  BigInt n;
  Montgomery mont;
  std::size_t k;
  Limbs n_limbs;
  BigInt r_inv;
  Limb n0inv = 0;
  Montgomery::LimbVec scratch;
};

// Edge residues: 0, 1, N - 1, R mod N, and the all-ones limb pattern under
// N's top limb (every lower limb 2^64 - 1, the top limb one below N's).
std::vector<Limbs> edge_operands(const Case& c) {
  const std::size_t k = c.k;
  Limbs ones(k, ~Limb{0});
  ones[k - 1] = c.n_limbs[k - 1] - 1;
  return {to_limbs(BigInt(0), k), to_limbs(BigInt(1), k),
          to_limbs(c.n - BigInt(1), k),
          to_limbs((BigInt(1) << (64 * k)).mod(c.n), k), ones};
}

class KernelDiffTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelDiffTest, EdgeOperandsMatchPortableAndOracle) {
  const std::size_t k = GetParam();
  SplitMix64 gen(1000 + k);
  for (const BigInt& n : moduli_for(k, gen)) {
    Case c(n);
    ASSERT_EQ(c.k, k);
    const std::vector<Limbs> edges = edge_operands(c);
    for (const Limbs& a : edges) {
      for (const Limbs& b : edges) c.check(a, b);
    }
  }
}

TEST_P(KernelDiffTest, RandomPairsMatchPortableAndOracle) {
  const std::size_t k = GetParam();
  SplitMix64 gen(2000 + k);
  Rng64Adapter rng(gen);
  const std::vector<BigInt> moduli = moduli_for(k, gen);
  for (const BigInt& n : moduli) {
    Case c(n);
    const int pairs = kRandomPairsPerWidth / static_cast<int>(moduli.size());
    for (int i = 0; i < pairs; ++i) {
      const Limbs a = to_limbs(random_below(rng, n), k);
      const Limbs b = to_limbs(random_below(rng, n), k);
      c.check(a, b);
      if (i % 4 == 0) c.check(a, a);  // squarings of random residues
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// 4/8/16/32 limbs have fixed-width kernels; 5 limbs (320 bits) keeps the
// portable kernel's own path under the dispatched entry points.
INSTANTIATE_TEST_SUITE_P(Widths, KernelDiffTest,
                         ::testing::Values(std::size_t{4}, std::size_t{8},
                                           std::size_t{16}, std::size_t{32},
                                           std::size_t{5}));

}  // namespace
}  // namespace ice::bn
