// Tests for Montgomery modular arithmetic and mod_pow.
#include "bignum/montgomery.h"

#include <gtest/gtest.h>

#include "bignum/random.h"
#include "common/error.h"
#include "common/rng.h"
#include "support/fixtures.h"

namespace ice::bn {
namespace {

TEST(MontgomeryTest, RejectsEvenOrTrivialModulus) {
  EXPECT_THROW(Montgomery(BigInt(8)), ParamError);
  EXPECT_THROW(Montgomery(BigInt(1)), ParamError);
  EXPECT_THROW(Montgomery(BigInt(0)), ParamError);
}

TEST(MontgomeryTest, MulMatchesPlainModularMultiply) {
  const Montgomery mont(BigInt(101));
  for (int a = 0; a < 101; a += 7) {
    for (int b = 0; b < 101; b += 11) {
      EXPECT_EQ(mont.mul(BigInt(a), BigInt(b)), BigInt((a * b) % 101));
    }
  }
}

TEST(MontgomeryTest, MulReducesUnreducedInputs) {
  const Montgomery mont(BigInt(101));
  EXPECT_EQ(mont.mul(BigInt(1000), BigInt(2000)),
            (BigInt(1000) * BigInt(2000)).mod(BigInt(101)));
}

TEST(MontgomeryTest, PowSmallKnownValues) {
  const Montgomery mont(BigInt(std::int64_t{1000000007}));
  EXPECT_EQ(mont.pow(BigInt(2), BigInt(10)), BigInt(1024));
  EXPECT_EQ(mont.pow(BigInt(3), BigInt(0)), BigInt(1));
  EXPECT_EQ(mont.pow(BigInt(0), BigInt(5)), BigInt(0));
  EXPECT_EQ(mont.pow(BigInt(7), BigInt(1)), BigInt(7));
}

TEST(MontgomeryTest, PowNegativeExponentThrows) {
  const Montgomery mont(BigInt(101));
  EXPECT_THROW(mont.pow(BigInt(2), BigInt(-1)), ParamError);
}

TEST(MontgomeryTest, PowMatchesNaiveSquareAndMultiply) {
  SplitMix64 gen(77);
  Rng64Adapter rng(gen);
  const BigInt m = BigInt::from_hex(std::string(testing::kSafePrime128[0]));
  const Montgomery mont(m);
  for (int i = 0; i < 20; ++i) {
    const BigInt base = random_below(rng, m);
    const BigInt exp = random_bits(rng, 40);
    // Naive reference.
    BigInt want(1);
    for (std::size_t b = exp.bit_length(); b-- > 0;) {
      want = (want * want).mod(m);
      if (exp.bit(b)) want = (want * base).mod(m);
    }
    EXPECT_EQ(mont.pow(base, exp), want);
  }
}

// Naive square-and-multiply: the reference pow_into must match.
BigInt naive_pow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  BigInt want(1);
  for (std::size_t b = exp.bit_length(); b-- > 0;) {
    want = (want * want).mod(m);
    if (exp.bit(b)) want = (want * base).mod(m);
  }
  return want;
}

// Past 1024 exponent bits the window widens one bit at each of 1792, 4608,
// 11520 and 28160 bits until the odd-power table would pass 32 KiB (w = 9
// at |N| = 1024; w = 10 is reachable at |N| = 128). Every length on both
// sides of each threshold must still match the naive reference.
TEST(MontgomeryTest, LongExponentWindowsMatchNaiveSquareAndMultiply) {
  SplitMix64 gen(81);
  Rng64Adapter rng(gen);
  const BigInt n1024 =
      BigInt::from_hex(std::string(testing::kSafePrime512[0])) *
      BigInt::from_hex(std::string(testing::kSafePrime512[1]));
  const BigInt n128 = BigInt::from_hex(std::string(testing::kSafePrime128[0]));
  for (const BigInt& m : {n1024, n128}) {
    const Montgomery mont(m);
    for (std::size_t bits : {1024, 1025, 1792, 1793, 4608, 4609, 11520, 11521,
                             28160, 28161}) {
      const BigInt base = random_below(rng, m);
      BigInt exp = random_bits(rng, bits - 1) + (BigInt(1) << (bits - 1));
      ASSERT_EQ(exp.bit_length(), bits);
      EXPECT_EQ(mont.pow(base, exp), naive_pow(base, exp, m))
          << "|N| = " << m.bit_length() << ", |e| = " << bits;
    }
  }
}

TEST(MontgomeryTest, FermatLittleTheorem) {
  SplitMix64 gen(78);
  Rng64Adapter rng(gen);
  for (auto hex : testing::kSafePrime256) {
    const BigInt p = BigInt::from_hex(std::string(hex));
    const Montgomery mont(p);
    const BigInt a = random_below(rng, p - BigInt(2)) + BigInt(1);
    EXPECT_EQ(mont.pow(a, p - BigInt(1)), BigInt(1));
  }
}

TEST(MontgomeryTest, PowKnownVector512) {
  // pow(a, b, p) value computed with CPython.
  const BigInt a = BigInt::from_hex(
      "331057c7d411fab9fb932d4f039772216ff82e389e3995ab35331ceaf2ed9dd87e355b"
      "26210b784baa1c6f1404b6eaf162a01dec28753f8221c4e003f9931ee3af27f802dc5f"
      "d3d9974d75b333824fe61790134676b1b69");
  const BigInt b = BigInt::from_hex(
      "15a91215785d99773382dd301c8a91afa5c7623c4dd26fb984f366c5acdaeafb905dc8"
      "ac0bb635b4c41d283eb3a5fbd238ec9cf158de6e96d45cae8c077377925b396a1da2c9"
      "cfbba43b8e3c71f6bf08d62");
  const BigInt p = BigInt::from_hex(std::string(testing::kSafePrime256[0]));
  EXPECT_EQ(
      Montgomery(p).pow(a, b),
      BigInt::from_hex(
          "991e7c77906e09cf0123f418e038772f383ecd7eb0263216d647472489389a90"));
}

TEST(MontgomeryTest, ExponentLawsHold) {
  SplitMix64 gen(79);
  Rng64Adapter rng(gen);
  const BigInt n = BigInt::from_hex(std::string(testing::kSafePrime128[0])) *
                   BigInt::from_hex(std::string(testing::kSafePrime128[1]));
  const Montgomery mont(n);
  for (int i = 0; i < 10; ++i) {
    const BigInt g = random_unit(rng, n);
    const BigInt x = random_bits(rng, 96);
    const BigInt y = random_bits(rng, 96);
    // g^(x+y) == g^x * g^y; (g^x)^y == g^(xy)
    EXPECT_EQ(mont.pow(g, x + y), mont.mul(mont.pow(g, x), mont.pow(g, y)));
    EXPECT_EQ(mont.pow(mont.pow(g, x), y), mont.pow(g, x * y));
  }
}

TEST(ModPowTest, HandlesEvenModulus) {
  EXPECT_EQ(mod_pow(BigInt(3), BigInt(4), BigInt(16)), BigInt(1));
  EXPECT_EQ(mod_pow(BigInt(2), BigInt(10), BigInt(100)), BigInt(24));
  EXPECT_EQ(mod_pow(BigInt(5), BigInt(0), BigInt(10)), BigInt(1));
}

TEST(ModPowTest, ModulusOneGivesZero) {
  EXPECT_EQ(mod_pow(BigInt(5), BigInt(3), BigInt(1)), BigInt(0));
}

TEST(ModPowTest, RejectsBadArguments) {
  EXPECT_THROW(mod_pow(BigInt(2), BigInt(3), BigInt(0)), ParamError);
  EXPECT_THROW(mod_pow(BigInt(2), BigInt(3), BigInt(-5)), ParamError);
  EXPECT_THROW(mod_pow(BigInt(2), BigInt(-3), BigInt(10)), ParamError);
}

TEST(ModPowTest, LargeExponentMatchesDecomposition) {
  // g^(2^k * r) == (g^(2^k))^r with a multi-limb exponent; exercises the
  // block-sized-exponent path used by TagGen.
  SplitMix64 gen(80);
  Rng64Adapter rng(gen);
  const BigInt p = BigInt::from_hex(std::string(testing::kSafePrime256[1]));
  const BigInt g = random_unit(rng, p);
  const BigInt r = random_bits(rng, 2000);
  const BigInt e = r << 128;
  BigInt g2k = g;
  const Montgomery mont(p);
  for (int i = 0; i < 128; ++i) g2k = mont.mul(g2k, g2k);
  EXPECT_EQ(mont.pow(g, e), mont.pow(g2k, r));
}

}  // namespace
}  // namespace ice::bn
