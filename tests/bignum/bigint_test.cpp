// Unit tests for BigInt: construction, formatting, arithmetic semantics,
// and known-answer vectors (cross-checked against CPython integers).
#include "bignum/bigint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/error.h"

namespace ice::bn {
namespace {

TEST(BigIntTest, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.sign(), 0);
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_EQ(z.to_dec(), "0");
}

TEST(BigIntTest, ConstructFromInt64Extremes) {
  const BigInt min(std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(min.to_hex(), "-8000000000000000");
  const BigInt max(std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(max.to_hex(), "7fffffffffffffff");
  const BigInt neg1(-1);
  EXPECT_EQ(neg1.to_dec(), "-1");
}

TEST(BigIntTest, ConstructFromUint64) {
  const BigInt v(std::uint64_t{0xffffffffffffffffULL});
  EXPECT_EQ(v.to_hex(), "ffffffffffffffff");
  EXPECT_TRUE(v.fits_u64());
  EXPECT_EQ(v.to_u64(), 0xffffffffffffffffULL);
}

TEST(BigIntTest, HexRoundTripMultiLimb) {
  const char* hex = "123456789abcdef0fedcba9876543210deadbeefcafebabe";
  EXPECT_EQ(BigInt::from_hex(hex).to_hex(), hex);
}

TEST(BigIntTest, HexNegative) {
  EXPECT_EQ(BigInt::from_hex("-ff").to_dec(), "-255");
  EXPECT_EQ(BigInt::from_hex("+ff").to_dec(), "255");
}

TEST(BigIntTest, HexRejectsEmptyAndJunk) {
  EXPECT_THROW(BigInt::from_hex(""), std::invalid_argument);
  EXPECT_THROW(BigInt::from_hex("-"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_hex("12g4"), std::invalid_argument);
}

TEST(BigIntTest, DecRoundTripLarge) {
  const char* dec =
      "104922943371945536837746023173129342359073825627635120337831039158762"
      "026316178422251981219271950664193860894474875134966732447075199560571"
      "2607944340068265775713028018353632640754772527502062335762952184249654121";
  EXPECT_EQ(BigInt::from_dec(dec).to_dec(), dec);
}

TEST(BigIntTest, DecHexAgree) {
  const BigInt a = BigInt::from_dec(
      "104922943371945536837746023173129342359073825627635120337831039158762"
      "026316178422251981219271950664193860894474875134966732447075199560571"
      "2607944340068265775713028018353632640754772527502062335762952184249654121");
  const BigInt b = BigInt::from_hex(
      "331057c7d411fab9fb932d4f039772216ff82e389e3995ab35331ceaf2ed9dd87e355b"
      "26210b784baa1c6f1404b6eaf162a01dec28753f8221c4e003f9931ee3af27f802dc5f"
      "d3d9974d75b333824fe61790134676b1b69");
  EXPECT_EQ(a, b);
}

TEST(BigIntTest, BytesRoundTrip) {
  const Bytes raw = {0x01, 0x02, 0x03, 0xff, 0x00, 0x80};
  const BigInt v = BigInt::from_bytes_be(raw);
  EXPECT_EQ(v.to_hex(), "10203ff0080");  // minimal hex, no leading zero
  EXPECT_EQ(v.to_bytes_be(), raw);
}

TEST(BigIntTest, BytesLeadingZerosIgnoredOnParse) {
  const Bytes raw = {0x00, 0x00, 0x05};
  EXPECT_EQ(BigInt::from_bytes_be(raw), BigInt(5));
}

TEST(BigIntTest, BytesFixedWidthPadsAndRejects) {
  const BigInt v(0x1234);
  const Bytes padded = v.to_bytes_be(4);
  EXPECT_EQ(padded, (Bytes{0x00, 0x00, 0x12, 0x34}));
  EXPECT_THROW(v.to_bytes_be(1), ParamError);
}

TEST(BigIntTest, ZeroBytesEmpty) {
  EXPECT_TRUE(BigInt(0).to_bytes_be().empty());
  EXPECT_EQ(BigInt(0).to_bytes_be(3), (Bytes{0, 0, 0}));
}

TEST(BigIntTest, BitLengthAndBit) {
  const BigInt v = BigInt::from_hex("10000000000000000");  // 2^64
  EXPECT_EQ(v.bit_length(), 65u);
  EXPECT_TRUE(v.bit(64));
  EXPECT_FALSE(v.bit(63));
  EXPECT_FALSE(v.bit(1000));
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(255).bit_length(), 8u);
}

TEST(BigIntTest, AdditionCarriesAcrossLimbs) {
  const BigInt a = BigInt::from_hex("ffffffffffffffffffffffffffffffff");
  EXPECT_EQ((a + BigInt(1)).to_hex(), "100000000000000000000000000000000");
}

TEST(BigIntTest, SubtractionBorrowsAcrossLimbs) {
  const BigInt a = BigInt::from_hex("100000000000000000000000000000000");
  EXPECT_EQ((a - BigInt(1)).to_hex(), "ffffffffffffffffffffffffffffffff");
}

TEST(BigIntTest, MixedSignAddition) {
  EXPECT_EQ(BigInt(5) + BigInt(-7), BigInt(-2));
  EXPECT_EQ(BigInt(-5) + BigInt(7), BigInt(2));
  EXPECT_EQ(BigInt(-5) + BigInt(-7), BigInt(-12));
  EXPECT_EQ(BigInt(5) + BigInt(-5), BigInt(0));
}

TEST(BigIntTest, MultiplyKnownVector) {
  // Vector generated with CPython.
  const BigInt a = BigInt::from_hex(
      "331057c7d411fab9fb932d4f039772216ff82e389e3995ab35331ceaf2ed9dd87e355b"
      "26210b784baa1c6f1404b6eaf162a01dec28753f8221c4e003f9931ee3af27f802dc5f"
      "d3d9974d75b333824fe61790134676b1b69");
  const BigInt b = BigInt::from_hex(
      "15a91215785d99773382dd301c8a91afa5c7623c4dd26fb984f366c5acdaeafb905dc8"
      "ac0bb635b4c41d283eb3a5fbd238ec9cf158de6e96d45cae8c077377925b396a1da2c9"
      "cfbba43b8e3c71f6bf08d62");
  const BigInt ab = BigInt::from_hex(
      "4521098c5d60e6f89dadb6c0eabd1ae8ed7fd2a0dcf8c8594d8077fbd55e3763d47c07"
      "5bed0379fbedc18bc93bc81076c035a3e0a9e31ac4201f6f7d68562e9115bb6a868261"
      "f0c35743a23344bb11c9cfd01b9f19fad5b88300109ee07b45a2839b166f61bc33e855"
      "704dd3309b8b425f9b0e8f7bc0f614c7cfbf54acaad36a2d8ee76016d7c2346c9b2f6d"
      "9adda4afdca4db6ffb2a41991e328f693e16041e78cb8fc9b2a895332");
  EXPECT_EQ(a * b, ab);
  EXPECT_EQ(b * a, ab);
}

TEST(BigIntTest, MultiplySigns) {
  EXPECT_EQ(BigInt(-3) * BigInt(4), BigInt(-12));
  EXPECT_EQ(BigInt(-3) * BigInt(-4), BigInt(12));
  EXPECT_EQ(BigInt(0) * BigInt(-4), BigInt(0));
}

TEST(BigIntTest, DivisionTruncatesTowardZero) {
  EXPECT_EQ(BigInt(7) / BigInt(2), BigInt(3));
  EXPECT_EQ(BigInt(-7) / BigInt(2), BigInt(-3));
  EXPECT_EQ(BigInt(7) / BigInt(-2), BigInt(-3));
  EXPECT_EQ(BigInt(-7) / BigInt(-2), BigInt(3));
  EXPECT_EQ(BigInt(7) % BigInt(2), BigInt(1));
  EXPECT_EQ(BigInt(-7) % BigInt(2), BigInt(-1));
  EXPECT_EQ(BigInt(7) % BigInt(-2), BigInt(1));
  EXPECT_EQ(BigInt(-7) % BigInt(-2), BigInt(-1));
}

TEST(BigIntTest, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(1) / BigInt(0), ParamError);
  EXPECT_THROW(BigInt(1) % BigInt(0), ParamError);
}

TEST(BigIntTest, ModCanonicalResidue) {
  EXPECT_EQ(BigInt(-7).mod(BigInt(3)), BigInt(2));
  EXPECT_EQ(BigInt(7).mod(BigInt(3)), BigInt(1));
  EXPECT_EQ(BigInt(0).mod(BigInt(3)), BigInt(0));
  EXPECT_THROW(BigInt(1).mod(BigInt(0)), ParamError);
  EXPECT_THROW(BigInt(1).mod(BigInt(-3)), ParamError);
}

TEST(BigIntTest, DivisionMultiLimbKnownVector) {
  const BigInt a = BigInt::from_hex(
      "331057c7d411fab9fb932d4f039772216ff82e389e3995ab35331ceaf2ed9dd87e355b"
      "26210b784baa1c6f1404b6eaf162a01dec28753f8221c4e003f9931ee3af27f802dc5f"
      "d3d9974d75b333824fe61790134676b1b69");
  const BigInt b = BigInt::from_hex(
      "15a91215785d99773382dd301c8a91afa5c7623c4dd26fb984f366c5acdaeafb905dc8"
      "ac0bb635b4c41d283eb3a5fbd238ec9cf158de6e96d45cae8c077377925b396a1da2c9"
      "cfbba43b8e3c71f6bf08d62");
  // (a*b) / (a-1) == b with remainder b (since a*b = (a-1)*b + b).
  const BigInt prod = a * b;
  BigInt q, r;
  BigInt::divmod(prod, a - BigInt(1), q, r);
  EXPECT_EQ(q, b);
  EXPECT_EQ(r, b);
}

TEST(BigIntTest, ShiftsAreInverse) {
  const BigInt a = BigInt::from_hex("deadbeefcafebabe1234567890");
  for (std::size_t k : {1u, 7u, 63u, 64u, 65u, 128u, 200u}) {
    EXPECT_EQ((a << k) >> k, a) << "k=" << k;
  }
}

TEST(BigIntTest, ShiftLeftMatchesMultiplyByPowerOfTwo) {
  const BigInt a = BigInt::from_hex("123456789abcdef");
  EXPECT_EQ(a << 1, a * BigInt(2));
  EXPECT_EQ(a << 10, a * BigInt(1024));
  EXPECT_EQ(a << 64, a * BigInt::from_hex("10000000000000000"));
}

TEST(BigIntTest, ShiftRightDropsToZero) {
  EXPECT_EQ(BigInt(5) >> 3, BigInt(0));
  EXPECT_EQ(BigInt(5) >> 100, BigInt(0));
}

TEST(BigIntTest, Comparisons) {
  EXPECT_LT(BigInt(-2), BigInt(1));
  EXPECT_LT(BigInt(-2), BigInt(-1));
  EXPECT_LT(BigInt(1), BigInt(2));
  EXPECT_LT(BigInt(0), BigInt(1));
  EXPECT_LT(BigInt(-1), BigInt(0));
  EXPECT_EQ(BigInt(3), BigInt(3));
  const BigInt big = BigInt::from_hex("ffffffffffffffffffffffffffffffff");
  EXPECT_GT(big, BigInt(std::numeric_limits<std::int64_t>::max()));
}

TEST(BigIntTest, AbsAndNegate) {
  EXPECT_EQ(BigInt(-5).abs(), BigInt(5));
  EXPECT_EQ(BigInt(5).abs(), BigInt(5));
  EXPECT_EQ(BigInt(5).negated(), BigInt(-5));
  EXPECT_EQ(BigInt(0).negated(), BigInt(0));
}

TEST(BigIntTest, ToU64OutOfRangeThrows) {
  EXPECT_THROW((void)BigInt(-1).to_u64(), ParamError);
  EXPECT_THROW((void)BigInt::from_hex("10000000000000000").to_u64(),
               ParamError);
  EXPECT_EQ(BigInt(0).to_u64(), 0u);
}

TEST(BigIntTest, GcdBasics) {
  EXPECT_EQ(gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(gcd(BigInt(5), BigInt(0)), BigInt(5));
  EXPECT_EQ(gcd(BigInt(0), BigInt(0)), BigInt(0));
  EXPECT_EQ(gcd(BigInt(-12), BigInt(18)), BigInt(6));
  EXPECT_EQ(gcd(BigInt(17), BigInt(13)), BigInt(1));
}

TEST(BigIntTest, ModInverseBasics) {
  const BigInt m(97);
  for (int a = 1; a < 97; ++a) {
    const BigInt inv = mod_inverse(BigInt(a), m);
    EXPECT_EQ((inv * BigInt(a)).mod(m), BigInt(1)) << "a=" << a;
  }
}

TEST(BigIntTest, ModInverseNotInvertibleThrows) {
  EXPECT_THROW(mod_inverse(BigInt(6), BigInt(9)), ParamError);
  EXPECT_THROW(mod_inverse(BigInt(0), BigInt(7)), ParamError);
}

TEST(BigIntTest, FromLimbsNormalizes) {
  const std::vector<BigInt::Limb> raw = {5, 0, 0};
  const BigInt v = BigInt::from_limbs(raw);
  EXPECT_EQ(v, BigInt(5));
  EXPECT_EQ(v.limbs().size(), 1u);
  EXPECT_TRUE(BigInt::from_limbs(nullptr, 0).is_zero());
}

}  // namespace
}  // namespace ice::bn
