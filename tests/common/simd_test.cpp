// The runtime-dispatched XOR kernels: every supported tier must agree with
// a plain scalar reference on every width (vector body + tails), and an
// unsupported tier must be refused.
#include "common/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace ice::simd {
namespace {

std::vector<std::uint64_t> random_words(SplitMix64& rng, std::size_t w) {
  std::vector<std::uint64_t> v(w);
  for (auto& x : v) x = rng();
  return v;
}

std::vector<XorTier> supported_tiers() {
  std::vector<XorTier> tiers;
  for (XorTier t : {XorTier::kPortable, XorTier::kAvx2, XorTier::kAvx512}) {
    if (tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

TEST(SimdTest, XorRowMatchesScalarReferenceAtEveryWidthAndTier) {
  SplitMix64 rng(0x51);
  for (XorTier tier : supported_tiers()) {
    const XorKernels& k = kernels_for(tier);
    for (std::size_t w = 0; w <= 67; ++w) {
      const auto src = random_words(rng, w);
      auto dst = random_words(rng, w);
      auto expected = dst;
      for (std::size_t j = 0; j < w; ++j) expected[j] ^= src[j];
      k.xor_row(dst.data(), src.data(), w);
      EXPECT_EQ(dst, expected) << tier_name(tier) << " w=" << w;
    }
  }
}

TEST(SimdTest, XorScatterMatchesXorRowCompositionAtEveryTier) {
  SplitMix64 rng(0x53);
  // w=16 hits the K=1024 fast paths; the others exercise the generic entry
  // loop, including sub-vector tails.
  for (std::size_t w : {std::size_t{1}, std::size_t{5}, std::size_t{8},
                        std::size_t{16}, std::size_t{19}}) {
    for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{9},
                              std::size_t{257}}) {
      const std::size_t nrows = 11;
      const std::size_t nslots = 13;
      const auto rows = random_words(rng, nrows * w);
      const auto init = random_words(rng, nslots * w);
      // Entries pack dst | (src << 32); destinations repeat freely — XOR is
      // commutative, so order must not matter.
      std::vector<std::uint64_t> entries(count);
      for (auto& e : entries) {
        const std::uint64_t dst = (rng() % nslots) * w;
        const std::uint64_t src = (rng() % nrows) * w;
        e = dst | (src << 32);
      }
      // Reference: the documented composition of per-entry xor_row calls,
      // built with the portable kernels.
      const XorKernels& ref = kernels_for(XorTier::kPortable);
      auto expected = init;
      for (const std::uint64_t e : entries) {
        ref.xor_row(expected.data() + static_cast<std::uint32_t>(e),
                    rows.data() + (e >> 32), w);
      }
      // xor_scatter and xor_scatter_single share one contract; both must
      // match the composition on every tier.
      for (XorTier tier : supported_tiers()) {
        const XorKernels& k = kernels_for(tier);
        auto acc = init;
        k.xor_scatter(acc.data(), rows.data(), w, entries.data(),
                      entries.size());
        EXPECT_EQ(acc, expected)
            << tier_name(tier) << " w=" << w << " count=" << count;
        auto acc1 = init;
        k.xor_scatter_single(acc1.data(), rows.data(), w, entries.data(),
                             entries.size());
        EXPECT_EQ(acc1, expected)
            << "single " << tier_name(tier) << " w=" << w
            << " count=" << count;
      }
    }
  }
}

TEST(SimdTest, XorScatterRunHeavyStreamsMatchPlainCompositionAtEveryTier) {
  SplitMix64 rng(0x67);
  // Destination-sorted streams are what the fused sweep's component-major
  // sections emit: long same-dst runs (including one run spanning the whole
  // stream) must fold to exactly the per-entry composition.
  const std::size_t w = 16;  // the run-detecting fast path
  const std::size_t nrows = 29;
  const std::size_t nslots = 5;
  for (std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                            std::size_t{64}, std::size_t{193}}) {
    const auto rows = random_words(rng, nrows * w);
    const auto init = random_words(rng, nslots * w);
    std::vector<std::uint64_t> entries(count);
    for (std::size_t e = 0; e < count; ++e) {
      // count/nslots consecutive entries per slot => runs of length >= 2
      // for the larger counts, a single all-stream run when count <= the
      // per-slot quota.
      const std::uint64_t dst =
          std::min(nslots - 1, e * nslots / count) * w;
      const std::uint64_t src = (rng() % nrows) * w;
      entries[e] = dst | (src << 32);
    }
    const XorKernels& ref = kernels_for(XorTier::kPortable);
    auto expected = init;
    for (const std::uint64_t e : entries) {
      ref.xor_row(expected.data() + static_cast<std::uint32_t>(e),
                  rows.data() + (e >> 32), w);
    }
    for (XorTier tier : supported_tiers()) {
      const XorKernels& k = kernels_for(tier);
      auto acc = init;
      k.xor_scatter(acc.data(), rows.data(), w, entries.data(),
                    entries.size());
      EXPECT_EQ(acc, expected) << tier_name(tier) << " count=" << count;
      auto acc1 = init;
      k.xor_scatter_single(acc1.data(), rows.data(), w, entries.data(),
                           entries.size());
      EXPECT_EQ(acc1, expected)
          << "single " << tier_name(tier) << " count=" << count;
    }
  }
}

TEST(SimdTest, SpreadPairMatchesScalarReferenceAtEveryTierAndLength) {
  SplitMix64 rng(0x71);
  // Full words, sub-word tails and sub-vector lengths; every tier must
  // produce the scalar bit-gather exactly.
  for (std::size_t k :
       {std::size_t{1}, std::size_t{7}, std::size_t{31}, std::size_t{64},
        std::size_t{65}, std::size_t{100}, std::size_t{1024}}) {
    const std::size_t words = (k + 63) / 64;
    const auto lo = random_words(rng, words);
    const auto hi = random_words(rng, words);
    std::vector<std::uint8_t> expected(k);
    for (std::size_t i = 0; i < k; ++i) {
      expected[i] = static_cast<std::uint8_t>(
          ((lo[i / 64] >> (i % 64)) & 1u) |
          (((hi[i / 64] >> (i % 64)) & 1u) << 1));
    }
    for (XorTier tier : supported_tiers()) {
      std::vector<std::uint8_t> out(k, 0xFF);
      kernels_for(tier).spread_pair(lo.data(), hi.data(), k, out.data());
      EXPECT_EQ(out, expected) << tier_name(tier) << " k=" << k;
    }
  }
}

TEST(SimdTest, UnsupportedTierRejected) {
  // kAvx512 is the top tier; if it is supported every tier is, and the
  // rejection path is unreachable on this CPU — probe via tier_supported.
  for (XorTier t : {XorTier::kAvx2, XorTier::kAvx512}) {
    if (!tier_supported(t)) {
      EXPECT_THROW((void)kernels_for(t), ParamError);
    }
  }
  EXPECT_TRUE(tier_supported(XorTier::kPortable));
  EXPECT_TRUE(tier_supported(best_supported_tier()));
}

}  // namespace
}  // namespace ice::simd
