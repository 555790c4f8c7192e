// Parameterized end-to-end sweeps of ICE-basic across modulus sizes, block
// sizes, subset sizes and coefficient widths — completeness and soundness
// must hold at every point of the parameter grid.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "ice/protocol.h"
#include "ice/tag.h"
#include "mec/corruption.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

struct SweepPoint {
  std::size_t modulus_bits;
  std::size_t block_bytes;
  std::size_t s_j;
  std::size_t coeff_bits;
};

class ProtocolSweepTest : public ::testing::TestWithParam<SweepPoint> {
 protected:
  ProtocolSweepTest() {
    const auto [modulus, block, sj, coeff] = GetParam();
    params_.modulus_bits = modulus;
    params_.block_bytes = block;
    params_.coeff_bits = coeff;
    switch (modulus) {
      case 256: keys_ = ice::testing::test_keypair_256(); break;
      case 512: keys_ = ice::testing::test_keypair_512(); break;
      case 1024: keys_ = ice::testing::test_keypair_1024(); break;
      default: throw ParamError("unexpected modulus in sweep");
    }
  }

  /// Full round; optional tamper hook on the edge's blocks.
  bool round(std::vector<Bytes> blocks, const std::vector<bn::BigInt>& tags) {
    ChallengeSecret secret;
    const Challenge chal =
        make_challenge(ChallengeLadder(keys_.pk, params_), params_, rng_,
                       secret);
    const bn::BigInt s_tilde = draw_blinding(keys_.pk, rng_);
    const Proof proof =
        make_proof(keys_.pk, params_, blocks, chal, s_tilde);
    return verify_proof(keys_.pk, params_,
                        repack_tags(keys_.pk, tags, s_tilde), chal, secret,
                        proof);
  }

  ProtocolParams params_;
  KeyPair keys_;
  SplitMix64 gen_{0x5beeb};
  bn::Rng64Adapter<SplitMix64> rng_{gen_};
};

TEST_P(ProtocolSweepTest, HonestPassesCorruptFails) {
  const auto p = GetParam();
  const TagGenerator tagger(keys_.pk);
  auto blocks = ice::testing::make_blocks(p.s_j, p.block_bytes,
                                          p.modulus_bits + p.s_j);
  const auto tags = tagger.tag_all(blocks);
  EXPECT_TRUE(round(blocks, tags));
  // One bit flip anywhere must break it.
  const std::size_t victim = gen_.below(p.s_j);
  mec::corrupt_block(blocks[victim], mec::CorruptionKind::kBitFlip, gen_);
  EXPECT_FALSE(round(blocks, tags));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolSweepTest,
    ::testing::Values(SweepPoint{256, 32, 1, 64},
                      SweepPoint{256, 128, 3, 64},
                      SweepPoint{256, 128, 10, 64},
                      SweepPoint{256, 1024, 5, 64},
                      SweepPoint{256, 128, 5, 8},
                      SweepPoint{256, 128, 5, 128},
                      SweepPoint{256, 128, 5, 1},
                      SweepPoint{512, 128, 5, 64},
                      SweepPoint{512, 2048, 2, 80},
                      SweepPoint{1024, 256, 3, 64},
                      SweepPoint{256, 1, 4, 64},
                      SweepPoint{256, 8, 16, 16}),
    [](const auto& info) {
      const auto& p = info.param;
      return "N" + std::to_string(p.modulus_bits) + "b" +
             std::to_string(p.block_bytes) + "s" + std::to_string(p.s_j) +
             "d" + std::to_string(p.coeff_bits);
    });

// With d = 1 every coefficient is 1, so SWAPPING two blocks is NOT
// detectable (the aggregate is order-independent) — this documents why the
// paper insists on d-bit random coefficients.
TEST(CoefficientWidthTest, UnitCoefficientsMissReordering) {
  auto params = ice::testing::test_params(64);
  params.coeff_bits = 1;
  const auto keys = ice::testing::test_keypair_256();
  const TagGenerator tagger(keys.pk);
  SplitMix64 gen(0xcafe);
  bn::Rng64Adapter<SplitMix64> rng(gen);
  auto blocks = ice::testing::make_blocks(4, 64, 9);
  const auto tags = tagger.tag_all(blocks);
  std::swap(blocks[0], blocks[3]);
  ChallengeSecret secret;
  const Challenge chal =
      make_challenge(ChallengeLadder(keys.pk, params), params, rng, secret);
  const bn::BigInt s_tilde = draw_blinding(keys.pk, rng);
  const Proof proof = make_proof(keys.pk, params, blocks, chal, s_tilde);
  EXPECT_TRUE(verify_proof(keys.pk, params,
                           repack_tags(keys.pk, tags, s_tilde), chal,
                           secret, proof));
  // ... while d = 64 catches the same reordering (ProtocolTest covers it).
}

}  // namespace
}  // namespace ice::proto
