// ICE-basic protocol tests: completeness (honest edge passes), soundness
// against every tampering style we can inject, and the update path.
#include "ice/protocol.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "ice/tag.h"
#include "mec/corruption.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest()
      : params_(ice::testing::test_params()),
        keys_(ice::testing::test_keypair_256()),
        tagger_(keys_.pk) {}

  /// Runs a full transport-free round and returns the verdict.
  bool run_round(const std::vector<Bytes>& edge_blocks,
                 const std::vector<bn::BigInt>& tags_for_subset) {
    ChallengeSecret secret;
    const Challenge chal = make_challenge(ladder_, params_, rng_, secret);
    const bn::BigInt s_tilde = draw_blinding(keys_.pk, rng_);
    const Proof proof =
        make_proof(keys_.pk, params_, edge_blocks, chal, s_tilde);
    const auto repacked = repack_tags(keys_.pk, tags_for_subset, s_tilde);
    return verify_proof(keys_.pk, params_, repacked, chal, secret, proof);
  }

  ProtocolParams params_;
  KeyPair keys_;
  TagGenerator tagger_;
  ChallengeLadder ladder_{keys_.pk, params_};
  SplitMix64 gen_{0xabc};
  bn::Rng64Adapter<SplitMix64> rng_{gen_};
};

TEST_F(ProtocolTest, HonestEdgePasses) {
  const auto blocks = ice::testing::make_blocks(5, 128, 1);
  EXPECT_TRUE(run_round(blocks, tagger_.tag_all(blocks)));
}

TEST_F(ProtocolTest, SingleBlockPasses) {
  const auto blocks = ice::testing::make_blocks(1, 128, 2);
  EXPECT_TRUE(run_round(blocks, tagger_.tag_all(blocks)));
}

TEST_F(ProtocolTest, EveryCorruptionKindDetected) {
  using mec::CorruptionKind;
  for (CorruptionKind kind :
       {CorruptionKind::kBitFlip, CorruptionKind::kByteStuck,
        CorruptionKind::kTruncate, CorruptionKind::kZeroFill,
        CorruptionKind::kGarbage}) {
    auto blocks = ice::testing::make_blocks(4, 128, 3);
    const auto tags = tagger_.tag_all(blocks);
    mec::corrupt_block(blocks[2], kind, gen_);
    EXPECT_FALSE(run_round(blocks, tags))
        << "corruption kind " << static_cast<int>(kind);
  }
}

TEST_F(ProtocolTest, MissingBlockDetected) {
  auto blocks = ice::testing::make_blocks(4, 128, 4);
  const auto tags = tagger_.tag_all(blocks);
  blocks.pop_back();
  // Proof over 3 blocks against 4 tags: reject.
  EXPECT_FALSE(run_round(blocks, tags));
}

TEST_F(ProtocolTest, SwappedBlocksDetected) {
  auto blocks = ice::testing::make_blocks(4, 128, 5);
  const auto tags = tagger_.tag_all(blocks);
  std::swap(blocks[0], blocks[3]);
  EXPECT_FALSE(run_round(blocks, tags));
}

TEST_F(ProtocolTest, StaleBlockAfterUpdateDetected) {
  // User updated block 1 but the edge serves the old content.
  auto blocks = ice::testing::make_blocks(3, 128, 6);
  auto tags = tagger_.tag_all(blocks);
  const Bytes new_content = ice::testing::make_blocks(1, 128, 7)[0];
  tags[1] = tagger_.tag(new_content);  // TPA holds the fresh tag
  EXPECT_FALSE(run_round(blocks, tags));
}

TEST_F(ProtocolTest, UpdatedTagPathAccepts) {
  // VerifyEdge step 2: the user replaces the repacked tag of a block it
  // updated this session with g^{m' s~}; the edge holds m'.
  auto blocks = ice::testing::make_blocks(3, 128, 8);
  const auto tags = tagger_.tag_all(blocks);  // tags of the OLD content
  const Bytes new_content = ice::testing::make_blocks(1, 128, 9)[0];
  blocks[1] = new_content;  // edge has the updated block

  ChallengeSecret secret;
  const Challenge chal = make_challenge(ladder_, params_, rng_, secret);
  const bn::BigInt s_tilde = draw_blinding(keys_.pk, rng_);
  const Proof proof = make_proof(keys_.pk, params_, blocks, chal, s_tilde);
  auto repacked = repack_tags(keys_.pk, tags, s_tilde);
  repacked[1] = tagger_.updated_tag(new_content, s_tilde);
  EXPECT_TRUE(
      verify_proof(keys_.pk, params_, repacked, chal, secret, proof));
}

TEST_F(ProtocolTest, WrongBlindingDetected) {
  const auto blocks = ice::testing::make_blocks(3, 128, 10);
  const auto tags = tagger_.tag_all(blocks);
  ChallengeSecret secret;
  const Challenge chal = make_challenge(ladder_, params_, rng_, secret);
  const bn::BigInt s1 = draw_blinding(keys_.pk, rng_);
  const bn::BigInt s2 = draw_blinding(keys_.pk, rng_);
  ASSERT_NE(s1, s2);
  const Proof proof = make_proof(keys_.pk, params_, blocks, chal, s1);
  const auto repacked = repack_tags(keys_.pk, tags, s2);
  EXPECT_FALSE(
      verify_proof(keys_.pk, params_, repacked, chal, secret, proof));
}

TEST_F(ProtocolTest, ReplayedProofFromOldChallengeDetected) {
  const auto blocks = ice::testing::make_blocks(3, 128, 11);
  const auto tags = tagger_.tag_all(blocks);
  const bn::BigInt s_tilde = draw_blinding(keys_.pk, rng_);
  ChallengeSecret secret_old, secret_new;
  const Challenge old_chal =
      make_challenge(ladder_, params_, rng_, secret_old);
  const Challenge new_chal =
      make_challenge(ladder_, params_, rng_, secret_new);
  const Proof stale = make_proof(keys_.pk, params_, blocks, old_chal,
                                 s_tilde);
  const auto repacked = repack_tags(keys_.pk, tags, s_tilde);
  EXPECT_FALSE(verify_proof(keys_.pk, params_, repacked, new_chal,
                            secret_new, stale));
}

TEST_F(ProtocolTest, ForgedProofConstantDetected) {
  const auto blocks = ice::testing::make_blocks(3, 128, 12);
  const auto tags = tagger_.tag_all(blocks);
  ChallengeSecret secret;
  const Challenge chal = make_challenge(ladder_, params_, rng_, secret);
  const bn::BigInt s_tilde = draw_blinding(keys_.pk, rng_);
  Proof forged;
  forged.p = bn::BigInt(1);
  const auto repacked = repack_tags(keys_.pk, tags, s_tilde);
  EXPECT_FALSE(
      verify_proof(keys_.pk, params_, repacked, chal, secret, forged));
}

TEST_F(ProtocolTest, ChallengeKeyInRangeAndNonzero) {
  for (int i = 0; i < 20; ++i) {
    ChallengeSecret secret;
    const Challenge chal = make_challenge(ladder_, params_, rng_, secret);
    EXPECT_FALSE(chal.e.is_zero());
    EXPECT_LE(chal.e.bit_length(), params_.challenge_key_bits);
    EXPECT_FALSE(secret.s.is_zero());
    EXPECT_LT(secret.s, keys_.pk.n);
  }
}

TEST_F(ProtocolTest, EmptyInputsRejected) {
  ChallengeSecret secret;
  const Challenge chal = make_challenge(ladder_, params_, rng_, secret);
  EXPECT_THROW(
      make_proof(keys_.pk, params_, {}, chal, bn::BigInt(2)), ParamError);
  EXPECT_THROW(make_proof(keys_.pk, params_,
                          ice::testing::make_blocks(1, 8, 0), chal,
                          bn::BigInt(0)),
               ParamError);
  EXPECT_THROW(
      verify_proof(keys_.pk, params_, {}, chal, secret, Proof{}),
      ParamError);
}

TEST_F(ProtocolTest, LargerModulusRoundWorks) {
  const KeyPair kp = ice::testing::test_keypair_512();
  const TagGenerator tagger(kp.pk);
  const auto blocks = ice::testing::make_blocks(3, 256, 13);
  const auto tags = tagger.tag_all(blocks);
  ChallengeSecret secret;
  const Challenge chal =
      make_challenge(ChallengeLadder(kp.pk, params_), params_, rng_, secret);
  const bn::BigInt s_tilde = draw_blinding(kp.pk, rng_);
  const Proof proof = make_proof(kp.pk, params_, blocks, chal, s_tilde);
  const auto repacked = repack_tags(kp.pk, tags, s_tilde);
  EXPECT_TRUE(verify_proof(kp.pk, params_, repacked, chal, secret, proof));
}

}  // namespace
}  // namespace ice::proto
