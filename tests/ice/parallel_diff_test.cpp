// Differential tests for the parallel audit paths: every parallelized
// computation (edge proof aggregation, PIR bitplane evaluation, user tag
// repacking, TPA verification) must be BIT-IDENTICAL to the serial
// reference (parallelism = 1) at every tested thread count, including
// counts above the hardware concurrency and a prime count (7) that leaves
// uneven chunk tails.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/rng.h"
#include "ice/batch.h"
#include "ice/protocol.h"
#include "ice/shard_audit.h"
#include "ice/tag.h"
#include "ice/tag_store.h"
#include "pir_reference.h"
#include "support/ice_fixtures.h"
#include "support/pir_compare.h"

namespace ice::proto {
namespace {

std::vector<std::size_t> tested_thread_counts() {
  std::vector<std::size_t> counts{1, 2, 7};
  counts.push_back(
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  return counts;
}

class ParallelDiffTest : public ::testing::Test {
 protected:
  ParallelDiffTest()
      : params_(ice::testing::test_params()),
        keys_(ice::testing::test_keypair_256()),
        tagger_(keys_.pk) {
    params_.parallelism = 1;  // serial reference unless a test overrides
  }

  ProtocolParams params_;
  KeyPair keys_;
  TagGenerator tagger_;
  ChallengeLadder ladder_{keys_.pk, params_};
  SplitMix64 gen_{0x9a11};
  bn::Rng64Adapter<SplitMix64> rng_{gen_};
};

TEST_F(ParallelDiffTest, ProofBitExactAtEveryThreadCount) {
  const auto blocks = ice::testing::make_blocks(9, 256, 21);
  ChallengeSecret secret;
  const Challenge chal = make_challenge(ladder_, params_, rng_, secret);
  const bn::BigInt s_tilde = draw_blinding(keys_.pk, rng_);
  const Proof serial = make_proof(keys_.pk, params_, blocks, chal, s_tilde);
  for (std::size_t t : tested_thread_counts()) {
    ProtocolParams p = params_;
    p.parallelism = t;
    const Proof parallel = make_proof(keys_.pk, p, blocks, chal, s_tilde);
    EXPECT_EQ(parallel.p, serial.p) << "threads=" << t;
  }
}

TEST_F(ParallelDiffTest, BatchProofBitExactAtEveryThreadCount) {
  const auto blocks = ice::testing::make_blocks(11, 256, 22);
  ChallengeSecret secret;
  const Challenge base = make_batch_base(keys_.pk, rng_, secret);
  const auto keys = draw_challenge_keys(params_, 1, rng_);
  const Proof serial =
      make_batch_proof(keys_.pk, params_, blocks, keys[0], base.g_s);
  for (std::size_t t : tested_thread_counts()) {
    ProtocolParams p = params_;
    p.parallelism = t;
    const Proof parallel =
        make_batch_proof(keys_.pk, p, blocks, keys[0], base.g_s);
    EXPECT_EQ(parallel.p, serial.p) << "threads=" << t;
  }
}

TEST_F(ParallelDiffTest, BatchProofFanOutMatchesPerEdgeSerial) {
  constexpr std::size_t kEdges = 5;
  std::vector<std::vector<Bytes>> edge_blocks;
  for (std::size_t j = 0; j < kEdges; ++j) {
    edge_blocks.push_back(ice::testing::make_blocks(3 + j, 128, 30 + j));
  }
  ChallengeSecret secret;
  const Challenge base = make_batch_base(keys_.pk, rng_, secret);
  const auto keys = draw_challenge_keys(params_, kEdges, rng_);
  std::vector<Proof> serial;
  for (std::size_t j = 0; j < kEdges; ++j) {
    serial.push_back(
        make_batch_proof(keys_.pk, params_, edge_blocks[j], keys[j],
                         base.g_s));
  }
  for (std::size_t t : tested_thread_counts()) {
    ProtocolParams p = params_;
    p.parallelism = t;
    const std::vector<Proof> fanned =
        make_batch_proofs(keys_.pk, p, edge_blocks, keys, base.g_s);
    ASSERT_EQ(fanned.size(), serial.size());
    for (std::size_t j = 0; j < kEdges; ++j) {
      EXPECT_EQ(fanned[j].p, serial[j].p) << "threads=" << t << " edge=" << j;
    }
  }
}

TEST_F(ParallelDiffTest, RepackTagsBitExactAtEveryThreadCount) {
  const auto blocks = ice::testing::make_blocks(13, 128, 40);
  const auto tags = tagger_.tag_all(blocks);
  const bn::BigInt s_tilde = draw_blinding(keys_.pk, rng_);
  const auto serial = repack_tags(keys_.pk, tags, s_tilde, /*parallelism=*/1);
  for (std::size_t t : tested_thread_counts()) {
    const auto parallel = repack_tags(keys_.pk, tags, s_tilde, t);
    EXPECT_EQ(parallel, serial) << "threads=" << t;
  }
}

TEST_F(ParallelDiffTest, VerifySameVerdictAtEveryThreadCount) {
  auto blocks = ice::testing::make_blocks(10, 256, 50);
  const auto tags = tagger_.tag_all(blocks);
  ChallengeSecret secret;
  const Challenge chal = make_challenge(ladder_, params_, rng_, secret);
  const bn::BigInt s_tilde = draw_blinding(keys_.pk, rng_);
  const Proof good = make_proof(keys_.pk, params_, blocks, chal, s_tilde);
  blocks[4][7] ^= 0x20;  // single bit flip
  const Proof bad = make_proof(keys_.pk, params_, blocks, chal, s_tilde);
  const auto repacked = repack_tags(keys_.pk, tags, s_tilde);
  for (std::size_t t : tested_thread_counts()) {
    ProtocolParams p = params_;
    p.parallelism = t;
    EXPECT_TRUE(verify_proof(keys_.pk, p, repacked, chal, secret, good))
        << "threads=" << t;
    EXPECT_FALSE(verify_proof(keys_.pk, p, repacked, chal, secret, bad))
        << "threads=" << t;
  }
}

// The store's bitsliced answer to a 1-shard plan at every thread count
// equals both paper evaluators (the naive term-by-term reference and the
// matrix representation) over the same tags, bit for bit.
TEST_F(ParallelDiffTest, PirResponsesBitExactForAllStrategies) {
  constexpr std::size_t kTags = 60;
  const auto blocks = ice::testing::make_blocks(kTags, 64, 60);
  const auto tags = tagger_.tag_all(blocks);
  const std::size_t tag_bits = keys_.pk.modulus_bits();
  const pir::ShardMap map(kTags, 0);
  const ShardPlanner planner(map, tag_bits);
  // One fixed planned query reused against every server configuration.
  SplitMix64 qgen(0x61);
  bn::Rng64Adapter<SplitMix64> qrng(qgen);
  const ShardPlan plan =
      planner.plan(std::vector<std::size_t>{3, 17, 42}, qrng);
  const pir::ShardedPirQuery& query = plan.queries[0];
  ASSERT_EQ(query.shards.size(), 1u);
  const pir::ShardedPirResponse naive =
      pir::reference::naive_respond_sharded(map, tags, tag_bits, query);
  pir::TagDatabase db(tag_bits);
  for (const auto& t : tags) db.add(t);
  const pir::PirResponse matrix = pir::reference::matrix_respond(
      pir::reference::build_plane_lists(db), pir::Embedding(kTags),
      query.shards[0].query);
  for (std::size_t t : tested_thread_counts()) {
    ProtocolParams p = params_;
    p.modulus_bits = tag_bits;
    p.parallelism = t;
    TagStore store(p, tags);
    pir::ShardedPirResponse got;
    store.respond_sharded(query, got);
    ice::testing::expect_same_sharded(got, naive,
                                      "threads=" + std::to_string(t));
  }
  ice::testing::expect_same_response(matrix, naive.shards[0].response,
                                     "matrix");
}

TEST_F(ParallelDiffTest, BatchRepackAndVerifyBitExactAtEveryThreadCount) {
  const auto blocks = ice::testing::make_blocks(12, 128, 70);
  const auto tags = tagger_.tag_all(blocks);
  const std::vector<std::vector<std::size_t>> edge_sets{
      {0, 1, 2, 3, 4, 5}, {4, 5, 6, 7, 8}, {0, 2, 8, 9, 10, 11}};
  ChallengeSecret secret;
  const Challenge base = make_batch_base(keys_.pk, rng_, secret);
  const auto keys = draw_challenge_keys(params_, edge_sets.size(), rng_);
  const auto u = union_of_sets(edge_sets);
  std::vector<bn::BigInt> union_tags;
  for (std::size_t i : u) union_tags.push_back(tags[i]);
  const auto serial = batch_repack(keys_.pk, params_, u, union_tags,
                                   edge_sets, keys);
  for (std::size_t t : tested_thread_counts()) {
    ProtocolParams p = params_;
    p.parallelism = t;
    const auto parallel =
        batch_repack(keys_.pk, p, u, union_tags, edge_sets, keys);
    EXPECT_EQ(parallel, serial) << "threads=" << t;
  }
}

}  // namespace
}  // namespace ice::proto
