// Tests for the TPA tag store and the direct 2-replica private retrieval.
#include "ice/tag_store.h"

#include <gtest/gtest.h>

#include <functional>

#include "common/error.h"
#include "common/rng.h"
#include "ice/shard_audit.h"
#include "ice/tag.h"
#include "pir_reference.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

class TagStoreTest : public ::testing::Test {
 protected:
  TagStoreTest()
      : params_(ice::testing::test_params()),
        keys_(ice::testing::test_keypair_256()),
        tagger_(keys_.pk) {}

  ProtocolParams params_;
  KeyPair keys_;
  TagGenerator tagger_;
  SplitMix64 gen_{0x7a9};
  bn::Rng64Adapter<SplitMix64> rng_{gen_};
};

TEST_F(TagStoreTest, RejectsEmptyTagSet) {
  EXPECT_THROW(TagStore(params_, {}), ParamError);
}

TEST_F(TagStoreTest, StoresAndReadsBack) {
  const auto blocks = ice::testing::make_blocks(12, 64, 1);
  const auto tags = tagger_.tag_all(blocks);
  TagStore store(params_, tags);
  EXPECT_EQ(store.n(), 12u);
  EXPECT_EQ(store.tag_bits(), params_.tag_bits());
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(store.tag(i), tags[i]);
}

TEST_F(TagStoreTest, UpdateStagesUntilEpochClose) {
  const auto blocks = ice::testing::make_blocks(4, 64, 2);
  const auto tags = tagger_.tag_all(blocks);
  TagStore store(params_, tags);
  const bn::BigInt fresh = tagger_.tag(ice::testing::make_blocks(1, 64, 3)[0]);
  store.update(2, fresh);
  EXPECT_EQ(store.tag(2), tags[2]);  // snapshot isolation: staged only
  EXPECT_EQ(store.staged_updates(), 1u);
  const auto closed = store.close_epoch(/*force=*/true);
  EXPECT_TRUE(closed.closed);
  EXPECT_EQ(closed.rows_merged, 1u);
  EXPECT_EQ(store.tag(2), fresh);
  EXPECT_EQ(store.epoch(), closed.epoch);
}

// A non-forced close defers while any SnapshotPin is outstanding; dropping
// the pin lets it through. This is the operator-tooling guard — the
// verifier-driven path forces, its own epoch gate excludes its audits.
TEST_F(TagStoreTest, PinsRefuseNonForcedClose) {
  const auto blocks = ice::testing::make_blocks(4, 64, 12);
  TagStore store(params_, tagger_.tag_all(blocks));
  const bn::BigInt fresh =
      tagger_.tag(ice::testing::make_blocks(1, 64, 13)[0]);
  store.update(1, fresh);

  SnapshotPin pin = store.pin();
  EXPECT_EQ(store.pins_active(), 1u);
  const auto refused = store.close_epoch(/*force=*/false);
  EXPECT_FALSE(refused.closed);
  EXPECT_EQ(store.staged_updates(), 1u);  // nothing merged
  EXPECT_EQ(store.epoch_stats().closes_skipped, 1u);

  {
    SnapshotPin copy = pin;  // copies share the pin, count stays 1-owner
    EXPECT_EQ(store.pins_active(), 1u);
  }
  pin.reset();
  EXPECT_EQ(store.pins_active(), 0u);
  EXPECT_TRUE(store.close_epoch(/*force=*/false).closed);
  EXPECT_EQ(store.tag(1), fresh);

  const auto stats = store.epoch_stats();
  EXPECT_EQ(stats.pins_taken, 1u);
  EXPECT_EQ(stats.db.epochs_closed, 1u);
  EXPECT_EQ(stats.db.rows_merged, 1u);
}

TEST_F(TagStoreTest, DirectRetrievalRecoversExactTags) {
  const auto blocks = ice::testing::make_blocks(30, 64, 5);
  const auto tags = tagger_.tag_all(blocks);
  TagStore tpa0(params_, tags);
  TagStore tpa1(params_, tags);
  const std::vector<std::size_t> wanted = {0, 7, 7, 29, 15};
  const auto got = retrieve_tags_direct(tpa0, tpa1, wanted, rng_);
  ASSERT_EQ(got.size(), wanted.size());
  for (std::size_t l = 0; l < wanted.size(); ++l) {
    EXPECT_EQ(got[l], tags[wanted[l]]);
  }
}

TEST_F(TagStoreTest, RetrievalAfterUpdateAndCloseSeesNewTag) {
  const auto blocks = ice::testing::make_blocks(10, 64, 6);
  const auto tags = tagger_.tag_all(blocks);
  TagStore tpa0(params_, tags);
  TagStore tpa1(params_, tags);
  const bn::BigInt fresh = tagger_.tag(ice::testing::make_blocks(1, 64, 7)[0]);
  tpa0.update(3, fresh);
  tpa1.update(3, fresh);
  // Pre-close retrieval decodes the epoch-t snapshot on both replicas.
  const auto pre = retrieve_tags_direct(tpa0, tpa1, {{3}}, rng_);
  EXPECT_EQ(pre[0], tags[3]);
  ASSERT_TRUE(tpa0.close_epoch(/*force=*/true).closed);
  ASSERT_TRUE(tpa1.close_epoch(/*force=*/true).closed);
  const auto got = retrieve_tags_direct(tpa0, tpa1, {{3}}, rng_);
  EXPECT_EQ(got[0], fresh);
}

TEST_F(TagStoreTest, MismatchedReplicasRejected) {
  const auto blocks = ice::testing::make_blocks(4, 64, 8);
  const auto tags = tagger_.tag_all(blocks);
  TagStore tpa0(params_, tags);
  TagStore tpa1(params_,
                std::vector<bn::BigInt>(tags.begin(), tags.begin() + 3));
  EXPECT_THROW(retrieve_tags_direct(tpa0, tpa1, {{0}}, rng_), ParamError);
}

// Any evaluator may answer either replica: the store's bitsliced engine
// and both paper references (naive, matrix) over the same tags are
// bit-identical, so every pairing decodes the exact tags from a 1-shard
// plan.
TEST_F(TagStoreTest, AllStrategiesServeRetrieval) {
  const auto blocks = ice::testing::make_blocks(15, 64, 9);
  const auto tags = tagger_.tag_all(blocks);
  const TagStore store(params_, tags);
  const pir::ShardMap map = store.shard_map();
  ASSERT_EQ(map.num_shards(), 1u);
  pir::TagDatabase db(store.tag_bits());
  for (const auto& t : tags) db.add(t);
  const pir::Embedding emb(tags.size());
  const auto lists = pir::reference::build_plane_lists(db);
  using Query = pir::ShardedPirQuery;
  using Response = pir::ShardedPirResponse;
  const std::function<Response(const Query&)> evaluators[] = {
      [&](const Query& q) {
        Response r;
        store.respond_sharded(q, r);
        return r;
      },
      [&](const Query& q) {
        return pir::reference::naive_respond_sharded(map, tags,
                                                     store.tag_bits(), q);
      },
      [&](const Query& q) {
        return Response{{{q.shards[0].shard,
                          pir::reference::matrix_respond(
                              lists, emb, q.shards[0].query)}}};
      }};
  const ShardPlanner planner(map, store.tag_bits());
  const std::vector<std::size_t> wanted = {4, 11};
  for (std::size_t a = 0; a < std::size(evaluators); ++a) {
    for (std::size_t b = 0; b < std::size(evaluators); ++b) {
      const ShardPlan plan = planner.plan(wanted, rng_);
      const auto got = planner.merge_decode(plan, evaluators[a](plan.queries[0]),
                                            evaluators[b](plan.queries[1]));
      EXPECT_EQ(got[0], tags[4]) << "replicas " << a << "/" << b;
      EXPECT_EQ(got[1], tags[11]) << "replicas " << a << "/" << b;
    }
  }
}

}  // namespace
}  // namespace ice::proto
