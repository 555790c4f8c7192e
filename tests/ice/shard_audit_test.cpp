// Cross-shard audit fan-out: the differential suite pinning sharded ==
// single-shard retrieval bit-for-bit, shard-plan structure over hostile
// maps, the typed stale-plan rejection end-to-end through the RPC layer,
// and the UserClient refresh-and-retry path after splits and appends.
#include "ice/shard_audit.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/error.h"
#include "common/rng.h"
#include "ice/tag.h"
#include "ice/tag_store.h"
#include "ice/tpa_service.h"
#include "ice/user_client.h"
#include "ice/wire.h"
#include "net/channel.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

class ShardAuditTest : public ::testing::Test {
 protected:
  ShardAuditTest()
      : params_(ice::testing::test_params()),
        keys_(ice::testing::test_keypair_256()),
        tagger_(keys_.pk) {}

  std::vector<bn::BigInt> make_tags(std::size_t n, std::uint64_t seed) {
    return tagger_.tag_all(ice::testing::make_blocks(n, 64, seed));
  }

  ProtocolParams params_;
  KeyPair keys_;
  TagGenerator tagger_;
};

// The satellite differential: shard counts {1, 2, 7, 32} x every
// EvalStrategy x serial/bounded/hardware thread budgets, all driven by the
// SAME seed and challenge. Every configuration must return byte-identical
// tag lists (and they must be the exact stored tags).
TEST_F(ShardAuditTest, ShardedEqualsUnshardedBitForBit) {
  constexpr std::size_t kN = 96;
  const auto tags = make_tags(kN, 1);
  const std::vector<std::size_t> wanted = {0,  95, 13, 13, 47, 48,
                                           77, 3,  62, 31, 90, 1};
  // budget -> shard count: 0 -> 1, 48 -> 2, 14 -> 7, 3 -> 32.
  const std::size_t budgets[] = {0, 48, 14, 3};
  const std::size_t expected_shards[] = {1, 2, 7, 32};
  const pir::EvalStrategy strategies[] = {pir::EvalStrategy::kNaive,
                                          pir::EvalStrategy::kMatrix,
                                          pir::EvalStrategy::kBitsliced};
  const std::size_t thread_budgets[] = {1, 2, 0};

  std::vector<bn::BigInt> baseline;  // 1-shard kBitsliced serial result
  for (std::size_t b = 0; b < std::size(budgets); ++b) {
    for (const auto strategy : strategies) {
      for (const std::size_t threads : thread_budgets) {
        ProtocolParams p = params_;
        p.shard_budget = budgets[b];
        p.parallelism = threads;
        const TagStore tpa0(p, tags, strategy);
        const TagStore tpa1(p, tags, strategy);
        ASSERT_EQ(tpa0.num_shards(), expected_shards[b]);
        SplitMix64 gen(0xd1ff);  // same seed for every configuration
        bn::Rng64Adapter<SplitMix64> rng(gen);
        const auto got = retrieve_tags_direct(tpa0, tpa1, wanted, rng);
        ASSERT_EQ(got.size(), wanted.size());
        for (std::size_t l = 0; l < wanted.size(); ++l) {
          EXPECT_EQ(got[l], tags[wanted[l]])
              << "budget=" << budgets[b] << " strategy="
              << static_cast<int>(strategy) << " threads=" << threads
              << " l=" << l;
        }
        if (baseline.empty()) {
          baseline = got;
        } else {
          EXPECT_EQ(got, baseline);
        }
      }
    }
  }
}

// A 1-shard plan must consume the RNG exactly like the legacy monolithic
// encode: same perturbed points to each auditor, same secrets.
TEST_F(ShardAuditTest, OneShardPlanMatchesLegacyEncodeBitForBit) {
  constexpr std::size_t kN = 40;
  const std::size_t tag_bits = keys_.pk.modulus_bits();
  const std::vector<std::size_t> wanted = {5, 0, 39, 5, 17};

  const pir::Embedding embedding(kN);
  const pir::PirClient legacy(embedding, tag_bits);
  SplitMix64 gen_a(0xabc);
  bn::Rng64Adapter<SplitMix64> rng_a(gen_a);
  const auto enc = legacy.encode(wanted, rng_a);

  const ShardPlanner planner(pir::ShardMap(kN, 0), tag_bits);
  SplitMix64 gen_b(0xabc);
  bn::Rng64Adapter<SplitMix64> rng_b(gen_b);
  const ShardPlan plan = planner.plan(wanted, rng_b);

  for (std::size_t tau = 0; tau < pir::PirClient::kNumServers; ++tau) {
    ASSERT_EQ(plan.queries[tau].shards.size(), 1u);
    EXPECT_EQ(plan.queries[tau].shards[0].shard, 0u);
    EXPECT_EQ(plan.queries[tau].shards[0].query.points,
              enc.queries[tau].points);
  }
  ASSERT_EQ(plan.secrets.size(), 1u);
  EXPECT_EQ(plan.secrets[0].indices, enc.secrets.indices);
  EXPECT_EQ(plan.secrets[0].z, enc.secrets.z);
}

TEST_F(ShardAuditTest, PlannerSkipsEmptyShardsAndScattersOrigins) {
  const ShardPlanner planner(pir::ShardMap::from_sizes({3, 0, 4, 0}, 9),
                             keys_.pk.modulus_bits());
  SplitMix64 gen(0x5);
  bn::Rng64Adapter<SplitMix64> rng(gen);
  // Request order deliberately interleaves the two non-empty shards.
  const ShardPlan plan = planner.plan(std::vector<std::size_t>{5, 1, 3, 0},
                                      rng);
  ASSERT_EQ(plan.queries[0].shards.size(), 2u);
  EXPECT_EQ(plan.queries[0].shards[0].shard, 0u);
  EXPECT_EQ(plan.queries[0].shards[1].shard, 2u);
  EXPECT_EQ(plan.queries[0].epoch, 9u);
  // Shard 0 got global {1, 0} (local identical); shard 2 got global {5, 3}
  // as local {2, 0}; origins point back at the request positions.
  EXPECT_EQ(plan.secrets[0].indices, (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(plan.secrets[1].indices, (std::vector<std::size_t>{2, 0}));
  EXPECT_EQ(plan.origins[0], (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(plan.origins[1], (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(plan.total_points(), 4u);
}

TEST_F(ShardAuditTest, MergeRejectsMismatchedResponses) {
  const auto tags = make_tags(20, 2);
  ProtocolParams p = params_;
  p.shard_budget = 10;
  const TagStore tpa0(p, tags);
  const ShardPlanner planner(tpa0.shard_map(), keys_.pk.modulus_bits());
  SplitMix64 gen(0x6);
  bn::Rng64Adapter<SplitMix64> rng(gen);
  const ShardPlan plan = planner.plan(std::vector<std::size_t>{2, 15}, rng);
  pir::ShardedPirResponse r0;
  tpa0.respond_sharded(plan.queries[0], r0);
  pir::ShardedPirResponse r1;
  tpa0.respond_sharded(plan.queries[1], r1);

  pir::ShardedPirResponse truncated = r1;
  truncated.shards.pop_back();
  EXPECT_THROW((void)planner.merge_decode(plan, r0, truncated),
               ProtocolError);
  pir::ShardedPirResponse relabeled = r1;
  relabeled.shards[0].shard = 7;
  EXPECT_THROW((void)planner.merge_decode(plan, r0, relabeled),
               ProtocolError);
}

// The TPA streams shard_query responses (ShardedResponseWriter over
// respond_sharded_each); the bytes must be exactly the merged encoding.
TEST_F(ShardAuditTest, StreamedResponseEncodingMatchesMergedBitForBit) {
  const auto tags = make_tags(40, 3);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    ProtocolParams p = params_;
    p.shard_budget = 7;  // 6 shards
    p.parallelism = threads;
    const TagStore store(p, tags);
    const ShardPlanner planner(store.shard_map(), keys_.pk.modulus_bits());
    SplitMix64 gen(0x7);
    bn::Rng64Adapter<SplitMix64> rng(gen);
    const ShardPlan plan =
        planner.plan(std::vector<std::size_t>{0, 8, 9, 33, 39, 20}, rng);
    for (const pir::ShardedPirQuery& query : plan.queries) {
      pir::ShardedPirResponse merged;
      store.respond_sharded(query, merged);
      net::Writer expected;
      write_sharded_response(expected, merged);
      net::Writer streamed;
      ShardedResponseWriter out(streamed, query, store.tag_bits());
      store.respond_sharded_each(query, out);
      EXPECT_EQ(streamed.take(), expected.take()) << "threads " << threads;
    }
  }
}

TEST_F(ShardAuditTest, ServerRejectsMalformedShardLists) {
  const auto tags = make_tags(20, 3);
  pir::ShardedTagServer server(keys_.pk.modulus_bits(), tags, 5);
  const ShardPlanner planner(server.map_snapshot(),
                             keys_.pk.modulus_bits());
  SplitMix64 gen(0x7);
  bn::Rng64Adapter<SplitMix64> rng(gen);
  const ShardPlan plan = planner.plan(std::vector<std::size_t>{1, 6}, rng);
  pir::ShardedPirResponse out;

  pir::ShardedPirQuery unknown = plan.queries[0];
  unknown.shards[1].shard = 40;
  EXPECT_THROW(server.respond_sharded(unknown, out), ParamError);

  pir::ShardedPirQuery unsorted = plan.queries[0];
  std::swap(unsorted.shards[0], unsorted.shards[1]);
  EXPECT_THROW(server.respond_sharded(unsorted, out), ParamError);

  pir::ShardedPirQuery empty = plan.queries[0];
  empty.shards.clear();
  EXPECT_THROW(server.respond_sharded(empty, out), ParamError);

  pir::ShardedPirQuery stale = plan.queries[0];
  stale.epoch += 1;
  EXPECT_THROW(server.respond_sharded(stale, out),
               pir::StaleShardMapError);
}

// Service-level fixture: two sharded TPA replicas behind InMemoryChannels.
class ShardServiceTest : public ShardAuditTest {
 protected:
  static constexpr std::size_t kBudget = 16;

  ShardServiceTest()
      : tpa0_(pir::EvalStrategy::kBitsliced, /*parallelism=*/0, kBudget),
        tpa1_(pir::EvalStrategy::kBitsliced, /*parallelism=*/0, kBudget),
        ch0_(tpa0_),
        ch1_(tpa1_) {
    params_.shard_budget = kBudget;
  }

  TpaService tpa0_;
  TpaService tpa1_;
  net::InMemoryChannel ch0_;
  net::InMemoryChannel ch1_;
};

TEST_F(ShardServiceTest, StaleEpochSurfacesAsFailedPrecondition) {
  const auto blocks = ice::testing::make_blocks(32, 64, 4);
  UserClient user(params_, keys_, ch0_, ch1_);
  user.setup_file(blocks);

  const TpaClient tpa(ch0_);
  const pir::ShardMap map = tpa.shard_map();
  EXPECT_EQ(map.num_shards(), 2u);

  const ShardPlanner planner(map, keys_.pk.modulus_bits());
  SplitMix64 gen(0x8);
  bn::Rng64Adapter<SplitMix64> rng(gen);
  ShardPlan plan = planner.plan(std::vector<std::size_t>{3}, rng);
  plan.queries[0].epoch += 3;  // plan against a future map
  try {
    (void)tpa.shard_query(plan.queries[0]);
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.status(), net::Status::kFailedPrecondition);
  }
}

TEST_F(ShardServiceTest, UserClientRefreshesAfterSplitMidAudit) {
  const auto blocks = ice::testing::make_blocks(32, 64, 5);
  const auto tags = tagger_.tag_all(blocks);
  UserClient user(params_, keys_, ch0_, ch1_);
  user.setup_file(blocks);

  // Prime the user's cached planner.
  auto got = user.retrieve_tags({1, 20});
  EXPECT_EQ(got[0], tags[1]);
  EXPECT_EQ(got[1], tags[20]);

  // Operator splits shard 0 on both replicas: the cached plan is now
  // stale; retrieve_tags must refresh + retry transparently.
  EXPECT_EQ(TpaClient(ch0_).split_shard(0), TpaClient(ch1_).split_shard(0));
  got = user.retrieve_tags({1, 20, 31});
  EXPECT_EQ(got[0], tags[1]);
  EXPECT_EQ(got[1], tags[20]);
  EXPECT_EQ(got[2], tags[31]);
  EXPECT_EQ(TpaClient(ch0_).shard_map().num_shards(), 3u);
}

TEST_F(ShardServiceTest, AppendBlockGrowsFileAcrossShardSplit) {
  // 16 blocks fill the budget exactly; the 17th append splits the tail.
  const auto blocks = ice::testing::make_blocks(16, 64, 6);
  UserClient user(params_, keys_, ch0_, ch1_);
  user.setup_file(blocks);
  EXPECT_EQ(TpaClient(ch0_).shard_map().num_shards(), 1u);

  const Bytes fresh = ice::testing::make_blocks(1, 64, 7)[0];
  const std::size_t index = user.append_block(fresh);
  EXPECT_EQ(index, 16u);
  EXPECT_EQ(user.file_blocks(), 17u);
  EXPECT_EQ(TpaClient(ch0_).shard_map().num_shards(), 2u);

  const auto got = user.retrieve_tags({16, 0});
  EXPECT_EQ(got[0], tagger_.tag(fresh));
  EXPECT_EQ(got[1], tagger_.tag(blocks[0]));
}

TEST_F(ShardServiceTest, ConcurrentUpdatesAndShardedRetrievals) {
  // TSan target: kTpaUpdateTag now holds the service store lock SHARED and
  // relies on the per-shard content lock, so updates and fan-out queries
  // race through the full dispatch path here.
  const auto blocks = ice::testing::make_blocks(48, 64, 8);
  const auto tags = tagger_.tag_all(blocks);
  UserClient user(params_, keys_, ch0_, ch1_);
  user.setup_file(blocks);

  // Budget 16 over n=48: shards cover [0,16), [16,32), [32,48). The writer
  // only touches shards 1 and 2, so a retrieval confined to shard 0 must
  // decode exactly in every round. Rounds that also pull points from the
  // mutated shards ride along to drive update vs. query contention through
  // the full dispatch path; when the two replicas answer such a round from
  // different states (one evaluated before an update, the other after),
  // decode DETECTS the torn read as a non-boolean bit and throws
  // ProtocolError — that typed rejection is the correct outcome, never a
  // silently wrong tag.
  std::thread writer([&] {
    const bn::BigInt fresh = tags[0];
    for (int i = 0; i < 30; ++i) {
      const std::size_t index = 16 + static_cast<std::size_t>(i) % 32;
      TpaClient(ch0_).update_tag(index, fresh);
      TpaClient(ch1_).update_tag(index, fresh);
    }
  });
  // No ASSERT before the join: a fatal assertion returns from the test
  // body and would destroy `writer` while joinable.
  std::exception_ptr failure;
  try {
    for (int round = 0; round < 15; ++round) {
      const auto clean = user.retrieve_tags({3});
      EXPECT_TRUE(clean.size() == 1 && clean[0] == tags[3])
          << "untouched shard decoded wrong in round " << round;
      try {
        const auto got = user.retrieve_tags({3, 20, 40});
        EXPECT_TRUE(got.size() == 3 && got[0] == tags[3]);
      } catch (const ProtocolError&) {
        // Torn read across the replica pair: detected and rejected.
      }
    }
  } catch (...) {
    failure = std::current_exception();
  }
  writer.join();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace
}  // namespace ice::proto
