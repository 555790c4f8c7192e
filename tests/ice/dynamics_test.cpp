// Data dynamics end to end: incremental tag updates after write-back and
// the cache-churn race.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "ice/csp_service.h"
#include "mec/corruption.h"
#include "ice/edge_service.h"
#include "ice/tpa_service.h"
#include "ice/user_client.h"
#include "net/channel.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

struct World {
  World()
      : params(ice::testing::test_params(64)),
        keys(ice::testing::test_keypair_256()),
        csp(mec::BlockStore::synthetic(24, 64, 99)),
        edge_csp(csp),
        edge(0, params, keys.pk,
             mec::EdgeCache(6, mec::EvictionPolicy::kLru), edge_csp),
        edge_channel(edge),
        tpa_edge(edge),
        user_tpa0(tpa0),
        user_tpa1(tpa1),
        user(params, keys, user_tpa0, user_tpa1) {
    tpa0.register_edge(0, tpa_edge);
    std::vector<Bytes> blocks;
    for (std::size_t i = 0; i < csp.store().size(); ++i) {
      blocks.push_back(csp.store().block(i));
    }
    user.setup_file(blocks);
  }

  ProtocolParams params;
  KeyPair keys;
  CspService csp;
  TpaService tpa0;
  TpaService tpa1;
  net::InMemoryChannel edge_csp;
  EdgeService edge;
  net::InMemoryChannel edge_channel;
  net::InMemoryChannel tpa_edge;
  net::InMemoryChannel user_tpa0;
  net::InMemoryChannel user_tpa1;
  UserClient user;
};

TEST(DynamicsTest, CommitAfterFlushKeepsAuditsGreen) {
  World w;
  const EdgeClient edge(w.edge_channel);
  (void)edge.read(3);
  (void)edge.read(9);
  const Bytes fresh = ice::testing::make_blocks(1, 64, 1)[0];
  edge.write(3, fresh);
  w.user.note_updated_block(3, fresh);

  // Write back, then commit the tag incrementally.
  EXPECT_EQ(edge.flush(), 1u);
  w.user.commit_updated_block(3, fresh);
  EXPECT_TRUE(w.user.updated_blocks().empty());

  // Audit now relies purely on the updated stored tag — no session note.
  EXPECT_TRUE(w.user.audit_edge(w.edge_channel, 0));
  // The privately retrieved tag equals a fresh tag of the new content.
  const TagGenerator tagger(w.keys.pk);
  EXPECT_EQ(w.user.retrieve_tags({3})[0], tagger.tag(fresh));
}

TEST(DynamicsTest, StaleTagWithoutCommitFailsAfterNoteDropped) {
  World w;
  const EdgeClient edge(w.edge_channel);
  (void)edge.read(3);
  const Bytes fresh = ice::testing::make_blocks(1, 64, 2)[0];
  edge.write(3, fresh);
  w.user.note_updated_block(3, fresh);
  EXPECT_TRUE(w.user.audit_edge(w.edge_channel, 0));  // note covers it
  w.user.forget_updated_block(3);                     // ...but no commit
  EXPECT_FALSE(w.user.audit_edge(w.edge_channel, 0));
}

TEST(DynamicsTest, UpdateTagValidation) {
  World w;
  const TpaClient tpa(w.user_tpa0);
  EXPECT_THROW(tpa.update_tag(24, bn::BigInt(1)), ProtocolError);  // range
  EXPECT_THROW(w.user.commit_updated_block(24, Bytes{1}), ParamError);
}

TEST(DynamicsTest, CacheChurnBetweenIndexQueryAndChallengeFailsClosed) {
  // If the cache changes between the user's IndexQuery and the TPA's
  // challenge, the proof covers different blocks than the retrieved tags.
  // The audit must FAIL (closed), never pass with mismatched sets.
  World w;
  const EdgeClient edge(w.edge_channel);
  for (std::size_t i = 0; i < 6; ++i) (void)edge.read(i);  // cache full
  const auto s_j = edge.index_query();
  ASSERT_EQ(s_j.size(), 6u);
  // Another user's read evicts block 0 and admits block 20.
  (void)edge.read(20);
  // Manual audit round using the STALE S_j.
  SplitMix64 gen(5);
  bn::Rng64Adapter rng(gen);
  const bn::BigInt s_tilde = draw_blinding(w.keys.pk, rng);
  edge.share_blinding(777, s_tilde);
  const TpaClient tpa(w.user_tpa0);
  tpa.start_audit(0, 777);
  const auto tags = w.user.retrieve_tags(s_j);
  EXPECT_FALSE(
      tpa.submit_repacked(777, repack_tags(w.keys.pk, tags, s_tilde)));
}

}  // namespace
}  // namespace ice::proto
