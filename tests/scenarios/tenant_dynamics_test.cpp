// ICE over the multi-tenant RPC mux (net/tenant.h): two users with their
// own keys and files share one TPA pair.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "ice/csp_service.h"
#include "ice/edge_service.h"
#include "ice/tpa_service.h"
#include "ice/user_client.h"
#include "mec/corruption.h"
#include "net/channel.h"
#include "net/tenant.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

TEST(DynamicsTest, TenantIsolatedTpasServeTwoUsers) {
  // Two users with different keys and files share one multi-tenant TPA
  // pair; each audits its own edge; verdicts and tag stores are isolated.
  const auto factory = [](std::uint64_t) {
    return std::make_unique<TpaService>();
  };
  net::MultiTenantHandler tpa0(factory);
  net::MultiTenantHandler tpa1(factory);

  struct Tenant {
    Tenant(std::uint64_t id, net::MultiTenantHandler& t0,
           net::MultiTenantHandler& t1)
        : params(ice::testing::test_params(64)),
          keys(ice::testing::test_keypair_256(id)),
          csp(mec::BlockStore::synthetic(12, 64, id)),
          edge_csp(csp),
          edge(0, params, keys.pk,
               mec::EdgeCache(4, mec::EvictionPolicy::kLru), edge_csp),
          edge_channel(edge),
          tpa_edge(edge),
          raw0(t0),
          raw1(t1),
          ch0(raw0, id),
          ch1(raw1, id),
          user(params, keys, ch0, ch1) {
      dynamic_cast<TpaService&>(t0.tenant(id)).register_edge(0, tpa_edge);
      std::vector<Bytes> blocks;
      for (std::size_t i = 0; i < csp.store().size(); ++i) {
        blocks.push_back(csp.store().block(i));
      }
      user.setup_file(blocks);
      edge.pre_download({1, 2, 3});
    }
    ProtocolParams params;
    KeyPair keys;
    CspService csp;
    net::InMemoryChannel edge_csp;
    EdgeService edge;
    net::InMemoryChannel edge_channel;
    net::InMemoryChannel tpa_edge;
    net::InMemoryChannel raw0;
    net::InMemoryChannel raw1;
    net::TenantChannel ch0;
    net::TenantChannel ch1;
    UserClient user;
  };

  Tenant alice(1, tpa0, tpa1);
  Tenant bob(2, tpa0, tpa1);
  EXPECT_TRUE(alice.user.audit_edge(alice.edge_channel, 0));
  EXPECT_TRUE(bob.user.audit_edge(bob.edge_channel, 0));

  // Corrupt bob's edge: bob fails, alice still passes.
  SplitMix64 rng(6);
  mec::corrupt_random_blocks(bob.edge.cache_for_corruption(), 1,
                             mec::CorruptionKind::kGarbage, rng);
  EXPECT_FALSE(bob.user.audit_edge(bob.edge_channel, 0));
  EXPECT_TRUE(alice.user.audit_edge(alice.edge_channel, 0));
  EXPECT_EQ(tpa0.tenant_count(), 2u);
}

}  // namespace
}  // namespace ice::proto
