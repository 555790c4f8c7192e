// Robustness fuzzing of the RPC surface.
//
// Edges are untrusted and TPAs face the open network, so every service must
// survive arbitrary bytes: the contract is "well-formed error response or
// valid response, never a crash, hang, or uncaught exception". We throw
// random garbage and mutated-but-plausible requests at every method of
// every service.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <span>

#include "common/rng.h"
#include "ice/csp_service.h"
#include "ice/edge_service.h"
#include "ice/shard_audit.h"
#include "ice/tpa_service.h"
#include "ice/user_client.h"
#include "ice/wire.h"
#include "net/channel.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

Bytes random_bytes(SplitMix64& rng, std::size_t max_len) {
  Bytes out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// Response must parse as ok or error envelope; content errors are fine.
void expect_wellformed(const Bytes& response) {
  ASSERT_GE(response.size(), net::kStatusEnvelopeBytes);
  net::Reader r(response);
  const std::uint16_t code = r.u16();
  ASSERT_LE(code, static_cast<std::uint16_t>(net::Status::kInternal))
      << "unknown status code";
  if (code != 0) {
    EXPECT_NO_THROW((void)r.str());  // reason must decode
    EXPECT_TRUE(r.done());
  }
}

/// Every method whose random payloads leave the stored tags intact, plus
/// unknown ids (302 is the retired single-shard tag query).
constexpr std::uint16_t kTagPreservingMethods[] = {
    kCspInfo,        kCspFetch,          kCspWriteBack,   kCspSetKey,
    kCspChallenge,   kEdgeRead,          kEdgeWrite,      kEdgeIndexQuery,
    kEdgeShareBlind, kEdgeChallenge,     kEdgeBatchChallenge,
    kEdgeFlush,      kEdgeSubsetProof,   kTpaSetKey,      kTpaStoreTags,
    302,             kTpaStartAudit,     kTpaSubmitRepacked,
    kTpaBatchBegin,  kTpaSubmitProof,    kTpaBatchFinish, kTpaShardMap,
    kTpaShardQuery,  kTpaSplitShard,     kTpaAppendTag,   9999};

/// Methods that legitimately rewrite stored tags, from payloads random
/// bytes readily form (an index and a tag; one force byte): a garbage tag
/// staged and merged here rightly fails the next honest audit.
constexpr std::uint16_t kTagRewritingMethods[] = {kTpaUpdateTag,
                                                  kTpaCloseEpoch};

class FuzzWorld {
 public:
  FuzzWorld()
      : params_(ice::testing::test_params(64)),
        keys_(ice::testing::test_keypair_256()),
        csp_(mec::BlockStore::synthetic(16, 64, 8)),
        edge_csp_(csp_),
        edge_tpa_(tpa0_),
        edge_(0, params_, keys_.pk,
              mec::EdgeCache(8, mec::EvictionPolicy::kLru), edge_csp_,
              &edge_tpa_),
        tpa_edge_(edge_),
        user_tpa0_(tpa0_),
        user_tpa1_(tpa1_),
        user_(params_, keys_, user_tpa0_, user_tpa1_) {
    tpa0_.register_edge(0, tpa_edge_);
    std::vector<Bytes> blocks;
    for (std::size_t i = 0; i < 16; ++i) {
      blocks.push_back(csp_.store().block(i));
    }
    user_.setup_file(blocks);
    edge_.pre_download({1, 2, 3});
  }

  ProtocolParams params_;
  KeyPair keys_;
  CspService csp_;
  TpaService tpa0_;
  TpaService tpa1_;
  net::InMemoryChannel edge_csp_;
  net::InMemoryChannel edge_tpa_;
  EdgeService edge_;
  net::InMemoryChannel tpa_edge_;
  net::InMemoryChannel user_tpa0_;
  net::InMemoryChannel user_tpa1_;
  UserClient user_;
};

TEST(FuzzTest, RandomGarbageNeverCrashesAnyService) {
  FuzzWorld w;
  SplitMix64 rng(0xf022);
  net::RpcHandler* services[] = {&w.csp_, &w.edge_, &w.tpa0_};
  const std::span<const std::uint16_t> lists[] = {kTagPreservingMethods,
                                                  kTagRewritingMethods};
  for (auto* service : services) {
    for (const auto methods : lists) {
      for (std::uint16_t method : methods) {
        for (int trial = 0; trial < 25; ++trial) {
          const Bytes junk = random_bytes(rng, 80);
          Bytes response;
          ASSERT_NO_THROW(response = service->handle(method, junk))
              << "method " << method;
          expect_wellformed(response);
        }
      }
    }
  }
}

TEST(FuzzTest, RetiredTagQueryIsUnknownMethod) {
  FuzzWorld w;
  const Bytes response = w.tpa0_.handle(302, {});
  net::Reader r(response);
  EXPECT_EQ(r.u16(), static_cast<std::uint16_t>(net::Status::kUnknownMethod));
}

TEST(FuzzTest, MutatedValidRequestsNeverCrash) {
  // Capture a valid request of each flavor by replaying the encoders, then
  // mutate one byte at a time.
  FuzzWorld w;
  SplitMix64 rng(0xf044);
  struct Probe {
    net::RpcHandler* service;
    std::uint16_t method;
    Bytes valid;
  };
  std::vector<Probe> probes;
  {
    net::Writer fetch;
    fetch.varint(3);
    probes.push_back({&w.csp_, kCspFetch, fetch.take()});
  }
  {
    net::Writer read;
    read.varint(2);
    probes.push_back({&w.edge_, kEdgeRead, read.take()});
  }
  {
    net::Writer blind;
    blind.u64(77);
    blind.bigint(bn::BigInt(12345));
    probes.push_back({&w.edge_, kEdgeShareBlind, blind.take()});
  }
  {
    net::Writer audit;
    audit.varint(0);
    audit.u64(1234);
    probes.push_back({&w.tpa0_, kTpaStartAudit, audit.take()});
  }
  {
    // A real 1-shard plan against the stored tags.
    const ShardPlanner planner(TpaClient(w.user_tpa0_).shard_map(),
                               w.keys_.pk.modulus_bits());
    SplitMix64 gen(0xf055);
    bn::Rng64Adapter<SplitMix64> plan_rng(gen);
    const ShardPlan plan =
        planner.plan(std::vector<std::size_t>{0, 5, 15}, plan_rng);
    net::Writer query;
    write_sharded_query(query, plan.queries[0]);
    probes.push_back({&w.tpa0_, kTpaShardQuery, query.take()});
    // Mutations start from a query the TPA really answers.
    const Bytes answer = w.tpa0_.handle(kTpaShardQuery, probes.back().valid);
    ASSERT_EQ(net::Reader(answer).u16(),
              static_cast<std::uint16_t>(net::Status::kOk));
  }
  {
    // A real 8-rung ladder challenge (4 KiB blocks give t = kMaxLadder),
    // under the session id the blinding probe above shares.
    ProtocolParams ladder_params = w.params_;
    ladder_params.block_bytes = 4096;
    SplitMix64 gen(0xf077);
    bn::Rng64Adapter<SplitMix64> chal_rng(gen);
    ChallengeSecret secret;
    net::Writer chal;
    chal.u64(77);
    write_challenge(
        chal, make_challenge(ChallengeLadder(w.keys_.pk, ladder_params),
                             ladder_params, chal_rng, secret));
    probes.push_back({&w.edge_, kEdgeChallenge, chal.take()});
  }
  {
    // Last: a mutated key that decodes resets the stored tags.
    net::Writer key;
    key.bigint(w.keys_.pk.n);
    key.bigint(w.keys_.pk.g);
    key.varint(w.params_.coeff_bits);
    key.varint(w.params_.challenge_key_bits);
    key.varint(w.params_.block_bytes);
    probes.push_back({&w.tpa0_, kTpaSetKey, key.take()});
  }
  for (auto& probe : probes) {
    for (int trial = 0; trial < 200; ++trial) {
      Bytes mutated = probe.valid;
      if (mutated.empty()) continue;
      const std::size_t pos = rng.below(mutated.size());
      mutated[pos] = static_cast<std::uint8_t>(rng());
      // Occasionally truncate or extend.
      if (rng.below(4) == 0) mutated.resize(rng.below(mutated.size() + 1));
      if (rng.below(4) == 0) mutated.push_back(static_cast<std::uint8_t>(rng()));
      Bytes response;
      ASSERT_NO_THROW(response = probe.service->handle(probe.method, mutated))
          << "method " << probe.method;
      expect_wellformed(response);
    }
  }
}

TEST(FuzzTest, RandomLadderShapesNeverCrash) {
  // Structured garbage for the two bodies that carry the ladder: rung
  // counts and digit widths around every bound, rungs in and out of
  // [1, N), and rung lists one short or one long.
  FuzzWorld w;
  SplitMix64 rng(0xf0aa);
  bn::Rng64Adapter<SplitMix64> big_rng(rng);
  const std::uint64_t widths[] = {
      0, 1, 2, 4138, ~std::uint64_t{0},
      std::numeric_limits<std::size_t>::max() / kMaxLadder,
      std::numeric_limits<std::size_t>::max() / kMaxLadder + 1};
  for (int trial = 0; trial < 300; ++trial) {
    EdgeClient(w.tpa_edge_).share_blinding(900 + trial, bn::BigInt(7));
    const std::uint64_t t = rng.below(kMaxLadder + 3);
    net::Writer body;
    body.u64(900 + trial);
    body.bigint(bn::BigInt(rng()));
    body.varint(t);
    body.varint(trial % 2 == 0 ? widths[rng.below(std::size(widths))]
                               : rng.below(5000));
    const std::uint64_t sent = t + rng.below(3) - (t > 0 ? 1 : 0);
    for (std::uint64_t i = 0; i < sent; ++i) {
      // Mostly in range, so many bodies decode and reach the proof.
      const bn::BigInt bound =
          rng.below(8) == 0 ? w.keys_.pk.n * 2 : w.keys_.pk.n;
      body.bigint(bn::random_below(big_rng, bound));
    }
    Bytes response;
    ASSERT_NO_THROW(response = w.edge_.handle(kEdgeChallenge, body.take()))
        << "trial " << trial;
    expect_wellformed(response);
  }
  const std::uint64_t block_sizes[] = {0, 1, 64, 4096, kMaxBlockBytes + 1,
                                       ~std::uint64_t{0}};
  for (std::uint64_t block_bytes : block_sizes) {
    net::Writer key;
    key.bigint(w.keys_.pk.n);
    key.bigint(w.keys_.pk.g);
    key.varint(rng.below(128));
    key.varint(rng.below(256));
    key.varint(block_bytes);
    Bytes response;
    ASSERT_NO_THROW(response = w.tpa0_.handle(kTpaSetKey, key.take()))
        << "block_bytes " << block_bytes;
    expect_wellformed(response);
  }
}

TEST(FuzzTest, ServicesStillFunctionalAfterFuzzing) {
  FuzzWorld w;
  SplitMix64 rng(0xf066);
  for (std::uint16_t method : kTagPreservingMethods) {
    for (int trial = 0; trial < 10; ++trial) {
      (void)w.csp_.handle(method, random_bytes(rng, 40));
      (void)w.edge_.handle(method, random_bytes(rng, 40));
      (void)w.tpa0_.handle(method, random_bytes(rng, 40));
    }
  }
  // A full honest round still succeeds.
  EXPECT_TRUE(w.user_.audit_edge(w.tpa_edge_, 0));
}

TEST(FuzzTest, HostileRepackedTagsRejectedNotCrashing) {
  // A malicious user submits garbage repacked tags: the audit must simply
  // fail (or error), never crash the TPA.
  FuzzWorld w;
  SplitMix64 gen(0xf088);
  const TpaClient tpa(w.user_tpa0_);
  EdgeClient(w.tpa_edge_).share_blinding(424242, bn::BigInt(7));
  tpa.start_audit(0, 424242);
  std::vector<bn::BigInt> garbage;
  for (int i = 0; i < 3; ++i) {
    garbage.push_back(bn::BigInt(static_cast<std::int64_t>(gen())));
  }
  EXPECT_FALSE(tpa.submit_repacked(424242, garbage));
}

TEST(FuzzTest, ZeroAndHugeTagValuesHandled) {
  FuzzWorld w;
  const TpaClient tpa(w.user_tpa0_);
  EdgeClient(w.tpa_edge_).share_blinding(31337, bn::BigInt(7));
  tpa.start_audit(0, 31337);
  // Tag congruent to 0 mod N and a tag far larger than N.
  const std::vector<bn::BigInt> weird = {
      bn::BigInt(0), w.keys_.pk.n * w.keys_.pk.n, bn::BigInt(1)};
  EXPECT_FALSE(tpa.submit_repacked(31337, weird));
}

}  // namespace
}  // namespace ice::proto
