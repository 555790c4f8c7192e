// Online/offline audit split (ice/offline.h): the differential suite
// pinning pool-served audits bit-exact against the cold path, the
// generation-invalidation contract (a bundle minted under a rotated key is
// never consumed), pool-exhaustion fallback, and the worker's shutdown /
// rekey races (exercised under TSan via the sanitizer presets).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "crypto/csprng.h"
#include "crypto/prf.h"
#include "ice/csp_service.h"
#include "ice/edge_service.h"
#include "ice/offline.h"
#include "ice/tag.h"
#include "ice/tpa_service.h"
#include "ice/user_client.h"
#include "mec/corruption.h"
#include "net/channel.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

ProtocolParams small_params() {
  ProtocolParams params = ice::testing::test_params(64);
  params.modulus_bits = ice::testing::test_keypair_256().pk.modulus_bits();
  return params;
}

std::shared_ptr<const ChallengeLadder> ladder_for(const KeyPair& keys,
                                                  const ProtocolParams& params) {
  return std::make_shared<const ChallengeLadder>(keys.pk, params);
}

// --- make_bundle vs the cold path --------------------------------------

TEST(OfflineBundleTest, BundleMatchesColdPathBitExact) {
  const KeyPair keys = ice::testing::test_keypair_256();
  const ProtocolParams params = small_params();

  SplitMix64 gen_a(42), gen_b(42);
  bn::Rng64Adapter rng_a(gen_a), rng_b(gen_b);

  const ChallengeLadder ladder(keys.pk, params);
  const ChallengeBundle bundle = make_bundle(ladder, params, rng_a, 12);
  ChallengeSecret cold_secret;
  const Challenge cold = make_challenge(ladder, params, rng_b, cold_secret);

  // Identical RNG stream -> identical challenge material, bit for bit.
  EXPECT_EQ(bundle.challenge.e, cold.e);
  EXPECT_EQ(bundle.challenge.g_s, cold.g_s);
  EXPECT_EQ(bundle.challenge.ladder, cold.ladder);
  EXPECT_EQ(bundle.challenge.digit_bits, cold.digit_bits);
  EXPECT_EQ(bundle.secret.s, cold_secret.s);

  // The same holds for a full power ladder (4 KiB blocks: t = kMaxLadder).
  ProtocolParams ladder_params = params;
  ladder_params.block_bytes = 4096;
  const ChallengeLadder full_ladder(keys.pk, ladder_params);
  const ChallengeBundle ladder_bundle =
      make_bundle(full_ladder, ladder_params, rng_a, 12);
  const Challenge ladder_cold =
      make_challenge(full_ladder, ladder_params, rng_b, cold_secret);
  EXPECT_EQ(ladder_bundle.challenge.g_s, ladder_cold.g_s);
  ASSERT_EQ(ladder_cold.rungs(), kMaxLadder);
  EXPECT_EQ(ladder_bundle.challenge.ladder, ladder_cold.ladder);
  EXPECT_EQ(ladder_bundle.challenge.digit_bits, ladder_cold.digit_bits);
  EXPECT_EQ(ladder_bundle.secret.s, cold_secret.s);

  // The bundle's coefficient vector is the exact PRF expansion of e; a
  // shorter cold expansion is its prefix (the stream is sequential).
  const auto cold_coeffs =
      crypto::CoefficientPrf::expand(cold.e, params.coeff_bits, 5);
  ASSERT_EQ(bundle.coeffs.size(), 12u);
  for (std::size_t i = 0; i < cold_coeffs.size(); ++i) {
    EXPECT_EQ(bundle.coeffs[i], cold_coeffs[i]) << "coefficient " << i;
  }
}

TEST(OfflineBundleTest, PrecomputedVerifyMatchesColdVerdicts) {
  const KeyPair keys = ice::testing::test_keypair_256();
  const ProtocolParams params = small_params();
  const auto blocks = ice::testing::make_blocks(6, params.block_bytes, 3);

  SplitMix64 gen(7);
  bn::Rng64Adapter rng(gen);
  const ChallengeBundle bundle =
      make_bundle(ChallengeLadder(keys.pk, params), params, rng, 10);
  const bn::BigInt s_tilde = draw_blinding(keys.pk, rng);
  const Proof proof =
      make_proof(keys.pk, params, blocks, bundle.challenge, s_tilde);

  const TagGenerator tagger(keys.pk);
  std::vector<bn::BigInt> tags;
  for (const auto& b : blocks) tags.push_back(tagger.tag(b));
  const auto repacked = repack_tags(keys.pk, tags, s_tilde, 1);

  std::vector<bn::BigInt> coeffs(bundle.coeffs.begin(),
                                 bundle.coeffs.begin() + 6);
  EXPECT_TRUE(verify_proof(keys.pk, params, repacked, bundle.challenge,
                           bundle.secret, proof));
  EXPECT_TRUE(verify_proof_precomputed(keys.pk, params, repacked, coeffs,
                                       bundle.secret, proof));

  // Tamper: both paths must agree on the failure too.
  Proof bad = proof;
  bad.p = bad.p + bn::BigInt(1);
  EXPECT_FALSE(verify_proof(keys.pk, params, repacked, bundle.challenge,
                            bundle.secret, bad));
  EXPECT_FALSE(verify_proof_precomputed(keys.pk, params, repacked, coeffs,
                                        bundle.secret, bad));

  // Coefficient count must match the tag count exactly.
  EXPECT_THROW(verify_proof_precomputed(keys.pk, params, repacked,
                                        bundle.coeffs, bundle.secret, proof),
               ParamError);
}

// --- ChallengePool semantics --------------------------------------------

TEST(ChallengePoolTest, AcquireOfferAndStats) {
  const KeyPair keys = ice::testing::test_keypair_256();
  const ProtocolParams params = small_params();
  OfflineConfig config;
  config.enabled = true;
  config.pool_capacity = 4;
  config.pool_shards = 2;
  config.coeff_count = 4;
  ChallengePool pool(config);

  ChallengeBundle out;
  EXPECT_FALSE(pool.try_acquire(out));  // empty: miss
  EXPECT_FALSE(pool.mint_spec().has_value());

  const std::uint64_t gen = pool.rekey(ladder_for(keys, params), params);
  const auto spec = pool.mint_spec();
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->generation, gen);
  EXPECT_EQ(spec->coeff_count, 4u);

  SplitMix64 sm(5);
  bn::Rng64Adapter rng(sm);
  for (std::size_t i = 0; i < 4; ++i) {
    ChallengeBundle b = make_bundle(*spec->ladder, spec->params, rng, 4);
    b.generation = spec->generation;
    EXPECT_TRUE(pool.offer(std::move(b)));
  }
  EXPECT_TRUE(pool.full());
  EXPECT_EQ(pool.depth(), 4u);

  // A fifth offer at capacity is refused.
  ChallengeBundle extra = make_bundle(*spec->ladder, spec->params, rng, 4);
  extra.generation = spec->generation;
  EXPECT_FALSE(pool.offer(std::move(extra)));

  EXPECT_TRUE(pool.try_acquire(out));
  EXPECT_EQ(out.generation, gen);
  EXPECT_EQ(out.coeffs.size(), 4u);

  const OfflineStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.minted, 4u);
  EXPECT_EQ(stats.full_rejects, 1u);
  EXPECT_EQ(stats.depth, 3u);
  EXPECT_EQ(stats.capacity, 4u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ChallengePoolTest, RekeyInvalidatesStoredAndInFlightBundles) {
  const KeyPair keys = ice::testing::test_keypair_256();
  const KeyPair keys2 = ice::testing::test_keypair_256(0, 1);
  const ProtocolParams params = small_params();
  OfflineConfig config;
  config.pool_capacity = 4;
  config.coeff_count = 2;
  ChallengePool pool(config);

  const auto ladder = ladder_for(keys, params);
  const auto ladder2 = ladder_for(keys2, params);
  const std::uint64_t gen1 = pool.rekey(ladder, params);
  SplitMix64 sm(6);
  bn::Rng64Adapter rng(sm);
  ChallengeBundle b = make_bundle(*ladder, params, rng, 2);
  b.generation = gen1;
  ASSERT_TRUE(pool.offer(std::move(b)));
  ASSERT_EQ(pool.depth(), 1u);

  // Key rotation: stored bundles drop, and an in-flight mint against the
  // old generation is refused at offer time.
  const std::uint64_t gen2 = pool.rekey(ladder2, params);
  EXPECT_GT(gen2, gen1);
  EXPECT_EQ(pool.depth(), 0u);
  ChallengeBundle stale = make_bundle(*ladder, params, rng, 2);
  stale.generation = gen1;
  EXPECT_FALSE(pool.offer(std::move(stale)));
  EXPECT_EQ(pool.stats().stale_rejects, 1u);
  EXPECT_EQ(pool.depth(), 0u);

  // A stale bundle is NEVER acquirable: only current-generation material.
  ChallengeBundle out;
  EXPECT_FALSE(pool.try_acquire(out));
  ChallengeBundle fresh = make_bundle(*ladder2, params, rng, 2);
  fresh.generation = gen2;
  ASSERT_TRUE(pool.offer(std::move(fresh)));
  ASSERT_TRUE(pool.try_acquire(out));
  EXPECT_EQ(out.generation, gen2);

  // invalidate(): generation moves, spec goes away, pool drains.
  pool.invalidate();
  EXPECT_FALSE(pool.mint_spec().has_value());
  EXPECT_EQ(pool.depth(), 0u);
}

// --- OfflineWorker lifecycle and races ----------------------------------

TEST(OfflineWorkerTest, FillsPoolAndStops) {
  const KeyPair keys = ice::testing::test_keypair_256();
  const ProtocolParams params = small_params();
  OfflineConfig config;
  config.pool_capacity = 8;
  config.coeff_count = 4;
  ChallengePool pool(config);
  pool.rekey(ladder_for(keys, params), params);

  crypto::SharedCsprng rng = crypto::SharedCsprng::deterministic(9);
  OfflineWorker worker(pool, rng);
  worker.kick();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!pool.full() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    worker.kick();
  }
  EXPECT_TRUE(pool.full());
  EXPECT_GE(worker.refills(), 1u);
  worker.stop();
  worker.stop();  // idempotent
  // After stop, kicks are inert.
  worker.kick();
  ChallengeBundle out;
  while (pool.try_acquire(out)) {
  }
  worker.kick();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(pool.depth(), 0u);
}

// Shutdown must drain an in-flight refill instead of racing it (the TSan
// presets run this with real interleavings).
TEST(OfflineWorkerTest, StopDuringRefillDoesNotRace) {
  const KeyPair keys = ice::testing::test_keypair_256();
  const ProtocolParams params = small_params();
  crypto::SharedCsprng rng = crypto::SharedCsprng::deterministic(10);
  for (int i = 0; i < 20; ++i) {
    OfflineConfig config;
    config.pool_capacity = 16;
    config.coeff_count = 8;
    ChallengePool pool(config);
    pool.rekey(ladder_for(keys, params), params);
    OfflineWorker worker(pool, rng);
    worker.kick();
    if (i % 2 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * i));
    }
    worker.stop();  // must not return while a mint is mid-offer
  }
}

TEST(OfflineWorkerTest, ConcurrentRekeyNeverLeavesStaleBundles) {
  const KeyPair keys_a = ice::testing::test_keypair_256();
  const KeyPair keys_b = ice::testing::test_keypair_256(0, 1);
  const ProtocolParams params = small_params();
  OfflineConfig config;
  config.pool_capacity = 8;
  config.coeff_count = 4;
  ChallengePool pool(config);
  const auto ladder_a = ladder_for(keys_a, params);
  const auto ladder_b = ladder_for(keys_b, params);
  pool.rekey(ladder_a, params);
  crypto::SharedCsprng rng = crypto::SharedCsprng::deterministic(11);
  OfflineWorker worker(pool, rng);

  std::thread rekeyer([&] {
    for (int i = 0; i < 25; ++i) {
      pool.rekey(i % 2 == 0 ? ladder_b : ladder_a, params);
      worker.kick();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (int i = 0; i < 25; ++i) {
    worker.kick();
    ChallengeBundle out;
    if (pool.try_acquire(out)) {
      // Whatever we got was minted under the CURRENT generation at the
      // moment of acquisition — the invariant the per-bundle tag enforces.
      EXPECT_LE(out.generation, pool.generation());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  rekeyer.join();
  worker.stop();
  // Post-quiescence: every surviving bundle carries the final generation.
  const std::uint64_t gen = pool.generation();
  ChallengeBundle out;
  while (pool.try_acquire(out)) {
    EXPECT_EQ(out.generation, gen);
  }
}

// --- Service-level differential suite -----------------------------------

/// One CSP + verifier TPA (+ replica) + one edge + user, with the offline
/// split configurable at the verifier.
class OfflineDeployment {
 public:
  OfflineDeployment(const OfflineConfig& offline, std::size_t parallelism,
                    std::size_t shard_budget,
                    std::size_t n_blocks = 16, std::size_t block_bytes = 64)
      : params_(ice::testing::test_params(block_bytes)),
        csp_(mec::BlockStore::synthetic(n_blocks, block_bytes, 99)),
        tpa0_(pir::EvalStrategy::kBitsliced, parallelism, shard_budget,
              offline),
        tpa1_(pir::EvalStrategy::kBitsliced, parallelism, shard_budget),
        tpa0_channel_(tpa0_),
        tpa1_channel_(tpa1_),
        edge_csp_(csp_),
        edge_tpa_(tpa0_),
        edge_(0, params_, ice::testing::test_keypair_256().pk,
              mec::EdgeCache(8, mec::EvictionPolicy::kLru), edge_csp_,
              &edge_tpa_),
        edge_channel_(edge_),
        user_(params_, ice::testing::test_keypair_256(), tpa0_channel_,
              tpa1_channel_) {
    tpa0_.register_edge(0, edge_channel_);
    std::vector<Bytes> blocks;
    for (std::size_t i = 0; i < csp_.store().size(); ++i) {
      blocks.push_back(csp_.store().block(i));
    }
    user_.setup_file(blocks);
  }

  void wait_for_pool_depth(std::size_t depth) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (tpa0_.offline_stats().depth < depth &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(tpa0_.offline_stats().depth, depth) << "pool never filled";
  }

  ProtocolParams params_;
  CspService csp_;
  TpaService tpa0_;
  TpaService tpa1_;
  net::InMemoryChannel tpa0_channel_;
  net::InMemoryChannel tpa1_channel_;
  net::InMemoryChannel edge_csp_;
  net::InMemoryChannel edge_tpa_;
  EdgeService edge_;
  net::InMemoryChannel edge_channel_;
  UserClient user_;
};

OfflineConfig enabled_config(std::size_t capacity = 8,
                             std::size_t coeffs = 16) {
  OfflineConfig config;
  config.enabled = true;
  config.pool_capacity = capacity;
  config.pool_shards = 2;
  config.coeff_count = coeffs;
  return config;
}

/// The tentpole differential: pool-served audits return the same verdicts
/// as the cold path across shard layouts x thread budgets, for honest and
/// corrupted edges alike.
TEST(OfflineServiceTest, OnlineMatchesColdAcrossConfigurations) {
  const std::size_t shard_budgets[] = {0, 7};
  const std::size_t parallelisms[] = {1, 0};
  for (const auto shard_budget : shard_budgets) {
    for (const auto parallelism : parallelisms) {
      OfflineDeployment online(enabled_config(), parallelism, shard_budget);
      OfflineDeployment cold(OfflineConfig{}, parallelism, shard_budget);
      online.edge_.pre_download({1, 3, 4, 8});
      cold.edge_.pre_download({1, 3, 4, 8});
      online.wait_for_pool_depth(1);

      EXPECT_TRUE(online.user_.audit_edge(online.edge_channel_, 0));
      EXPECT_TRUE(cold.user_.audit_edge(cold.edge_channel_, 0));

      SplitMix64 rng(13);
      mec::corrupt_random_blocks(online.edge_.cache_for_corruption(), 1,
                                 mec::CorruptionKind::kBitFlip, rng);
      SplitMix64 rng2(13);
      mec::corrupt_random_blocks(cold.edge_.cache_for_corruption(), 1,
                                 mec::CorruptionKind::kBitFlip, rng2);
      online.wait_for_pool_depth(1);
      EXPECT_FALSE(online.user_.audit_edge(online.edge_channel_, 0));
      EXPECT_FALSE(cold.user_.audit_edge(cold.edge_channel_, 0));

      const OfflineStats stats = online.tpa0_.offline_stats();
      EXPECT_GE(stats.hits, 1u) << "pool-served path never exercised";
      EXPECT_EQ(cold.tpa0_.offline_stats().hits +
                    cold.tpa0_.offline_stats().misses,
                0u)
          << "cold service touched the pool";
    }
  }
}

TEST(OfflineServiceTest, PoolExhaustionFallsBackToColdPath) {
  OfflineDeployment d(enabled_config(), 1, 0);
  d.edge_.pre_download({2, 5, 9});
  // Drain the pool and cut off the refill source: every subsequent audit
  // is a deterministic pool miss served by the cold fallback.
  d.tpa0_.challenge_pool().invalidate();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(d.user_.audit_edge(d.edge_channel_, 0));
  }
  const OfflineStats stats = d.tpa0_.offline_stats();
  EXPECT_GE(stats.misses, 3u);
  EXPECT_EQ(stats.depth, 0u);
}

TEST(OfflineServiceTest, BundleWithTooFewCoefficientsStillVerifies) {
  // coeff_count below |S_j|: the session's precomputed prefix is too short,
  // so verification re-expands online — and must still pass.
  OfflineDeployment d(enabled_config(8, 2), 1, 0);
  d.edge_.pre_download({0, 1, 2, 3, 6});
  d.wait_for_pool_depth(1);
  EXPECT_TRUE(d.user_.audit_edge(d.edge_channel_, 0));
  EXPECT_GE(d.tpa0_.offline_stats().hits, 1u);
}

TEST(OfflineServiceTest, KeyRotationNeverServesStaleBundles) {
  OfflineDeployment d(enabled_config(), 1, 0);
  d.edge_.pre_download({1, 2, 7});
  d.wait_for_pool_depth(1);
  const std::uint64_t gen_before = d.tpa0_.challenge_pool().generation();

  // Rotate the key: a fresh generator draw under the same modulus (edges
  // keep their modulus for a file's lifetime). setup_file re-tags every
  // block and re-sends set_key, which must invalidate every bundle minted
  // above — their g_s values are powers of the OLD generator.
  const KeyPair rotated = ice::testing::test_keypair_256(1);
  ASSERT_NE(rotated.pk.g, ice::testing::test_keypair_256().pk.g);
  UserClient user2(d.params_, rotated, d.tpa0_channel_, d.tpa1_channel_);
  std::vector<Bytes> blocks;
  for (std::size_t i = 0; i < d.csp_.store().size(); ++i) {
    blocks.push_back(d.csp_.store().block(i));
  }
  user2.setup_file(blocks);
  EXPECT_GT(d.tpa0_.challenge_pool().generation(), gen_before);

  // Re-provision the edge for the rotated key: a fresh cache pulls the
  // re-tagged blocks (the old edge's cached tags are stale by design).
  net::InMemoryChannel edge_csp2(d.csp_);
  net::InMemoryChannel edge_tpa2(d.tpa0_);
  EdgeService edge2(1, d.params_, rotated.pk,
                    mec::EdgeCache(8, mec::EvictionPolicy::kLru), edge_csp2,
                    &edge_tpa2);
  net::InMemoryChannel edge2_channel(edge2);
  d.tpa0_.register_edge(1, edge2_channel);
  edge2.pre_download({1, 2, 7});

  // Every audit after rotation verifies under the new key: a stale bundle
  // (old-generator g_s) would fail the honest edge.
  d.wait_for_pool_depth(1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(user2.audit_edge(edge2_channel, 1));
  }
}

TEST(OfflineServiceTest, BatchBeginServedFromPool) {
  OfflineDeployment d(enabled_config(), 1, 0);
  d.edge_.pre_download({1, 4, 6});
  d.wait_for_pool_depth(1);
  std::vector<net::RpcChannel*> edges{&d.edge_channel_};
  EXPECT_TRUE(d.user_.audit_edges_batch(edges));
  EXPECT_GE(d.tpa0_.offline_stats().hits, 1u);
}

}  // namespace
}  // namespace ice::proto
