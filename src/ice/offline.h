// Online/offline audit split: precomputed challenge bundles.
//
// Nothing on the TPA's per-round critical path before the proof arrives
// depends on WHICH edge is being audited: the challenge key e, the secret
// s, the fixed-base power g^s and the coefficient expansion of e are all
// edge-independent (Ali & Liu's federated online/offline inspection makes
// the same observation). This module hoists that work into idle cycles:
// a background OfflineWorker on the shared ThreadPool mints ready-made
// ChallengeBundles into a bounded lock-sharded ChallengePool, and the
// online phase of start_audit / batch_begin collapses to a pool pop.
//
// Correctness contract: a bundle is minted by the EXACT cold-path code
// (make_challenge, then CoefficientPrf::expand of the drawn e), so an
// audit served from the pool is bit-identical to one served cold from the
// same RNG draws — the cold path stays the pinned reference and the
// fallback on pool miss (tests/ice/offline_test.cpp pins both).
//
// Invalidation: every bundle carries the pool generation it was minted
// under; rekey() bumps the generation BEFORE dropping stored bundles, so
// a worker mid-mint against the old key offers a stale bundle that the
// pool refuses — a challenge under a rotated key can never be consumed.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "bignum/random.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "ice/keys.h"
#include "ice/params.h"
#include "ice/protocol.h"

namespace ice::proto {

/// One precomputed audit round: everything make_challenge draws plus the
/// coefficient expansion of e (a prefix of any shorter expansion, so the
/// online verify slices the first |S_j| entries).
struct ChallengeBundle {
  Challenge challenge;             // (e, g^s) plus the ladder
  ChallengeSecret secret;          // s
  std::vector<bn::BigInt> coeffs;  // a_1..a_{coeff_count} expanded from e
  std::uint64_t generation = 0;    // pool generation this was minted under
};

/// Mints one bundle exactly as the cold path would: make_challenge (same
/// RNG draw order, same ladder), then CoefficientPrf::expand of the drawn
/// e. The caller stamps the generation.
ChallengeBundle make_bundle(const ChallengeLadder& ladder,
                            const ProtocolParams& params, bn::Rng64& rng,
                            std::size_t coeff_count);

/// Snapshot of the pool's hit/miss/refill surface (HitCounter-style; see
/// common/stats.h). `hits`/`misses` count online acquire outcomes; `minted`
/// counts accepted offers; `stale_rejects` counts offers refused because
/// the generation moved mid-mint (key/params rotation).
struct OfflineStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t minted = 0;
  std::uint64_t stale_rejects = 0;
  std::uint64_t full_rejects = 0;
  std::size_t depth = 0;     // bundles currently pooled
  std::size_t capacity = 0;  // configured bound

  [[nodiscard]] double hit_rate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Deployment knobs for the offline split at a TPA. Disabled by default:
/// the cold path stays byte-for-byte the only path unless a deployment
/// opts in (the differential suites that pin RNG streams rely on that).
struct OfflineConfig {
  bool enabled = false;
  /// Bundles the pool holds across all shards.
  std::size_t pool_capacity = 32;
  /// Lock shards (acquire/offer contend per shard, never pool-wide).
  std::size_t pool_shards = 4;
  /// Coefficients pre-expanded per bundle. Audits over at most this many
  /// blocks verify from the bundle's prefix; larger ones re-expand from e
  /// online (same stream, same bits) and still save the g^s modexp.
  std::size_t coeff_count = 64;
};

/// Bounded lock-sharded store of ready ChallengeBundles with generation-
/// tagged invalidation. Thread-safe; every lock is per-shard except the
/// small config mutex guarding the mint spec.
class ChallengePool {
 public:
  explicit ChallengePool(const OfflineConfig& config);

  /// What a producer needs to mint bundles the pool will accept right now.
  struct MintSpec {
    std::shared_ptr<const ChallengeLadder> ladder;  // carries the key
    ProtocolParams params;
    std::size_t coeff_count = 0;
    std::uint64_t generation = 0;
  };

  /// Key or protocol parameters changed: bump the generation (so in-flight
  /// mints become stale), drop every stored bundle, and install the new
  /// mint spec: the new key's challenge ladder and parameters. Returns the
  /// new generation.
  std::uint64_t rekey(std::shared_ptr<const ChallengeLadder> ladder,
                      const ProtocolParams& params);

  /// Bump the generation and drop bundles without installing a new spec
  /// (key revoked, no replacement yet): mint_spec() goes empty.
  void invalidate();

  [[nodiscard]] std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Current mint spec, or nullopt before the first rekey / after
  /// invalidate().
  [[nodiscard]] std::optional<MintSpec> mint_spec() const;

  /// Pops a ready bundle minted under the CURRENT generation. Records a
  /// hit or miss either way.
  bool try_acquire(ChallengeBundle& out);

  /// Offers a freshly minted bundle. Refused (false) when its generation
  /// is stale or every shard is full.
  bool offer(ChallengeBundle&& bundle);

  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] bool full() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] OfflineStats stats() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::vector<ChallengeBundle> bundles;
    HitCounter acquires;           // pool-hit vs cold-fallback
    std::uint64_t minted = 0;      // accepted offers
    std::uint64_t stale_rejects = 0;
    std::uint64_t full_rejects = 0;
  };

  const std::size_t capacity_;
  const std::size_t per_shard_;
  const std::size_t coeff_count_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> cursor_{0};  // round-robin start shard
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex spec_mu_;
  std::optional<std::pair<std::shared_ptr<const ChallengeLadder>,
                          ProtocolParams>>
      spec_;
};

/// Background producer: refills a ChallengePool during idle cycles on the
/// process-wide shared ThreadPool. At most one refill task is in flight;
/// kick() schedules one when the pool has room. The CancellationToken is
/// honored between bundles, so stop() (and the destructor) drains the
/// in-flight task instead of racing a mid-refill offer — the "drain and
/// stop background producer" idiom ThreadPool itself does not provide.
class OfflineWorker {
 public:
  /// `rng` must be safe for concurrent draws (crypto::SharedCsprng is);
  /// both referents must outlive the worker.
  OfflineWorker(ChallengePool& pool, bn::Rng64& rng);
  ~OfflineWorker();

  OfflineWorker(const OfflineWorker&) = delete;
  OfflineWorker& operator=(const OfflineWorker&) = delete;

  /// Schedules a refill task unless one is already in flight, the pool is
  /// full, or the worker is stopped. Cheap; called after every consumed
  /// bundle and every rekey.
  void kick();

  /// Requests cancellation and blocks until no refill task is running.
  /// Idempotent; after stop() the worker never mints again.
  void stop();

  /// Refill tasks scheduled so far (observability/tests).
  [[nodiscard]] std::uint64_t refills() const {
    return refills_.load(std::memory_order_relaxed);
  }

 private:
  void refill();

  ChallengePool* pool_;
  bn::Rng64* rng_;
  CancellationToken cancel_;
  std::atomic<std::uint64_t> refills_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  bool task_active_ = false;
  bool stopped_ = false;
};

}  // namespace ice::proto
