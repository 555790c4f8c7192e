// Cross-shard audit fan-out and merge (client side of the sharded PIR).
//
// The ShardPlanner is the user-device counterpart of pir::ShardedTagServer:
// it holds one Embedding + PirClient per shard of a ShardMap snapshot and
// turns a flat index list into per-shard sub-queries — each index encoded
// against ITS shard's embedding with a shard-local offset — then merges the
// per-shard partial responses back into the original request order and
// decodes exactly as the monolithic path does. Sub-queries are emitted in
// ascending shard id with request order preserved within a shard, and the
// z-direction pool is drawn in that emission order, so a 1-shard plan
// consumes the RNG identically to the legacy PirClient::encode call — the
// differential suite pins sharded == unsharded bit-for-bit on that.
//
// Fan-out/merge contract (mirrors the server's batched-claim evaluation):
// the plan's shard slots and the response's shard slots correspond 1:1 and
// are decoded independently into disjoint output positions, so the merge
// is deterministic regardless of how the server parallelized the shards.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/random.h"
#include "pir/client.h"
#include "pir/embedding.h"
#include "pir/messages.h"
#include "pir/shard_map.h"
#include "pir/sharded_server.h"

namespace ice::proto {

/// One planned fan-out: the two auditors' sharded queries plus everything
/// needed to merge/decode their partials. Never leaves the user device
/// except for `queries`.
struct ShardPlan {
  pir::ShardedPirQuery queries[pir::PirClient::kNumServers];
  /// Per touched shard (same order as queries[tau].shards): the decode
  /// secrets for that shard's sub-query.
  std::vector<pir::QuerySecrets> secrets;
  /// Per touched shard: the positions in the ORIGINAL index list that the
  /// sub-query's points came from (scatter map for the merge).
  std::vector<std::vector<std::size_t>> origins;

  [[nodiscard]] std::size_t total_points() const {
    return queries[0].total_points();
  }
};

class ShardPlanner {
 public:
  /// Builds per-shard embeddings/clients for a shard-map snapshot. Total
  /// embedding work is O(n) across shards — same as the one monolithic
  /// embedding it replaces. `tag_bits` is K.
  ShardPlanner(pir::ShardMap map, std::size_t tag_bits);

  [[nodiscard]] const pir::ShardMap& map() const { return map_; }
  [[nodiscard]] std::uint64_t epoch() const { return map_.epoch(); }
  [[nodiscard]] std::size_t tag_bits() const { return tag_bits_; }

  /// Routes `indices` (global, each < map().n(), duplicates allowed) to
  /// the shards they touch and encodes one sub-query per touched shard.
  [[nodiscard]] ShardPlan plan(std::span<const std::size_t> indices,
                               bn::Rng64& rng) const;

  /// Merges the two auditors' partial responses and decodes the tags back
  /// into the original request order. Throws ProtocolError when a
  /// response's shard list does not match the plan.
  [[nodiscard]] std::vector<bn::BigInt> merge_decode(
      const ShardPlan& plan, const pir::ShardedPirResponse& r0,
      const pir::ShardedPirResponse& r1) const;

 private:
  pir::ShardMap map_;
  std::size_t tag_bits_;
  // unique_ptr slots: PirClient keeps a non-owning Embedding pointer.
  std::vector<std::unique_ptr<pir::Embedding>> embeddings_;
  std::vector<std::unique_ptr<pir::PirClient>> clients_;
};

/// User-side helper: retrieves tags for `indices` from two sharded replicas
/// (TagStore::server()) in process, with no transport in the loop; used by
/// tests, benches and single-process baselines. The RPC variant lives in
/// user_client.h. Works for any shard count.
std::vector<bn::BigInt> retrieve_tags_direct(
    const pir::ShardedTagServer& tpa0, const pir::ShardedTagServer& tpa1,
    std::span<const std::size_t> indices, bn::Rng64& rng);

}  // namespace ice::proto
