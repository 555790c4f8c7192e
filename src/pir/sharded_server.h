// Range-sharded TPA tag state: one TagDatabase + Embedding + PirServer per
// shard of the ShardMap partition.
//
// Each shard is an independent instance of the paper's TPASetup state over
// its own index range, so a |S_j|-point challenge routed by shard touches
// only the rows it names: at n = 10^6 and 8 shards a 64-point batch sweeps
// 8 databases of 125k rows (each point accumulated only within its shard)
// instead of one 10^6-row database accumulating all 64 points per row —
// an ~8x reduction in row-sweep volume before any cross-shard parallelism,
// with smaller per-shard gamma (ceil((6 n_s)^{1/3}) + 2) shrinking queries
// and responses on top. Privacy degrades gracefully: a TPA learns WHICH
// shard(s) a query touches but, within a shard, the weight-3 perturbation
// hides the index exactly as in the monolithic layout.
//
// Locking + epochs (DESIGN.md §15): `structure_mu_` (reader-writer) guards
// the shard vector, the ShardMap and every shard's base rows. Queries, tag
// reads and staged updates take it shared — staging is internally
// synchronized inside TagDatabase and never touches base rows, so an update
// storm rides alongside audits of the same shard. `append`/`split`/
// `close_epoch` take it exclusive (they mutate base state and bump the map
// epoch). A fan-out therefore runs against one structural AND content
// snapshot: neither a split nor an epoch close can land mid-audit, and a
// query planned before either fails the epoch check with the typed
// StaleShardMapError below.
#pragma once

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <vector>

#include "bignum/bigint.h"
#include "common/error.h"
#include "pir/embedding.h"
#include "pir/messages.h"
#include "pir/server.h"
#include "pir/shard_map.h"
#include "pir/tag_database.h"

namespace ice::pir {

/// A sharded query was planned against a shard map the server has since
/// mutated (split or append). ProtocolError so the RPC dispatcher maps it
/// to Status::kFailedPrecondition; the client refreshes its map and
/// re-plans.
class StaleShardMapError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

/// Receiver of a streamed sharded response (respond_sharded_each).
class ShardResponseSink {
 public:
  /// Called once, before any shard is evaluated and under the same
  /// structural snapshot: gammas[i] is the embedding dimension of the shard
  /// sub-query i names, which together with its point count and the tag
  /// width fixes the shape of response i.
  virtual void begin(std::span<const std::size_t> gammas) = 0;
  /// Called once per sub-query i, from the thread that evaluated it (so
  /// concurrently for distinct i). `response` is valid only for the call.
  virtual void shard(std::size_t i, const PirResponse& response) = 0;

 protected:
  ~ShardResponseSink() = default;  // never owned through this interface
};

/// What one server-wide close_epoch() did.
struct EpochCloseResult {
  bool closed = false;            // false: no shard had staged rows
  std::uint64_t epoch = 0;        // map epoch after the call
  std::size_t rows_merged = 0;    // staged rows applied across all shards
};

class ShardedTagServer {
 public:
  /// Builds the initial partition of `tags` with per-shard budget
  /// `max_shard_n` (0 = one monolithic shard, the paper's layout).
  /// `parallelism` is forwarded to every per-shard PirServer and also
  /// bounds the cross-shard fan-out of respond_sharded.
  ShardedTagServer(std::size_t tag_bits, std::span<const bn::BigInt> tags,
                   std::size_t max_shard_n, std::size_t parallelism = 1);

  [[nodiscard]] std::size_t tag_bits() const { return tag_bits_; }
  [[nodiscard]] std::size_t n() const;
  [[nodiscard]] std::size_t num_shards() const;
  [[nodiscard]] std::uint64_t epoch() const;
  /// Copy of the current shard map (the wire answer to a map fetch).
  [[nodiscard]] ShardMap map_snapshot() const;
  /// gamma of one shard's embedding (bench/tests introspection).
  [[nodiscard]] std::size_t shard_gamma(std::size_t shard) const;

  /// Plain (non-private) tag read by global index.
  [[nodiscard]] bn::BigInt tag(std::size_t index) const;

  /// Stages a replacement for the tag at global `index` into the next
  /// epoch (TagDatabase::update). Takes only the SHARED structure lock:
  /// concurrent queries of the same shard proceed, and the new tag stays
  /// invisible to every read until close_epoch() merges it.
  void update(std::size_t index, const bn::BigInt& tag);

  /// Merges every shard's staged rows into its base state under the
  /// exclusive structure lock, and bumps the map epoch iff any row merged
  /// (so in-flight client plans turn detectably stale, but an empty close
  /// never churns planners).
  EpochCloseResult close_epoch();

  /// Rows currently staged for the next epoch, across all shards.
  [[nodiscard]] std::size_t staged_updates() const;

  /// Aggregated epoch-engine counters across all shards.
  [[nodiscard]] EpochStats epoch_stats() const;

  /// Appends a tag to the tail shard, splitting it when it outgrows the
  /// budget. Structural: bumps the epoch. Returns the new global index.
  std::size_t append(const bn::BigInt& tag);

  /// Splits shard `s` in two (ShardMap::split semantics). Structural:
  /// bumps the epoch. Returns the new upper shard's id.
  std::size_t split(std::size_t s);

  /// Evaluates every sub-query of `query` against one structural snapshot,
  /// fanning the shards out over the shared ThreadPool (disjoint response
  /// slots, so the merge is deterministic at every thread count). Throws
  /// StaleShardMapError when query.epoch no longer matches, ParamError on
  /// malformed shard lists (unknown, duplicate or unsorted shard ids).
  void respond_sharded(const ShardedPirQuery& query,
                       ShardedPirResponse& out) const;

  /// respond_sharded without the merged response object: each shard is
  /// evaluated into a scratch response on the evaluating thread and handed
  /// to `sink` there, so at most one shard's unpacked response per thread
  /// exists at a time (a TPA encodes it straight onto the wire).
  /// Same validation, locking and determinism as respond_sharded.
  void respond_sharded_each(const ShardedPirQuery& query,
                            ShardResponseSink& sink) const;

 private:
  /// Validates `query` against the current structure and runs
  /// eval(i, sub-query, shard) for every sub-query across the shared pool,
  /// under the shared structure lock. `prepare()` runs first, after
  /// validation, under the same lock.
  template <typename Prepare, typename Eval>
  void fan_out(const ShardedPirQuery& query, Prepare&& prepare,
               Eval&& eval) const;

  struct Shard {
    TagDatabase db;
    Embedding embedding;
    PirServer server;

    Shard(std::size_t tag_bits, std::span<const bn::BigInt> tags,
          std::size_t parallelism)
        : db(tag_bits),
          embedding(tags.empty() ? 1 : tags.size()),
          server(db, embedding, parallelism) {
      for (const auto& t : tags) db.add(t);
    }
  };

  /// Replaces shard slot `s` with a fresh Shard over `tags`. Caller holds
  /// structure_mu_ exclusively.
  void rebuild_shard(std::size_t s, std::span<const bn::BigInt> tags);
  /// Collects shard `s`'s tags (caller holds structure_mu_ exclusively).
  [[nodiscard]] std::vector<bn::BigInt> drain_shard(std::size_t s) const;

  std::size_t tag_bits_;
  std::size_t parallelism_;

  mutable std::shared_mutex structure_mu_;  // guards shards_ + map_
  // unique_ptr slots: PirServer keeps non-owning pointers into its Shard,
  // so shard objects must never move.
  std::vector<std::unique_ptr<Shard>> shards_;
  ShardMap map_;
};

}  // namespace ice::pir
