#include "pir/sharded_server.h"

#include <mutex>
#include <utility>

#include "common/parallel.h"

namespace ice::pir {

ShardedTagServer::ShardedTagServer(std::size_t tag_bits,
                                   std::span<const bn::BigInt> tags,
                                   std::size_t max_shard_n,
                                   std::size_t parallelism)
    : tag_bits_(tag_bits),
      parallelism_(parallelism),
      map_(tags.size(), max_shard_n) {
  shards_.reserve(map_.num_shards());
  for (const ShardRange& r : map_.ranges()) {
    shards_.push_back(std::make_unique<Shard>(
        tag_bits_, tags.subspan(r.begin, r.size()), parallelism_));
  }
}

std::size_t ShardedTagServer::n() const {
  std::shared_lock lock(structure_mu_);
  return map_.n();
}

std::size_t ShardedTagServer::num_shards() const {
  std::shared_lock lock(structure_mu_);
  return shards_.size();
}

std::uint64_t ShardedTagServer::epoch() const {
  std::shared_lock lock(structure_mu_);
  return map_.epoch();
}

ShardMap ShardedTagServer::map_snapshot() const {
  std::shared_lock lock(structure_mu_);
  return map_;
}

std::size_t ShardedTagServer::shard_gamma(std::size_t shard) const {
  std::shared_lock lock(structure_mu_);
  if (shard >= shards_.size()) {
    throw ParamError("ShardedTagServer::shard_gamma: shard out of range");
  }
  return shards_[shard]->embedding.gamma();
}

bn::BigInt ShardedTagServer::tag(std::size_t index) const {
  std::shared_lock structure(structure_mu_);
  const std::size_t s = map_.shard_of(index);
  return shards_[s]->db.tag(index - map_.range(s).begin);
}

void ShardedTagServer::update(std::size_t index, const bn::BigInt& tag) {
  std::shared_lock structure(structure_mu_);
  const std::size_t s = map_.shard_of(index);
  // Staging is internally synchronized and never touches base rows, so
  // updates ride alongside queries of this shard.
  shards_[s]->db.update(index - map_.range(s).begin, tag);
}

EpochCloseResult ShardedTagServer::close_epoch() {
  std::unique_lock structure(structure_mu_);
  EpochCloseResult out;
  for (auto& shard : shards_) {
    out.rows_merged += shard->db.close_epoch().rows_merged;
  }
  if (out.rows_merged > 0) {
    // Content changed: plans minted before the close would decode the new
    // tags against pre-close expectations, so the epoch must move. An
    // empty close leaves planners valid.
    map_.bump_epoch();
    out.closed = true;
  }
  out.epoch = map_.epoch();
  return out;
}

std::size_t ShardedTagServer::staged_updates() const {
  std::shared_lock structure(structure_mu_);
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->db.staged_updates();
  return total;
}

EpochStats ShardedTagServer::epoch_stats() const {
  std::shared_lock structure(structure_mu_);
  EpochStats out;
  for (const auto& shard : shards_) {
    const EpochStats s = shard->db.epoch_stats();
    out.epochs_closed += s.epochs_closed;
    out.rows_merged += s.rows_merged;
    out.staged_rows += s.staged_rows;
  }
  return out;
}

std::vector<bn::BigInt> ShardedTagServer::drain_shard(std::size_t s) const {
  const Shard& shard = *shards_[s];
  std::vector<bn::BigInt> tags;
  tags.reserve(shard.db.size());
  for (std::size_t i = 0; i < shard.db.size(); ++i) {
    tags.push_back(shard.db.tag(i));
  }
  return tags;
}

void ShardedTagServer::rebuild_shard(std::size_t s,
                                     std::span<const bn::BigInt> tags) {
  shards_[s] = std::make_unique<Shard>(tag_bits_, tags, parallelism_);
}

std::size_t ShardedTagServer::append(const bn::BigInt& tag) {
  std::unique_lock structure(structure_mu_);
  const std::size_t index = map_.n();
  const std::size_t last = shards_.size() - 1;
  // drain_shard reads base rows only: staged updates must be carried over
  // explicitly or a rebuild would silently drop the pending epoch.
  const auto staged = shards_[last]->db.staged_snapshot();
  std::vector<bn::BigInt> tail = drain_shard(last);
  tail.push_back(tag);
  const bool did_split = map_.append_index();
  if (did_split) {
    // The tail became two shards; rebuild both halves.
    const ShardRange lo = map_.range(map_.num_shards() - 2);
    const ShardRange hi = map_.range(map_.num_shards() - 1);
    const std::size_t tail_begin = lo.begin;
    rebuild_shard(last,
                  std::span(tail).subspan(lo.begin - tail_begin, lo.size()));
    shards_.push_back(std::make_unique<Shard>(
        tag_bits_,
        std::span<const bn::BigInt>(tail).subspan(hi.begin - tail_begin,
                                                  hi.size()),
        parallelism_));
    for (const auto& [local, t] : staged) {
      if (local < lo.size()) {
        shards_[last]->db.update(local, t);
      } else {
        shards_[last + 1]->db.update(local - lo.size(), t);
      }
    }
  } else {
    // Same shard, one more row: the embedding domain (and possibly gamma)
    // changed, so the whole shard is rebuilt. Appends are the cold path;
    // steady-state updates go through update() and touch nothing here.
    rebuild_shard(last, tail);
    for (const auto& [local, t] : staged) shards_[last]->db.update(local, t);
  }
  return index;
}

std::size_t ShardedTagServer::split(std::size_t s) {
  std::unique_lock structure(structure_mu_);
  if (s >= shards_.size()) {
    throw ParamError("ShardedTagServer::split: shard out of range");
  }
  const auto staged = shards_[s]->db.staged_snapshot();
  std::vector<bn::BigInt> tags = drain_shard(s);
  const std::size_t upper = map_.split(s);  // validates size >= 2
  const ShardRange lo = map_.range(s);
  const ShardRange hi = map_.range(upper);
  rebuild_shard(s, std::span(tags).subspan(0, lo.size()));
  shards_.insert(
      shards_.begin() + static_cast<std::ptrdiff_t>(upper),
      std::make_unique<Shard>(
          tag_bits_,
          std::span<const bn::BigInt>(tags).subspan(lo.size(), hi.size()),
          parallelism_));
  // Re-stage pending updates into whichever half owns them now.
  for (const auto& [local, t] : staged) {
    if (local < lo.size()) {
      shards_[s]->db.update(local, t);
    } else {
      shards_[upper]->db.update(local - lo.size(), t);
    }
  }
  return upper;
}

template <typename Prepare, typename Eval>
void ShardedTagServer::fan_out(const ShardedPirQuery& query,
                               Prepare&& prepare, Eval&& eval) const {
  std::shared_lock structure(structure_mu_);
  if (query.epoch != map_.epoch()) {
    throw StaleShardMapError(
        "respond_sharded: shard map epoch mismatch (client plan is stale)");
  }
  if (query.shards.empty()) {
    throw ParamError("respond_sharded: empty shard list");
  }
  for (std::size_t i = 0; i < query.shards.size(); ++i) {
    const ShardQuery& sq = query.shards[i];
    if (sq.shard >= shards_.size()) {
      throw ParamError("respond_sharded: unknown shard id");
    }
    if (i > 0 && sq.shard <= query.shards[i - 1].shard) {
      throw ParamError("respond_sharded: shard ids must strictly increase");
    }
    if (sq.query.points.empty()) {
      throw ParamError("respond_sharded: empty sub-query");
    }
  }
  prepare();
  // Cross-shard fan-out: each chunk claims a contiguous run of sub-queries
  // (ThreadPool::run_chunks batched-claim broadcast) and writes disjoint
  // pre-sized slots, so the merged response is identical at every thread
  // count. Within a sub-query the per-shard PirServer may fan out again;
  // nested regions run inline on pool workers (common/parallel.h).
  parallel_chunks(
      query.shards.size(), parallelism_,
      [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const ShardQuery& sq = query.shards[i];
          eval(i, sq, *shards_[sq.shard]);
        }
      });
}

void ShardedTagServer::respond_sharded(const ShardedPirQuery& query,
                                       ShardedPirResponse& out) const {
  fan_out(
      query, [&] { out.shards.resize(query.shards.size()); },
      [&](std::size_t i, const ShardQuery& sq, const Shard& shard) {
        out.shards[i].shard = sq.shard;
        shard.server.respond_into(sq.query, out.shards[i].response);
      });
}

void ShardedTagServer::respond_sharded_each(const ShardedPirQuery& query,
                                            ShardResponseSink& sink) const {
  fan_out(
      query,
      [&] {
        std::vector<std::size_t> gammas;
        gammas.reserve(query.shards.size());
        for (const ShardQuery& sq : query.shards) {
          gammas.push_back(shards_[sq.shard]->embedding.gamma());
        }
        sink.begin(gammas);
      },
      [&](std::size_t i, const ShardQuery& sq, const Shard& shard) {
        // Per evaluation, not thread_local: a TPA's handler threads would
        // otherwise each keep their largest response resident.
        PirResponse scratch;
        shard.server.respond_into(sq.query, scratch);
        sink.shard(i, scratch);
      });
}

}  // namespace ice::pir
