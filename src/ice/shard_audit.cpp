#include "ice/shard_audit.h"

#include <utility>

#include "common/error.h"

namespace ice::proto {

ShardPlanner::ShardPlanner(pir::ShardMap map, std::size_t tag_bits)
    : map_(std::move(map)), tag_bits_(tag_bits) {
  embeddings_.reserve(map_.num_shards());
  clients_.reserve(map_.num_shards());
  for (const pir::ShardRange& r : map_.ranges()) {
    // Empty shards get a 1-point placeholder embedding; shard_of never
    // routes an index to them, so their client is never exercised.
    embeddings_.push_back(
        std::make_unique<pir::Embedding>(r.size() == 0 ? 1 : r.size()));
    clients_.push_back(
        std::make_unique<pir::PirClient>(*embeddings_.back(), tag_bits_));
  }
}

ShardPlan ShardPlanner::plan(std::span<const std::size_t> indices,
                             bn::Rng64& rng) const {
  // Group by shard, preserving request order within each shard. Touched
  // shards are visited in ascending id so the encode (and its RNG draws)
  // is canonical — with one shard this is exactly the legacy encode.
  std::vector<std::vector<std::size_t>> local(map_.num_shards());
  std::vector<std::vector<std::size_t>> origin(map_.num_shards());
  for (std::size_t pos = 0; pos < indices.size(); ++pos) {
    const std::size_t s = map_.shard_of(indices[pos]);  // validates range
    local[s].push_back(indices[pos] - map_.range(s).begin);
    origin[s].push_back(pos);
  }

  ShardPlan out;
  for (auto& q : out.queries) q.epoch = map_.epoch();
  for (std::size_t s = 0; s < map_.num_shards(); ++s) {
    if (local[s].empty()) continue;
    auto enc = clients_[s]->encode(local[s], rng);
    for (std::size_t tau = 0; tau < pir::PirClient::kNumServers; ++tau) {
      out.queries[tau].shards.push_back(
          {static_cast<std::uint32_t>(s), std::move(enc.queries[tau])});
    }
    out.secrets.push_back(std::move(enc.secrets));
    out.origins.push_back(std::move(origin[s]));
  }
  return out;
}

std::vector<bn::BigInt> ShardPlanner::merge_decode(
    const ShardPlan& plan, const pir::ShardedPirResponse& r0,
    const pir::ShardedPirResponse& r1) const {
  const std::size_t slots = plan.secrets.size();
  if (r0.shards.size() != slots || r1.shards.size() != slots) {
    throw ProtocolError("merge_decode: response shard count mismatch");
  }
  std::vector<bn::BigInt> out(plan.total_points());
  for (std::size_t k = 0; k < slots; ++k) {
    const std::uint32_t shard = plan.queries[0].shards[k].shard;
    if (r0.shards[k].shard != shard || r1.shards[k].shard != shard) {
      throw ProtocolError("merge_decode: response shard id mismatch");
    }
    std::vector<bn::BigInt> tags = clients_[shard]->decode(
        plan.secrets[k], r0.shards[k].response, r1.shards[k].response);
    const std::vector<std::size_t>& origin = plan.origins[k];
    if (tags.size() != origin.size()) {
      throw ProtocolError("merge_decode: partial response size mismatch");
    }
    for (std::size_t i = 0; i < tags.size(); ++i) {
      out[origin[i]] = std::move(tags[i]);
    }
  }
  return out;
}

std::vector<bn::BigInt> retrieve_tags_direct(
    const pir::ShardedTagServer& tpa0, const pir::ShardedTagServer& tpa1,
    std::span<const std::size_t> indices, bn::Rng64& rng) {
  if (tpa0.epoch() != tpa1.epoch() || tpa0.n() != tpa1.n() ||
      tpa0.tag_bits() != tpa1.tag_bits()) {
    throw ParamError("retrieve_tags_direct: TPA replicas disagree");
  }
  const ShardPlanner planner(tpa0.map_snapshot(), tpa0.tag_bits());
  ShardPlan plan = planner.plan(indices, rng);
  if (plan.secrets.empty()) return {};
  pir::ShardedPirResponse r0;
  pir::ShardedPirResponse r1;
  tpa0.respond_sharded(plan.queries[0], r0);
  tpa1.respond_sharded(plan.queries[1], r1);
  return planner.merge_decode(plan, r0, r1);
}

}  // namespace ice::proto
