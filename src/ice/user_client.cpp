#include "ice/user_client.h"

#include <algorithm>
#include <thread>

#include "common/error.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "ice/batch.h"

namespace ice::proto {

UserClient::UserClient(const ProtocolParams& params, KeyPair keys,
                       net::RpcChannel& tpa0, net::RpcChannel& tpa1)
    : params_(params),
      keys_{std::move(keys)},
      tagger_(keys_.pk.pk),
      tpa0_(&tpa0),
      tpa1_(&tpa1) {}

double UserClient::setup_file(const std::vector<Bytes>& blocks) {
  if (blocks.empty()) throw ParamError("setup_file: no blocks");
  Stopwatch sw;
  const std::vector<bn::BigInt> tags =
      tagger_.tag_all(blocks, params_.parallelism);
  const double taggen_seconds = sw.seconds();
  n_ = blocks.size();
  invalidate_planner();  // fresh store, fresh shard map
  for (net::RpcChannel* ch : {tpa0_, tpa1_}) {
    const TpaClient tpa(*ch);
    tpa.set_key(keys_.pk.pk, params_);
    tpa.store_tags(tags);
  }
  std::lock_guard lock(blocks_mu_);
  updated_blocks_.clear();
  return taggen_seconds;
}

void UserClient::attach_file(std::size_t n_blocks) {
  if (n_blocks == 0) throw ParamError("attach_file: no blocks");
  n_ = n_blocks;
  invalidate_planner();
  std::lock_guard lock(blocks_mu_);
  updated_blocks_.clear();
}

std::shared_ptr<const ShardPlanner> UserClient::planner() {
  std::lock_guard lock(planner_mu_);
  if (planner_ == nullptr) {
    // K is the ACTUAL modulus width: N built from two b/2-bit primes can
    // be one bit short of the nominal params_.modulus_bits.
    planner_ = std::make_shared<const ShardPlanner>(
        TpaClient(*tpa0_).shard_map(), keys_.pk.pk.modulus_bits());
  }
  return planner_;
}

void UserClient::invalidate_planner() {
  std::lock_guard lock(planner_mu_);
  planner_.reset();
}

std::vector<bn::BigInt> UserClient::retrieve_tags(
    const std::vector<std::size_t>& indices) {
  if (n_ == 0) throw ProtocolError("retrieve_tags: no file");
  if (indices.empty()) return {};
  // One retry: a structural change at the TPAs (append/split) between our
  // planning and their evaluation is rejected remotely with
  // kFailedPrecondition; refresh the shard map and re-plan once.
  for (int attempt = 0;; ++attempt) {
    const std::shared_ptr<const ShardPlanner> plan_for = planner();
    ShardPlan plan = plan_for->plan(indices, rng_);
    // The two PIR servers are independent (that independence is the
    // privacy guarantee), so their round trips overlap instead of paying
    // the WAN latency twice per retrieval.
    pir::ShardedPirResponse r1;
    std::exception_ptr r1_error;
    std::thread second([&] {
      try {
        r1 = TpaClient(*tpa1_).shard_query(plan.queries[1]);
      } catch (...) {
        r1_error = std::current_exception();
      }
    });
    pir::ShardedPirResponse r0;
    std::exception_ptr r0_error;
    try {
      r0 = TpaClient(*tpa0_).shard_query(plan.queries[0]);
    } catch (...) {
      r0_error = std::current_exception();
    }
    second.join();
    const std::exception_ptr error =
        r0_error != nullptr ? r0_error : r1_error;
    if (error != nullptr) {
      if (attempt == 0) {
        try {
          std::rethrow_exception(error);
        } catch (const net::RemoteError& e) {
          if (e.status() == net::Status::kFailedPrecondition) {
            invalidate_planner();
            continue;
          }
          throw;
        }
      }
      std::rethrow_exception(error);
    }
    return plan_for->merge_decode(plan, r0, r1);
  }
}

std::size_t UserClient::append_block(BytesView content) {
  if (n_ == 0) throw ProtocolError("append_block: no file");
  const bn::BigInt tag = tagger_.tag(content);
  const auto [index0, epoch0] = TpaClient(*tpa0_).append_tag(tag);
  const auto [index1, epoch1] = TpaClient(*tpa1_).append_tag(tag);
  if (index0 != index1 || epoch0 != epoch1) {
    throw ProtocolError("append_block: TPA replicas disagree");
  }
  n_ = index0 + 1;
  invalidate_planner();  // the tail shard changed (and may have split)
  return index0;
}

void UserClient::forget_updated_block(std::size_t index) {
  std::lock_guard lock(blocks_mu_);
  std::erase_if(updated_blocks_,
                [index](const auto& e) { return e.first == index; });
}

std::uint64_t UserClient::update_block(std::size_t index, BytesView content) {
  if (n_ == 0 || index >= n_) {
    throw ParamError("update_block: bad index or no file");
  }
  const bn::BigInt tag = tagger_.tag(content);
  const std::uint64_t epoch0 = TpaClient(*tpa0_).update_tag(index, tag);
  const std::uint64_t epoch1 = TpaClient(*tpa1_).update_tag(index, tag);
  if (epoch0 != epoch1) {
    throw ProtocolError("update_block: TPA replicas disagree");
  }
  return epoch0;
}

bool UserClient::close_epochs() {
  // Exclusive gate: no audit of ours is mid-flight, so forcing past the
  // TPA-side pins is safe — the pins protect audits, and ours are the only
  // ones against this file.
  std::unique_lock gate(epoch_gate_);
  const auto r0 = TpaClient(*tpa0_).close_epoch(/*force=*/true);
  const auto r1 = TpaClient(*tpa1_).close_epoch(/*force=*/true);
  if (r0.closed != r1.closed || r0.epoch != r1.epoch) {
    throw ProtocolError("close_epochs: TPA replicas disagree");
  }
  if (r0.closed) {
    // The map epoch moved; drop the planner now instead of paying a
    // stale-plan round trip on the next retrieval.
    invalidate_planner();
  }
  return r0.closed;
}

void UserClient::commit_updated_block(std::size_t index, BytesView content) {
  if (n_ == 0 || index >= n_) {
    throw ParamError("commit_updated_block: bad index or no file");
  }
  update_block(index, content);
  close_epochs();
  // Only forget after the close: until the merge lands, audits must keep
  // repacking this block's tag from the note.
  forget_updated_block(index);
}

void UserClient::note_updated_block(std::size_t index, Bytes new_content) {
  std::lock_guard lock(blocks_mu_);
  std::erase_if(updated_blocks_,
                [index](const auto& e) { return e.first == index; });
  updated_blocks_.emplace_back(index, std::move(new_content));
}

bool UserClient::audit_edge(net::RpcChannel& edge_channel,
                            std::uint32_t edge_id) {
  if (n_ == 0) throw ProtocolError("audit_edge: no file");
  // Shared epoch gate: close_epochs cannot land between our tag retrieval
  // and the verdict, so the whole audit reads one epoch snapshot.
  std::shared_lock gate(epoch_gate_);
  const EdgeClient edge(edge_channel);
  const TpaClient tpa(*tpa0_);

  // 1. IndexQuery: learn S_j over the fast local link.
  const std::vector<std::size_t> s_j = edge.index_query();
  if (s_j.empty()) return true;  // nothing pre-downloaded, nothing to audit

  // 2. The user picks the session nonce and shares the blinding s~ with
  //    the edge under it; the TPA's challenge quotes the same id so the
  //    edge can look the blinding up.
  const std::uint64_t session_id = rng_.next_u64();
  const bn::BigInt s_tilde = draw_blinding(keys_.pk.pk, rng_);
  edge.share_blinding(session_id, s_tilde);

  // 3+4. The TPA challenges the edge and parks the proof under the session
  //      id while the user privately retrieves the tags for S_j — the two
  //      round trips touch disjoint state (audit session vs tag store), so
  //      only submit_repacked needs both to have finished.
  std::exception_ptr audit_error;
  std::thread challenge([&] {
    try {
      tpa.start_audit(edge_id, session_id);
    } catch (...) {
      audit_error = std::current_exception();
    }
  });
  std::vector<bn::BigInt> tags;
  std::exception_ptr tags_error;
  try {
    tags = retrieve_tags(s_j);
  } catch (...) {
    tags_error = std::current_exception();
  }
  challenge.join();
  if (audit_error != nullptr) std::rethrow_exception(audit_error);
  if (tags_error != nullptr) std::rethrow_exception(tags_error);

  // 5. Repack: T~ = T^s~; updated blocks get fresh g^{m' s~} tags.
  std::vector<bn::BigInt> repacked =
      repack_tags(keys_.pk.pk, tags, s_tilde, params_.parallelism);
  for (const auto& [index, content] : updated_blocks()) {
    const auto it = std::find(s_j.begin(), s_j.end(), index);
    if (it == s_j.end()) continue;
    repacked[static_cast<std::size_t>(it - s_j.begin())] =
        tagger_.updated_tag(content, s_tilde);
  }

  // 6. Submit and receive the verdict.
  return tpa.submit_repacked(session_id, repacked);
}

LocalizationResult UserClient::localize_corruption(
    net::RpcChannel& edge_channel) {
  if (n_ == 0) {
    throw ProtocolError("localize_corruption: no file");
  }
  std::shared_lock gate(epoch_gate_);
  const EdgeClient edge(edge_channel);
  const std::vector<std::size_t> s_j = edge.index_query();
  std::vector<bn::BigInt> tags = retrieve_tags(s_j);
  // Blocks updated this session have fresh expected tags.
  for (const auto& [index, content] : updated_blocks()) {
    const auto it = std::find(s_j.begin(), s_j.end(), index);
    if (it == s_j.end()) continue;
    tags[static_cast<std::size_t>(it - s_j.begin())] =
        tagger_.tag(content);
  }
  return proto::localize_corruption(keys_.pk.pk, params_, edge, s_j, tags,
                                    rng_);
}

bool UserClient::audit_edges_batch(
    const std::vector<net::RpcChannel*>& edge_channels) {
  if (n_ == 0) throw ProtocolError("audit_edges_batch: no file");
  if (edge_channels.empty()) {
    throw ParamError("audit_edges_batch: no edges");
  }
  std::shared_lock gate(epoch_gate_);
  const TpaClient tpa(*tpa0_);

  // IndexQuery every edge (fast local links).
  std::vector<std::vector<std::size_t>> edge_sets;
  edge_sets.reserve(edge_channels.size());
  for (net::RpcChannel* ch : edge_channels) {
    edge_sets.push_back(EdgeClient(*ch).index_query());
    if (edge_sets.back().empty()) {
      throw ProtocolError("audit_edges_batch: edge with empty cache");
    }
  }

  // TPA opens the batch (draws s) under a user-chosen nonce; user draws
  // the per-edge keys e_j, which the TPA never sees.
  const std::uint64_t batch_id = rng_.next_u64();
  const bn::BigInt g_s = tpa.batch_begin(batch_id, edge_channels.size());
  const std::vector<bn::BigInt> keys =
      draw_challenge_keys(params_, edge_channels.size(), rng_);
  // Challenge every edge (each proves and submits to the TPA over its
  // own link) while the union retrieval runs on this thread: the two touch
  // disjoint state, and batch_finish needs both done. Errors surface only
  // after everything has joined, the lowest-indexed edge's first.
  const std::vector<std::size_t> u = union_of_sets(edge_sets);
  std::vector<bn::BigInt> tags;
  parallel_calls(
      edge_channels.size(), params_.parallelism,
      [&](std::size_t j) {
        EdgeClient(*edge_channels[j]).batch_challenge(batch_id, keys[j], g_s);
      },
      [&] { tags = retrieve_tags(u); });

  // Aggregated repacking.
  const std::vector<bn::BigInt> repacked =
      batch_repack(keys_.pk.pk, params_, u, tags, edge_sets, keys);
  return tpa.batch_finish(batch_id, repacked);
}

}  // namespace ice::proto
