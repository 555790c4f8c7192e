// End-device actor: owns the keys, tags its file, and drives full audit
// rounds against edges through the TPAs.
//
// This composes the whole ICE information flow (paper Fig. 1):
//   setup:   KeyGen -> TagGen -> upload tags to both TPAs
//   audit:   IndexQuery (edge) -> share s~ (edge) -> start audit (TPA
//            challenges edge, parks proof) -> private tag retrieval (both
//            TPAs) -> repack -> submit -> verdict
//   batch:   IndexQuery x J -> batch begin (TPA) -> challenge keys e_j to
//            all J edges at once (fast local links; each edge proves and
//            submits to the TPA), overlapped with the union retrieval ->
//            aggregated repack -> batch finish -> verdict
// Thread safety: after the single-threaded setup phase (setup_file or
// attach_file), concurrent audit_edge / audit_edges_batch / retrieve_tags
// calls on one client are safe — randomness goes through a serialized
// SharedCsprng and the updated-block notes sit behind their own mutex.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "bignum/random.h"
#include "crypto/csprng.h"
#include "ice/edge_service.h"
#include "ice/keys.h"
#include "ice/localize.h"
#include "ice/params.h"
#include "ice/shard_audit.h"
#include "ice/tag.h"
#include "ice/tpa_service.h"
#include "pir/client.h"

namespace ice::proto {

class UserClient {
 public:
  /// `tpa0` is the verifier replica, `tpa1` the second PIR replica.
  /// Channels are non-owning and must outlive the client.
  UserClient(const ProtocolParams& params, KeyPair keys,
             net::RpcChannel& tpa0, net::RpcChannel& tpa1);

  /// Tags all blocks, uploads the tag set to both TPAs, and remembers n.
  /// Returns the tag-generation time in seconds (paper Tab. III "TagGen").
  double setup_file(const std::vector<Bytes>& blocks);

  /// Adopts an already-uploaded file of `n_blocks` blocks without re-tagging
  /// or re-uploading: a second client holding the same key pair (e.g. one
  /// per concurrent session in the benchmarks) can audit the file some
  /// other client set up.
  void attach_file(std::size_t n_blocks);

  /// Runs one complete ICE-basic audit of the edge behind `edge_channel`
  /// (registered at the TPA as `edge_id`). Returns the verdict.
  [[nodiscard]] bool audit_edge(net::RpcChannel& edge_channel,
                                std::uint32_t edge_id);

  /// Runs one ICE-batch audit across several edges. Returns the verdict.
  /// The batch_challenge calls run concurrently, at most
  /// resolve_parallelism(params.parallelism) at a time, beside the union
  /// retrieval (parallel_calls in common/parallel.h); parallelism 1 keeps
  /// the serial order. A failed call surfaces only after every call and
  /// the retrieval have finished: the lowest-indexed edge's error first,
  /// then a retrieval error.
  [[nodiscard]] bool audit_edges_batch(
      const std::vector<net::RpcChannel*>& edge_channels);

  /// Marks a block as updated in the current session: during the next
  /// audit_edge the corresponding repacked tag is regenerated from the new
  /// content (VerifyEdge step 2) instead of the stored tag.
  void note_updated_block(std::size_t index, Bytes new_content);

  /// Drops the update note for a block (the update was flushed, or it was
  /// lost to corruption and rolled back to the cloud version).
  void forget_updated_block(std::size_t index);

  /// Data dynamics, storm path: re-tags the block and STAGES the fresh tag
  /// at both TPAs under the current epoch (TagDatabase delta plane). The
  /// tag is invisible to retrievals until close_epochs() merges it — so an
  /// update storm never perturbs concurrent audits — and the session note
  /// must stay in place until then. Returns the epoch staged under; throws
  /// ProtocolError when the replicas disagree.
  std::uint64_t update_block(std::size_t index, BytesView content);

  /// Closes the epoch at BOTH TPAs in lockstep (forced: the client-side
  /// epoch gate, not TPA pins, protects this client's own audits — the
  /// call excludes them by taking the gate exclusively). Returns true when
  /// staged rows merged; the cached planner is dropped in that case (the
  /// map epoch moved).
  bool close_epochs();

  /// Data dynamics, synchronous path: once an update has been written back
  /// to the CSP, stages its fresh tag at BOTH TPAs, closes the epoch, and
  /// drops the session note. Afterwards ordinary audits cover the new
  /// content with no special casing. Blocks until in-flight audits of this
  /// client release the epoch gate.
  void commit_updated_block(std::size_t index, BytesView content);

  /// Snapshot of the blocks updated this session and not yet committed.
  [[nodiscard]] std::vector<std::pair<std::size_t, Bytes>> updated_blocks()
      const {
    std::lock_guard lock(blocks_mu_);
    return updated_blocks_;
  }

  /// Privately retrieves tags for `indices` from the two TPAs, fanning the
  /// query out to the shards the indexes touch (ice/shard_audit.h). The
  /// shard-map snapshot is fetched lazily and cached; when a structural
  /// change at the TPAs lands between planning and evaluation, the stale
  /// plan is rejected remotely (kFailedPrecondition) and the client
  /// refreshes its map and retries once.
  [[nodiscard]] std::vector<bn::BigInt> retrieve_tags(
      const std::vector<std::size_t>& indices);

  /// Data dynamics: tags a NEW block and appends it at both TPAs (the tail
  /// shard may split). Returns the block's global index.
  std::size_t append_block(BytesView content);

  /// After a failed audit: pinpoints which of the edge's cached blocks are
  /// corrupted by bisection sub-audits over the fast local link (see
  /// ice/localize.h). Applies this session's noted block updates before
  /// comparing, so a freshly updated block is not misreported.
  [[nodiscard]] LocalizationResult localize_corruption(
      net::RpcChannel& edge_channel);

  [[nodiscard]] const PublicKey& pk() const { return keys_.pk.pk; }
  [[nodiscard]] std::size_t file_blocks() const { return n_; }

 private:
  struct Keys {
    KeyPair pk;  // full pair; only pk leaves the device
  };

  ProtocolParams params_;
  Keys keys_;
  TagGenerator tagger_;
  net::RpcChannel* tpa0_;
  net::RpcChannel* tpa1_;
  /// Cached shard planner (per-shard embeddings + PIR clients), built from
  /// tpa0's shard map on first use and dropped on any event that can
  /// change the map (setup, attach, append, remote stale-plan rejection).
  /// shared_ptr so an in-flight retrieval keeps its snapshot while a
  /// concurrent refresh swaps the cache.
  [[nodiscard]] std::shared_ptr<const ShardPlanner> planner();
  void invalidate_planner();

  std::size_t n_ = 0;
  /// Epoch gate (DESIGN.md §15): audit flows hold it shared for their full
  /// duration; close_epochs takes it exclusively. Replica epochs therefore
  /// never move mid-audit FOR THIS CLIENT's audits — which is why closes
  /// force past the TPA-side advisory pins. Only top-level entry points
  /// lock it (shared_mutex is not recursive).
  mutable std::shared_mutex epoch_gate_;
  mutable std::mutex planner_mu_;
  std::shared_ptr<const ShardPlanner> planner_;
  crypto::SharedCsprng rng_;
  mutable std::mutex blocks_mu_;
  std::vector<std::pair<std::size_t, Bytes>> updated_blocks_;
};

}  // namespace ice::proto
