#include "ice/tpa_service.h"

#include "common/error.h"
#include "ice/edge_service.h"
#include "ice/wire.h"

namespace ice::proto {

using net::ServiceError;
using net::Status;

TpaService::TpaService(pir::EvalStrategy, std::size_t parallelism,
                       std::size_t shard_budget, const OfflineConfig& offline)
    : dispatch_("TpaService"),
      sessions_(session_table_config()),
      batches_(session_table_config()),
      offline_cfg_(offline),
      pool_(offline) {
  params_.parallelism = parallelism;
  params_.shard_budget = shard_budget;
  if (offline_cfg_.enabled) {
    offline_worker_ = std::make_unique<OfflineWorker>(pool_, rng_);
  }
  const auto bind = [this](void (TpaService::*fn)(net::Reader&,
                                                  net::Writer&)) {
    return [this, fn](net::Reader& r, net::Writer& w) { (this->*fn)(r, w); };
  };
  dispatch_.on(kTpaSetKey, "set_key", bind(&TpaService::on_set_key));
  dispatch_.on(kTpaStoreTags, "store_tags", bind(&TpaService::on_store_tags));
  dispatch_.on(kTpaStartAudit, "start_audit",
               bind(&TpaService::on_start_audit));
  dispatch_.on(kTpaSubmitRepacked, "submit_repacked",
               bind(&TpaService::on_submit_repacked));
  dispatch_.on(kTpaBatchBegin, "batch_begin",
               bind(&TpaService::on_batch_begin));
  dispatch_.on(kTpaSubmitProof, "submit_proof",
               bind(&TpaService::on_submit_proof));
  dispatch_.on(kTpaBatchFinish, "batch_finish",
               bind(&TpaService::on_batch_finish));
  dispatch_.on(kTpaUpdateTag, "update_tag",
               bind(&TpaService::on_update_tag));
  dispatch_.on(kTpaShardMap, "shard_map", bind(&TpaService::on_shard_map));
  dispatch_.on(kTpaShardQuery, "shard_query",
               bind(&TpaService::on_shard_query));
  dispatch_.on(kTpaSplitShard, "split_shard",
               bind(&TpaService::on_split_shard));
  dispatch_.on(kTpaAppendTag, "append_tag",
               bind(&TpaService::on_append_tag));
  dispatch_.on(kTpaCloseEpoch, "close_epoch",
               bind(&TpaService::on_close_epoch));
}

Bytes TpaService::handle(std::uint16_t method, BytesView request) {
  return dispatch_.handle(method, request);
}

void TpaService::register_edge(std::uint32_t edge_id,
                               net::RpcChannel& channel) {
  std::unique_lock lock(config_mu_);
  edges_[edge_id] = &channel;
}

bool TpaService::has_tags() const {
  std::shared_lock lock(store_mu_);
  return store_ != nullptr;
}

StoreEpochStats TpaService::epoch_stats() const {
  std::shared_lock lock(store_mu_);
  if (store_ == nullptr) return {};
  return store_->epoch_stats();
}

std::pair<PublicKey, ProtocolParams> TpaService::config_snapshot() const {
  std::shared_lock lock(config_mu_);
  if (!pk_) {
    throw ServiceError(Status::kFailedPrecondition, "set key first");
  }
  return {*pk_, params_};
}

void TpaService::on_set_key(net::Reader& r, net::Writer&) {
  PublicKey pk;
  pk.n = r.bigint();
  pk.g = r.bigint();
  const auto coeff_bits = static_cast<std::size_t>(r.varint());
  const auto key_bits = static_cast<std::size_t>(r.varint());
  const std::uint64_t block_bytes = r.varint();
  r.expect_done();
  if (!plausible_public_key(pk)) {
    throw ServiceError(Status::kInvalidArgument, "implausible public key");
  }
  // The block size sizes the challenge ladder (one squaring chain of
  // ~8 block_bytes bits, run in this handler), so it is bounded like any
  // other length.
  if (block_bytes == 0 || block_bytes > kMaxBlockBytes) {
    throw ServiceError(Status::kInvalidArgument, "implausible block size");
  }
  ProtocolParams params;
  {
    std::shared_lock lock(config_mu_);
    params = params_;
  }
  params.coeff_bits = coeff_bits;
  params.challenge_key_bits = key_bits;
  params.modulus_bits = pk.n.bit_length();
  params.block_bytes = static_cast<std::size_t>(block_bytes);
  // The key's challenge ladder: the fixed bases g^{2^{iL}} and their combs,
  // built here so no audit pays for them. Taking G_0's comb from the
  // context cache also warms fixed_base(g, |N|) for the ICE-batch base:
  // with a fresh modulus the first challenge would otherwise pay the whole
  // Lim-Lee table build on its critical path
  // (tests/bignum/fixed_base_test.cpp pins the cliff).
  auto ladder = std::make_shared<const ChallengeLadder>(pk, params);
  {
    std::unique_lock lock(config_mu_);
    params_ = params;
    pk_ = pk;
    ladder_ = ladder;
  }
  {
    std::unique_lock lock(store_mu_);
    store_.reset();  // tags from an old key are meaningless now
  }
  // So are sessions challenged under the old key.
  sessions_.clear();
  batches_.clear();
  if (offline_cfg_.enabled) {
    // New key ⇒ new pool generation: stored bundles drop, in-flight mints
    // against the old key become stale offers the pool refuses.
    pool_.rekey(std::move(ladder), params);
    offline_worker_->kick();
  }
}

void TpaService::on_store_tags(net::Reader& r, net::Writer&) {
  std::vector<bn::BigInt> tags = read_bigint_list(r);
  if (tags.empty()) {
    throw ServiceError(Status::kInvalidArgument, "no tags");
  }
  const auto [pk, params] = config_snapshot();
  (void)pk;
  // Build the replacement store with no lock held (this is the expensive
  // part), then swap it in.
  auto store = std::make_unique<TagStore>(params, std::move(tags));
  std::unique_lock lock(store_mu_);
  store_ = std::move(store);
}

void TpaService::on_start_audit(net::Reader& r, net::Writer&) {
  const auto edge_id = static_cast<std::uint32_t>(r.varint());
  // Session id is a user-chosen nonce: the user already shared the
  // blinding s~ with the edge under this id, and the edge looks it up
  // when our challenge arrives.
  const std::uint64_t id = r.u64();
  r.expect_done();
  PublicKey pk;
  ProtocolParams params;
  std::shared_ptr<const ChallengeLadder> ladder;
  net::RpcChannel* edge_channel = nullptr;
  {
    std::shared_lock lock(config_mu_);
    if (!pk_) {
      throw ServiceError(Status::kFailedPrecondition, "set key first");
    }
    const auto it = edges_.find(edge_id);
    if (it == edges_.end()) {
      throw ServiceError(Status::kNotFound, "unknown edge");
    }
    pk = *pk_;
    params = params_;
    ladder = ladder_;
    edge_channel = it->second;
  }

  AuditSession session;
  session.edge_id = edge_id;
  // Online/offline split: a pooled bundle turns the challenge phase into a
  // dequeue (the g^s modexp, RNG draws and coefficient expansion already
  // happened offline). The cold path below is the pinned reference and the
  // pool-miss fallback — bit-identical verdict either way.
  bool pooled = false;
  if (offline_cfg_.enabled) {
    ChallengeBundle bundle;
    if (pool_.try_acquire(bundle)) {
      session.challenge = std::move(bundle.challenge);
      session.secret = std::move(bundle.secret);
      session.coeffs = std::move(bundle.coeffs);
      pooled = true;
    }
    offline_worker_->kick();  // refill behind this consume (or miss)
  }
  if (!pooled) {
    session.challenge = make_challenge(*ladder, params, rng_, session.secret);
  }
  {
    // Pin the epoch snapshot for the session's lifetime (DESIGN.md §15):
    // a non-forced close_epoch defers while this audit is in flight. The
    // pin dies with the session — consumed, aborted or TTL-purged.
    std::shared_lock store_lock(store_mu_);
    if (store_ != nullptr) session.store_pin = store_->pin();
  }
  const Challenge challenge = session.challenge;
  // Park the session in kChallenging state BEFORE the round trip so a
  // concurrent start_audit on the same nonce is refused, then challenge
  // the edge with no lock of ours held.
  switch (sessions_.try_emplace(id, std::move(session))) {
    case SessionTable<AuditSession>::Insert::kExists:
      throw ServiceError(Status::kAlreadyExists, "session id already in use");
    case SessionTable<AuditSession>::Insert::kFull:
      throw ServiceError(Status::kResourceExhausted,
                         "too many open sessions");
    case SessionTable<AuditSession>::Insert::kInserted:
      break;
  }
  Proof proof;
  try {
    proof = EdgeClient(*edge_channel).challenge(id, challenge);
    // Reject malformed proof values at the wire boundary: an honest edge
    // always returns an element of Z_N^*, so anything else is a protocol
    // violation, not a failed audit.
    validate_proof(pk, proof);
  } catch (...) {
    sessions_.erase(id);
    throw;
  }
  const bool parked = sessions_.with(id, [&](AuditSession& s) {
    s.proof = std::move(proof);
    s.state = AuditSession::State::kAwaitingTags;
  });
  if (!parked) {
    throw ServiceError(Status::kNotFound,
                       "session expired during the edge challenge");
  }
}

void TpaService::on_submit_repacked(net::Reader& r, net::Writer& w) {
  const std::uint64_t id = r.u64();
  const std::vector<bn::BigInt> tags = read_bigint_list(r);
  r.expect_done();
  const auto [pk, params] = config_snapshot();
  auto [outcome, session] =
      sessions_.extract_if(id, [](const AuditSession& s) {
        return s.state == AuditSession::State::kAwaitingTags;
      });
  if (outcome == SessionTable<AuditSession>::Extract::kMissing) {
    throw ServiceError(Status::kNotFound, "unknown session");
  }
  if (outcome == SessionTable<AuditSession>::Extract::kRejected) {
    throw ServiceError(Status::kFailedPrecondition,
                       "edge challenge still in flight");
  }
  bool pass;
  if (session->coeffs.size() >= tags.size()) {
    // Pool-served session with enough pre-expanded coefficients: slice the
    // prefix (the PRF stream is sequential, so it is the exact cold-path
    // vector) and skip the online expansion.
    session->coeffs.resize(tags.size());
    pass = verify_proof_precomputed(pk, params, tags, session->coeffs,
                                    session->secret, session->proof);
  } else {
    pass = verify_proof(pk, params, tags, session->challenge, session->secret,
                        session->proof);
  }
  {
    std::lock_guard lock(log_mu_);
    log_.append(id, session->edge_id, /*batch=*/false, pass);
  }
  w.u8(pass ? 1 : 0);
}

void TpaService::on_batch_begin(net::Reader& r, net::Writer& w) {
  // Batch id is a user-chosen nonce, mirroring start_audit: the user
  // quotes it to every edge it challenges, and each edge quotes it back
  // when submitting its proof.
  const std::uint64_t id = r.u64();
  const auto num_edges = static_cast<std::size_t>(r.varint());
  if (num_edges == 0) {
    throw ServiceError(Status::kInvalidArgument, "empty batch");
  }
  const auto [pk, params] = config_snapshot();
  (void)params;
  BatchSession batch;
  Challenge base;
  // ICE-batch only needs (s, g^s) from the TPA — the per-edge challenge
  // keys are the user's (paper §V) — so a pooled bundle serves here too;
  // its pre-expanded coefficients go unused, but the g^s modexp dominates
  // the mint, so the online saving is nearly the full bundle.
  bool pooled = false;
  if (offline_cfg_.enabled) {
    ChallengeBundle bundle;
    if (pool_.try_acquire(bundle)) {
      base.g_s = std::move(bundle.challenge.g_s);
      batch.secret = std::move(bundle.secret);
      pooled = true;
    }
    offline_worker_->kick();
  }
  if (!pooled) base = make_batch_base(pk, rng_, batch.secret);
  batch.expected_proofs = num_edges;
  {
    // Same snapshot pin as start_audit, held for the whole batch round.
    std::shared_lock store_lock(store_mu_);
    if (store_ != nullptr) batch.store_pin = store_->pin();
  }
  switch (batches_.try_emplace(id, std::move(batch))) {
    case SessionTable<BatchSession>::Insert::kExists:
      throw ServiceError(Status::kAlreadyExists, "batch id already in use");
    case SessionTable<BatchSession>::Insert::kFull:
      throw ServiceError(Status::kResourceExhausted, "too many open batches");
    case SessionTable<BatchSession>::Insert::kInserted:
      break;
  }
  w.bigint(base.g_s);
}

void TpaService::on_submit_proof(net::Reader& r, net::Writer&) {
  const std::uint64_t id = r.u64();
  Proof proof;
  proof.p = r.bigint();
  r.expect_done();
  const auto [pk, params] = config_snapshot();
  (void)params;
  validate_proof(pk, proof);  // range/unit check at deserialization
  bool full = false;
  const bool found = batches_.with(id, [&](BatchSession& batch) {
    if (batch.proofs.size() >= batch.expected_proofs) {
      full = true;
      return;
    }
    batch.proofs.push_back(std::move(proof));
  });
  if (!found) throw ServiceError(Status::kNotFound, "unknown batch");
  if (full) {
    throw ServiceError(Status::kFailedPrecondition, "batch already full");
  }
}

void TpaService::on_batch_finish(net::Reader& r, net::Writer& w) {
  const std::uint64_t id = r.u64();
  const std::vector<bn::BigInt> tags = read_bigint_list(r);
  r.expect_done();
  const auto [pk, params] = config_snapshot();
  auto [outcome, batch] = batches_.extract_if(
      id, [](const BatchSession& b) { return b.complete(); });
  if (outcome == SessionTable<BatchSession>::Extract::kMissing) {
    throw ServiceError(Status::kNotFound, "unknown batch");
  }
  if (outcome == SessionTable<BatchSession>::Extract::kRejected) {
    throw ServiceError(Status::kFailedPrecondition,
                       "batch proofs incomplete");
  }
  const bool pass = verify_batch(pk, tags, batch->proofs, batch->secret,
                                 params.parallelism);
  {
    std::lock_guard lock(log_mu_);
    log_.append(id, /*edge_id=*/0, /*batch=*/true, pass);
  }
  w.u8(pass ? 1 : 0);
}

void TpaService::on_update_tag(net::Reader& r, net::Writer& w) {
  const auto index = static_cast<std::size_t>(r.varint());
  const bn::BigInt tag = r.bigint();
  r.expect_done();
  // SHARED service lock: the store pointer stays put, and TagStore::update
  // only stages into the delta plane — an update storm rides alongside
  // in-flight audits (snapshot isolation, DESIGN.md §15).
  std::shared_lock lock(store_mu_);
  if (store_ == nullptr) {
    throw ServiceError(Status::kFailedPrecondition, "no tags stored");
  }
  // Typed kInvalidArgument envelopes for hostile wire input: a caller must
  // never be able to turn a bad index or oversized tag into anything but a
  // clean refusal (ISSUE 9 hardening satellite).
  if (index >= store_->n()) {
    throw ServiceError(Status::kInvalidArgument, "tag index out of range");
  }
  if (tag.is_negative() || tag.bit_length() > store_->tag_bits()) {
    throw ServiceError(Status::kInvalidArgument, "tag out of range for K bits");
  }
  store_->update(index, tag);
  w.u64(store_->epoch());  // the epoch the update was staged under
}

void TpaService::on_shard_map(net::Reader& r, net::Writer& w) {
  r.expect_done();
  std::shared_lock lock(store_mu_);
  if (store_ == nullptr) {
    throw ServiceError(Status::kFailedPrecondition, "no tags stored");
  }
  write_shard_map(w, store_->shard_map());
}

void TpaService::on_shard_query(net::Reader& r, net::Writer& w) {
  const pir::ShardedPirQuery query = read_sharded_query(r);
  std::shared_lock lock(store_mu_);
  if (store_ == nullptr) {
    throw ServiceError(Status::kFailedPrecondition, "no tags stored");
  }
  // A stale query epoch throws pir::StaleShardMapError (a ProtocolError),
  // which the dispatcher maps to kFailedPrecondition for the client's
  // refresh-and-retry path.
  ShardedResponseWriter out(w, query, store_->tag_bits());
  store_->respond_sharded_each(query, out);
}

void TpaService::on_split_shard(net::Reader& r, net::Writer& w) {
  const auto shard = static_cast<std::size_t>(r.varint());
  r.expect_done();
  std::shared_lock lock(store_mu_);
  if (store_ == nullptr) {
    throw ServiceError(Status::kFailedPrecondition, "no tags stored");
  }
  // Explicit typed refusal before the store throws ParamError deeper down:
  // a hostile shard id is a caller bug, not a service precondition.
  if (shard >= store_->num_shards()) {
    throw ServiceError(Status::kInvalidArgument, "shard id out of range");
  }
  store_->split(shard);  // takes the store's structure lock exclusively
  w.u64(store_->epoch());
}

void TpaService::on_append_tag(net::Reader& r, net::Writer& w) {
  const bn::BigInt tag = r.bigint();
  r.expect_done();
  std::shared_lock lock(store_mu_);
  if (store_ == nullptr) {
    throw ServiceError(Status::kFailedPrecondition, "no tags stored");
  }
  if (tag.is_negative() || tag.bit_length() > store_->tag_bits()) {
    throw ServiceError(Status::kInvalidArgument, "tag out of range for K bits");
  }
  const std::size_t index = store_->append(tag);
  w.varint(index);
  w.u64(store_->epoch());
}

void TpaService::on_close_epoch(net::Reader& r, net::Writer& w) {
  const bool force = r.u8() != 0;
  r.expect_done();
  std::shared_lock lock(store_mu_);
  if (store_ == nullptr) {
    throw ServiceError(Status::kFailedPrecondition, "no tags stored");
  }
  const pir::EpochCloseResult result = store_->close_epoch(force);
  w.u8(result.closed ? 1 : 0);
  w.u64(result.epoch);
  w.varint(result.rows_merged);
}

void TpaClient::set_key(const PublicKey& pk,
                        const ProtocolParams& params) const {
  net::Writer w;
  w.bigint(pk.n);
  w.bigint(pk.g);
  w.varint(params.coeff_bits);
  w.varint(params.challenge_key_bits);
  w.varint(params.block_bytes);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaSetKey, std::move(w));
  unwrap(raw);
}

void TpaClient::store_tags(const std::vector<bn::BigInt>& tags) const {
  net::Writer w;
  write_bigint_list(w, tags);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaStoreTags, std::move(w));
  unwrap(raw);
}

void TpaClient::start_audit(std::uint32_t edge_id,
                            std::uint64_t session_id) const {
  net::Writer w;
  w.varint(edge_id);
  w.u64(session_id);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaStartAudit, std::move(w));
  unwrap(raw);
}

bool TpaClient::submit_repacked(std::uint64_t session_id,
                                const std::vector<bn::BigInt>& tags) const {
  net::Writer w;
  w.u64(session_id);
  write_bigint_list(w, tags);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaSubmitRepacked, std::move(w));
  net::Reader r = unwrap(raw);
  return r.u8() == 1;
}

bn::BigInt TpaClient::batch_begin(std::uint64_t batch_id,
                                  std::size_t num_edges) const {
  net::Writer w;
  w.u64(batch_id);
  w.varint(num_edges);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaBatchBegin, std::move(w));
  net::Reader r = unwrap(raw);
  return r.bigint();
}

std::uint64_t TpaClient::update_tag(std::size_t index,
                                    const bn::BigInt& tag) const {
  net::Writer w;
  w.varint(index);
  w.bigint(tag);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaUpdateTag, std::move(w));
  net::Reader r = unwrap(raw);
  return r.u64();
}

TpaClient::CloseEpochReply TpaClient::close_epoch(bool force) const {
  net::Writer w;
  w.u8(force ? 1 : 0);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaCloseEpoch, std::move(w));
  net::Reader r = unwrap(raw);
  CloseEpochReply reply;
  reply.closed = r.u8() == 1;
  reply.epoch = r.u64();
  reply.rows_merged = r.varint();
  return reply;
}

pir::ShardMap TpaClient::shard_map() const {
  net::Writer w;
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaShardMap, std::move(w));
  net::Reader r = unwrap(raw);
  return read_shard_map(r);
}

pir::ShardedPirResponse TpaClient::shard_query(
    const pir::ShardedPirQuery& query) const {
  net::Writer w;
  write_sharded_query(w, query);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaShardQuery, std::move(w));
  net::Reader r = unwrap(raw);
  return read_sharded_response(r);
}

std::uint64_t TpaClient::split_shard(std::size_t shard) const {
  net::Writer w;
  w.varint(shard);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaSplitShard, std::move(w));
  net::Reader r = unwrap(raw);
  return r.u64();
}

std::pair<std::size_t, std::uint64_t> TpaClient::append_tag(
    const bn::BigInt& tag) const {
  net::Writer w;
  w.bigint(tag);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaAppendTag, std::move(w));
  net::Reader r = unwrap(raw);
  const auto index = static_cast<std::size_t>(r.varint());
  const std::uint64_t epoch = r.u64();
  return {index, epoch};
}

bool TpaClient::batch_finish(std::uint64_t batch_id,
                             const std::vector<bn::BigInt>& tags) const {
  net::Writer w;
  w.u64(batch_id);
  write_bigint_list(w, tags);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaBatchFinish, std::move(w));
  net::Reader r = unwrap(raw);
  return r.u8() == 1;
}

}  // namespace ice::proto
