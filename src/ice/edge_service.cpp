#include "ice/edge_service.h"

#include "common/error.h"
#include "ice/batch.h"
#include "ice/csp_service.h"
#include "ice/wire.h"

namespace ice::proto {

using net::ServiceError;
using net::Status;

EdgeService::EdgeService(std::uint32_t edge_id, const ProtocolParams& params,
                         PublicKey pk, mec::EdgeCache cache,
                         net::RpcChannel& csp, net::RpcChannel* tpa)
    : edge_id_(edge_id),
      params_(params),
      pk_(std::move(pk)),
      csp_(&csp),
      tpa_(tpa),
      dispatch_("EdgeService"),
      cache_(std::move(cache)),
      blindings_(session_table_config()) {
  const auto bind = [this](void (EdgeService::*fn)(net::Reader&,
                                                   net::Writer&)) {
    return [this, fn](net::Reader& r, net::Writer& w) { (this->*fn)(r, w); };
  };
  dispatch_.on(kEdgeRead, "read", bind(&EdgeService::on_read));
  dispatch_.on(kEdgeWrite, "write", bind(&EdgeService::on_write));
  dispatch_.on(kEdgeIndexQuery, "index_query",
               bind(&EdgeService::on_index_query));
  dispatch_.on(kEdgeShareBlind, "share_blinding",
               bind(&EdgeService::on_share_blind));
  dispatch_.on(kEdgeChallenge, "challenge", bind(&EdgeService::on_challenge));
  dispatch_.on(kEdgeBatchChallenge, "batch_challenge",
               bind(&EdgeService::on_batch_challenge));
  dispatch_.on(kEdgeSubsetProof, "subset_proof",
               bind(&EdgeService::on_subset_proof));
  dispatch_.on(kEdgeFlush, "flush", bind(&EdgeService::on_flush));
}

Bytes EdgeService::handle(std::uint16_t method, BytesView request) {
  return dispatch_.handle(method, request);
}

Bytes EdgeService::fetch_and_admit(std::size_t index) {
  // The CSP round trip runs with no lock held; only the admit re-locks.
  Bytes block = CspClient(*csp_).fetch(index);
  std::lock_guard lock(cache_mu_);
  if (!cache_.contains(index)) {
    cache_.admit(index, block);
  }
  return block;
}

std::vector<Bytes> EdgeService::cached_blocks_ordered_locked() {
  std::vector<Bytes> blocks;
  for (std::size_t index : cache_.cached_indices()) {
    blocks.push_back(*cache_.get(index));
  }
  return blocks;
}

std::vector<Bytes> EdgeService::snapshot_blocks() {
  std::lock_guard lock(cache_mu_);
  return cached_blocks_ordered_locked();
}

void EdgeService::on_read(net::Reader& r, net::Writer& w) {
  const auto index = static_cast<std::size_t>(r.varint());
  {
    std::lock_guard lock(cache_mu_);
    if (auto cached = cache_.get(index)) {
      w.bytes(*cached);
      return;
    }
  }
  w.bytes(fetch_and_admit(index));
}

void EdgeService::on_write(net::Reader& r, net::Writer&) {
  const auto index = static_cast<std::size_t>(r.varint());
  Bytes data = r.bytes();
  {
    std::lock_guard lock(cache_mu_);
    if (cache_.contains(index)) {
      cache_.write(index, std::move(data));
      return;
    }
  }
  (void)fetch_and_admit(index);  // write-allocate
  std::lock_guard lock(cache_mu_);
  cache_.write(index, std::move(data));
}

void EdgeService::on_index_query(net::Reader&, net::Writer& w) {
  std::lock_guard lock(cache_mu_);
  write_index_list(w, cache_.cached_indices());
}

void EdgeService::on_share_blind(net::Reader& r, net::Writer&) {
  const std::uint64_t session = r.u64();
  bn::BigInt s_tilde = r.bigint();
  if (s_tilde.is_zero()) {
    throw ServiceError(Status::kInvalidArgument, "zero blinding");
  }
  switch (blindings_.try_emplace(session,
                                 BlindingSession{std::move(s_tilde)})) {
    case SessionTable<BlindingSession>::Insert::kExists:
      throw ServiceError(Status::kAlreadyExists,
                         "blinding already shared for session");
    case SessionTable<BlindingSession>::Insert::kFull:
      throw ServiceError(Status::kResourceExhausted,
                         "too many pending blindings");
    case SessionTable<BlindingSession>::Insert::kInserted:
      break;
  }
}

void EdgeService::on_challenge(net::Reader& r, net::Writer& w) {
  const std::uint64_t session = r.u64();
  const Challenge chal = read_challenge(r, pk_.n);
  r.expect_done();
  auto blinding = blindings_.extract(session);  // one-shot
  if (!blinding) {
    throw ServiceError(Status::kNotFound, "no blinding for session");
  }
  // Snapshot the cache, then compute the proof with no lock held.
  const std::vector<Bytes> blocks = snapshot_blocks();
  const Proof proof =
      make_proof(pk_, params_, blocks, chal, blinding->s_tilde);
  w.bigint(proof.p);
}

void EdgeService::on_batch_challenge(net::Reader& r, net::Writer&) {
  const std::uint64_t batch_id = r.u64();
  const bn::BigInt e_j = r.bigint();
  const bn::BigInt g_s = r.bigint();
  r.expect_done();
  if (tpa_ == nullptr) {
    throw ServiceError(Status::kFailedPrecondition,
                       "no TPA channel for batch");
  }
  const std::vector<Bytes> blocks = snapshot_blocks();
  const Proof proof = make_batch_proof(pk_, params_, blocks, e_j, g_s);
  // Submit to the TPA with no lock held; a rejection surfaces as this
  // call's error response.
  net::Writer submit;
  submit.u64(batch_id);
  submit.bigint(proof.p);
  const Bytes raw = tpa_->call(kTpaSubmitProof, submit.take());
  unwrap(raw);
}

void EdgeService::on_subset_proof(net::Reader& r, net::Writer& w) {
  const bn::BigInt e = r.bigint();
  const bn::BigInt g_s = r.bigint();
  const std::vector<std::size_t> subset = read_index_list(r);
  std::vector<Bytes> blocks;
  blocks.reserve(subset.size());
  {
    std::lock_guard lock(cache_mu_);
    for (std::size_t index : subset) {
      auto cached = cache_.get(index);
      if (!cached) {
        throw ServiceError(Status::kNotFound, "subset block not cached");
      }
      blocks.push_back(std::move(*cached));
    }
  }
  // Owner-driven challenge: the data owner verifies with its own s, so
  // no session blinding is involved (make_batch_proof has exactly the
  // unblinded shape needed).
  const Proof proof = make_batch_proof(pk_, params_, blocks, e, g_s);
  w.bigint(proof.p);
}

void EdgeService::on_flush(net::Reader&, net::Writer& w) {
  std::vector<std::pair<std::size_t, Bytes>> dirty;
  {
    std::lock_guard lock(cache_mu_);
    dirty = cache_.flush();
  }
  // Write-back leaves for the CSP with no lock held.
  CspClient(*csp_).write_back(dirty);
  w.varint(dirty.size());
}

void EdgeService::pre_download(const std::vector<std::size_t>& indices) {
  for (std::size_t index : indices) {
    bool have = false;
    {
      std::lock_guard lock(cache_mu_);
      have = cache_.contains(index);
    }
    if (!have) (void)fetch_and_admit(index);
  }
}

Bytes EdgeClient::read(std::size_t index) const {
  net::Writer w;
  w.varint(index);
  const net::PooledBytes raw = net::call_pooled(*channel_, kEdgeRead, std::move(w));
  net::Reader r = unwrap(raw);
  return r.bytes();
}

void EdgeClient::write(std::size_t index, BytesView data) const {
  net::Writer w;
  w.varint(index);
  w.bytes(data);
  const net::PooledBytes raw = net::call_pooled(*channel_, kEdgeWrite, std::move(w));
  unwrap(raw);
}

std::vector<std::size_t> EdgeClient::index_query() const {
  const net::PooledBytes raw = net::call_pooled(*channel_, kEdgeIndexQuery);
  net::Reader r = unwrap(raw);
  return read_index_list(r);
}

void EdgeClient::share_blinding(std::uint64_t session_id,
                                const bn::BigInt& s_tilde) const {
  net::Writer w;
  w.u64(session_id);
  w.bigint(s_tilde);
  const net::PooledBytes raw = net::call_pooled(*channel_, kEdgeShareBlind, std::move(w));
  unwrap(raw);
}

Proof EdgeClient::challenge(std::uint64_t session_id,
                            const Challenge& chal) const {
  net::Writer w;
  w.u64(session_id);
  write_challenge(w, chal);
  const net::PooledBytes raw = net::call_pooled(*channel_, kEdgeChallenge, std::move(w));
  net::Reader r = unwrap(raw);
  Proof proof;
  proof.p = r.bigint();
  return proof;
}

void EdgeClient::batch_challenge(std::uint64_t batch_id, const bn::BigInt& e_j,
                                 const bn::BigInt& g_s) const {
  net::Writer w;
  w.u64(batch_id);
  w.bigint(e_j);
  w.bigint(g_s);
  const net::PooledBytes raw = net::call_pooled(*channel_, kEdgeBatchChallenge, std::move(w));
  unwrap(raw);
}

Proof EdgeClient::subset_proof(const bn::BigInt& e, const bn::BigInt& g_s,
                               const std::vector<std::size_t>& subset) const {
  net::Writer w;
  w.bigint(e);
  w.bigint(g_s);
  write_index_list(w, subset);
  const net::PooledBytes raw = net::call_pooled(*channel_, kEdgeSubsetProof, std::move(w));
  net::Reader r = unwrap(raw);
  Proof proof;
  proof.p = r.bigint();
  return proof;
}

std::size_t EdgeClient::flush() const {
  const net::PooledBytes raw = net::call_pooled(*channel_, kEdgeFlush);
  net::Reader r = unwrap(raw);
  return static_cast<std::size_t>(r.varint());
}

}  // namespace ice::proto
