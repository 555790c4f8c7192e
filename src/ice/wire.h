// RPC method numbering and message codecs for the ICE entities.
//
// Responses carry the status envelope (net/dispatch.h): a u16 status code,
// then the reply on kOk or a reason string otherwise, so remote failures
// surface as typed RemoteError at the caller instead of killing the
// transport.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bignum/bigint.h"
#include "common/bytes.h"
#include "ice/protocol.h"
#include "net/dispatch.h"
#include "net/serde.h"
#include "pir/messages.h"
#include "pir/shard_map.h"
#include "pir/sharded_server.h"

namespace ice::proto {

enum Method : std::uint16_t {
  // CSP service
  kCspInfo = 100,       // () -> (n, block_size)
  kCspFetch = 101,      // (index) -> (block)
  kCspWriteBack = 102,  // ([index, block]...) -> ()
  kCspSetKey = 103,     // (N, g, coeff_bits, key_bits) -> ()
  kCspChallenge = 104,  // (e, g_s, [index]...) -> (proof); sampled PDP

  // Edge service
  kEdgeRead = 200,            // (index) -> (block); fetches from CSP on miss
  kEdgeWrite = 201,           // (index, block) -> (); dirty write
  kEdgeIndexQuery = 202,      // () -> sorted S_j   [paper IndexQuery]
  kEdgeShareBlind = 203,      // (session_id, s~) -> ()
  kEdgeChallenge = 204,       // (session_id, e, t, L, h_0..h_{t-1}) ->
                              // (proof); h_0 = g_s, h_i = g_s^{2^{iL}}
  kEdgeBatchChallenge = 205,  // (batch_id, e_j, g_s) -> (); proof goes to TPA
  kEdgeFlush = 206,           // () -> (blocks written back)
  kEdgeSubsetProof = 207,     // (e, g_s, [index]...) -> (proof); owner-driven
                              // subset challenge used by localization

  // TPA service
  kTpaSetKey = 300,         // (N, g, coeff_bits, key_bits, block_bytes)
                            // -> (); block_bytes sizes the ladder
  kTpaStoreTags = 301,      // ([tag]...) -> ()
  // 302 was the single-shard tag query; retired, do not reuse.
  kTpaStartAudit = 303,     // (edge_id, session_id) -> ()
  kTpaSubmitRepacked = 304, // (session_id, [tag]...) -> (verdict)
  kTpaBatchBegin = 305,     // (batch_id, num_edges) -> (g_s)
  kTpaSubmitProof = 306,    // (batch_id, proof) -> ()
  kTpaBatchFinish = 307,    // (batch_id, [tag]...) -> (verdict)
  kTpaUpdateTag = 308,      // (index, tag) -> (epoch); stages into
                            // the next epoch (data dynamics)
  kTpaShardMap = 309,       // () -> (epoch, [shard size]...)
  kTpaShardQuery = 310,     // ShardedPirQuery -> ShardedPirResponse;
                            // stale epoch -> kFailedPrecondition
  kTpaSplitShard = 311,     // (shard) -> (epoch); operator rebalance
  kTpaAppendTag = 312,      // (tag) -> (index, epoch); new outsourced block
  kTpaCloseEpoch = 313,     // (force u8) -> (closed u8, epoch, rows merged);
                            // merges staged updates (DESIGN.md §15)
};

// Client stubs unwrap responses with net::unwrap (net/dispatch.h), which
// throws net::RemoteError on an error envelope.
using net::unwrap;

/// GF(4) vector list codec shared by PIR queries/responses.
void write_gf4_vector(net::Writer& w, const gf::GF4Vector& v);
gf::GF4Vector read_gf4_vector(net::Reader& r);

void write_pir_query(net::Writer& w, const pir::PirQuery& q);
pir::PirQuery read_pir_query(net::Reader& r);
void write_pir_response(net::Writer& w, const pir::PirResponse& resp);
pir::PirResponse read_pir_response(net::Reader& r);

/// Shard map wire form: epoch + per-shard sizes (pir::ShardMap::from_sizes
/// reconstructs the range table on the client).
void write_shard_map(net::Writer& w, const pir::ShardMap& map);
pir::ShardMap read_shard_map(net::Reader& r);

void write_sharded_query(net::Writer& w, const pir::ShardedPirQuery& q);
pir::ShardedPirQuery read_sharded_query(net::Reader& r);
void write_sharded_response(net::Writer& w,
                            const pir::ShardedPirResponse& resp);
pir::ShardedPirResponse read_sharded_response(net::Reader& r);

/// Streams a sharded response onto the wire, byte-identical to
/// write_sharded_response: begin() sizes the whole frame from the response
/// shapes, and each shard() packs its response into its own slice of it,
/// from whichever thread evaluated that shard. No merged response object
/// exists, so a TPA holds one shard's unpacked response per thread rather
/// than the whole query's (four times the wire size).
class ShardedResponseWriter final : public pir::ShardResponseSink {
 public:
  /// `w` receives the encoding; `tag_bits` is the store's K.
  ShardedResponseWriter(net::Writer& w, const pir::ShardedPirQuery& query,
                        std::size_t tag_bits)
      : w_(&w), query_(&query), tag_bits_(tag_bits) {}

  void begin(std::span<const std::size_t> gammas) override;
  void shard(std::size_t i, const pir::PirResponse& response) override;

 private:
  net::Writer* w_;
  const pir::ShardedPirQuery* query_;
  std::size_t tag_bits_;
  std::uint8_t* frame_ = nullptr;      // start of the shard slices in w_
  std::vector<std::size_t> offsets_;   // slice i spans [offsets_[i], [i+1])
};

/// The kEdgeChallenge body after the session id: e, the rung count t, the
/// digit width L, then the rungs h_0 = g_s, h_1..h_{t-1}.
void write_challenge(net::Writer& w, const Challenge& chal);
/// Decodes write_challenge's form for the modulus `n`. Throws CodecError
/// (kMalformed) when t is 0 or above kMaxLadder, or when L is 0 or so
/// large that i * L could overflow for some rung i; throws ServiceError
/// kInvalidArgument when a rung lies outside [1, n).
Challenge read_challenge(net::Reader& r, const bn::BigInt& n);

void write_bigint_list(net::Writer& w, const std::vector<bn::BigInt>& v);
std::vector<bn::BigInt> read_bigint_list(net::Reader& r);

void write_index_list(net::Writer& w, const std::vector<std::size_t>& v);
std::vector<std::size_t> read_index_list(net::Reader& r);

}  // namespace ice::proto
