#include "ice/wire.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/error.h"

namespace ice::proto {

namespace {

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) *p++ = static_cast<std::uint8_t>(v) | 0x80;
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Encoded size of write_gf4_vector over `count` elements: the element
/// count, then the packed bytes as a length-prefixed string.
std::size_t gf4_vector_size(std::size_t count) {
  const std::size_t packed = (count + 3) / 4;
  return varint_size(count) + varint_size(packed) + packed;
}

/// Encoded size of one response entry: values, gradient length, then the
/// `gradients` x `inner` gradient matrix flattened into one vector.
std::size_t entry_size(std::size_t values, std::size_t gradients,
                       std::size_t inner) {
  return gf4_vector_size(values) + varint_size(inner) +
         gf4_vector_size(gradients * inner);
}

/// Writes the concatenation of `parts` (`count` elements in all) exactly as
/// write_gf4_vector writes it flattened; returns the end of the encoding.
std::uint8_t* put_gf4_parts(std::uint8_t* p,
                            std::span<const gf::GF4Vector> parts,
                            std::size_t count) {
  const std::size_t packed = (count + 3) / 4;
  p = put_varint(p, count);
  p = put_varint(p, packed);
  std::memset(p, 0, packed);
  std::size_t i = 0;
  for (const gf::GF4Vector& part : parts) {
    for (const gf::GF4 e : part) {
      p[i / 4] |= static_cast<std::uint8_t>(e.value() << (2 * (i % 4)));
      ++i;
    }
  }
  return p + packed;
}

/// Gradient vector length of `e`, after checking they all share it.
std::size_t gradient_length(const pir::PirSingleResponse& e) {
  const std::size_t inner =
      e.gradients.empty() ? 0 : e.gradients.front().size();
  for (const auto& g : e.gradients) {
    if (g.size() != inner) {
      throw CodecError("write_pir_response: ragged gradients");
    }
  }
  return inner;
}

std::size_t pir_response_size(const pir::PirResponse& resp) {
  std::size_t size = varint_size(resp.entries.size());
  for (const auto& e : resp.entries) {
    size += entry_size(e.values.size(), e.gradients.size(),
                       gradient_length(e));
  }
  return size;
}

/// Encodes `resp` into exactly pir_response_size(resp) bytes at `p`.
void put_pir_response(std::uint8_t* p, const pir::PirResponse& resp) {
  p = put_varint(p, resp.entries.size());
  for (const auto& e : resp.entries) {
    p = put_gf4_parts(p, std::span(&e.values, 1), e.values.size());
    // Gradients are gamma coordinate vectors of uniform length K; they go
    // out flattened into one packed GF(4) string to avoid per-vector
    // length overhead (this is the dominant share of the TPA->User bytes
    // in Tab. I).
    const std::size_t inner =
        e.gradients.empty() ? 0 : e.gradients.front().size();
    p = put_varint(p, inner);
    p = put_gf4_parts(p, e.gradients, e.gradients.size() * inner);
  }
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) p[b] = static_cast<std::uint8_t>(v >> (8 * b));
}

}  // namespace

void write_gf4_vector(net::Writer& w, const gf::GF4Vector& v) {
  // The packed scratch is thread-local: steady-state response encoding
  // reuses one byte buffer instead of allocating per vector.
  static thread_local Bytes packed;
  pir::pack_gf4_into(v, packed);
  w.varint(v.size());
  w.bytes(packed);
}

gf::GF4Vector read_gf4_vector(net::Reader& r) {
  const std::uint64_t count = r.varint();
  if (count > (std::uint64_t{1} << 24)) {
    throw CodecError("read_gf4_vector: implausible length");
  }
  // Unpack straight from the frame view — no intermediate copy.
  return pir::unpack_gf4(r.bytes_view(), static_cast<std::size_t>(count));
}

void write_pir_query(net::Writer& w, const pir::PirQuery& q) {
  w.varint(q.points.size());
  for (const auto& p : q.points) write_gf4_vector(w, p);
}

pir::PirQuery read_pir_query(net::Reader& r) {
  const std::uint64_t count = r.varint();
  if (count > (std::uint64_t{1} << 20)) {
    throw CodecError("read_pir_query: implausible count");
  }
  pir::PirQuery q;
  q.points.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining())));
  for (std::uint64_t i = 0; i < count; ++i) {
    q.points.push_back(read_gf4_vector(r));
  }
  return q;
}

void write_pir_response(net::Writer& w, const pir::PirResponse& resp) {
  // Sized first (which also rejects ragged gradients), then encoded in
  // place: one frame reservation, no flattening scratch.
  const std::size_t size = pir_response_size(resp);
  put_pir_response(w.extend(size), resp);
}

pir::PirResponse read_pir_response(net::Reader& r) {
  const std::uint64_t count = r.varint();
  if (count > (std::uint64_t{1} << 20)) {
    throw CodecError("read_pir_response: implausible count");
  }
  pir::PirResponse resp;
  resp.entries.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining())));
  for (std::uint64_t i = 0; i < count; ++i) {
    pir::PirSingleResponse e;
    e.values = read_gf4_vector(r);
    const std::uint64_t inner = r.varint();
    if (inner > (std::uint64_t{1} << 16)) {
      throw CodecError("read_pir_response: implausible gradient length");
    }
    const gf::GF4Vector flat = read_gf4_vector(r);
    if (inner != 0 && flat.size() % inner != 0) {
      throw CodecError("read_pir_response: gradient size mismatch");
    }
    const std::size_t rows = inner == 0 ? 0 : flat.size() / inner;
    e.gradients.reserve(rows);
    for (std::size_t row = 0; row < rows; ++row) {
      e.gradients.emplace_back(
          flat.begin() + static_cast<std::ptrdiff_t>(row * inner),
          flat.begin() + static_cast<std::ptrdiff_t>((row + 1) * inner));
    }
    resp.entries.push_back(std::move(e));
  }
  return resp;
}

void write_shard_map(net::Writer& w, const pir::ShardMap& map) {
  w.u64(map.epoch());
  w.varint(map.num_shards());
  for (const pir::ShardRange& range : map.ranges()) {
    w.varint(range.size());
  }
}

pir::ShardMap read_shard_map(net::Reader& r) {
  const std::uint64_t epoch = r.u64();
  const std::uint64_t count = r.varint();
  if (count == 0 || count > (std::uint64_t{1} << 16)) {
    throw CodecError("read_shard_map: implausible shard count");
  }
  std::vector<std::size_t> sizes;
  sizes.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t size = r.varint();
    if (size > (std::uint64_t{1} << 40)) {
      throw CodecError("read_shard_map: implausible shard size");
    }
    sizes.push_back(static_cast<std::size_t>(size));
  }
  return pir::ShardMap::from_sizes(sizes, epoch);
}

void write_sharded_query(net::Writer& w, const pir::ShardedPirQuery& q) {
  w.u64(q.epoch);
  w.varint(q.shards.size());
  for (const pir::ShardQuery& s : q.shards) {
    w.u32(s.shard);
    write_pir_query(w, s.query);
  }
}

pir::ShardedPirQuery read_sharded_query(net::Reader& r) {
  pir::ShardedPirQuery q;
  q.epoch = r.u64();
  const std::uint64_t count = r.varint();
  if (count > (std::uint64_t{1} << 16)) {
    throw CodecError("read_sharded_query: implausible shard count");
  }
  q.shards.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining())));
  for (std::uint64_t i = 0; i < count; ++i) {
    pir::ShardQuery s;
    s.shard = r.u32();
    s.query = read_pir_query(r);
    q.shards.push_back(std::move(s));
  }
  return q;
}

void write_sharded_response(net::Writer& w,
                            const pir::ShardedPirResponse& resp) {
  w.varint(resp.shards.size());
  for (const pir::ShardResponse& s : resp.shards) {
    w.u32(s.shard);
    write_pir_response(w, s.response);
  }
}

void ShardedResponseWriter::begin(std::span<const std::size_t> gammas) {
  const std::vector<pir::ShardQuery>& shards = query_->shards;
  w_->varint(shards.size());
  // The engine answers a point with K values and gamma gradients of
  // K elements each, so the slice sizes are known before any evaluation.
  offsets_.assign(1, 0);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::size_t points = shards[i].query.points.size();
    const std::size_t inner = gammas[i] == 0 ? 0 : tag_bits_;
    offsets_.push_back(offsets_.back() + 4 + varint_size(points) +
                       points * entry_size(tag_bits_, gammas[i], inner));
  }
  frame_ = w_->extend(offsets_.back());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    put_u32(frame_ + offsets_[i], shards[i].shard);
  }
}

void ShardedResponseWriter::shard(std::size_t i,
                                  const pir::PirResponse& response) {
  const std::size_t slice = offsets_[i + 1] - offsets_[i] - 4;
  if (pir_response_size(response) != slice) {
    throw ProtocolError("ShardedResponseWriter: response shape differs");
  }
  put_pir_response(frame_ + offsets_[i] + 4, response);
}

pir::ShardedPirResponse read_sharded_response(net::Reader& r) {
  pir::ShardedPirResponse resp;
  const std::uint64_t count = r.varint();
  if (count > (std::uint64_t{1} << 16)) {
    throw CodecError("read_sharded_response: implausible shard count");
  }
  resp.shards.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining())));
  for (std::uint64_t i = 0; i < count; ++i) {
    pir::ShardResponse s;
    s.shard = r.u32();
    s.response = read_pir_response(r);
    resp.shards.push_back(std::move(s));
  }
  return resp;
}

void write_challenge(net::Writer& w, const Challenge& chal) {
  w.bigint(chal.e);
  w.varint(chal.rungs());
  w.varint(chal.digit_bits);
  w.bigint(chal.g_s);
  for (const bn::BigInt& h : chal.ladder) w.bigint(h);
}

Challenge read_challenge(net::Reader& r, const bn::BigInt& n) {
  Challenge chal;
  chal.e = r.bigint();
  const std::uint64_t rungs = r.varint();
  if (rungs == 0 || rungs > kMaxLadder) {
    throw CodecError("read_challenge: implausible rung count");
  }
  // i * L for i < kMaxLadder must fit a size_t.
  const std::uint64_t digit_bits = r.varint();
  if (digit_bits == 0 ||
      digit_bits > std::numeric_limits<std::size_t>::max() / kMaxLadder) {
    throw CodecError("read_challenge: implausible digit width");
  }
  chal.digit_bits = static_cast<std::size_t>(digit_bits);
  chal.ladder.resize(static_cast<std::size_t>(rungs) - 1);
  for (std::size_t i = 0; i < rungs; ++i) {
    bn::BigInt& h = i == 0 ? chal.g_s : chal.ladder[i - 1];
    h = r.bigint();
    if (h.sign() <= 0 || h >= n) {
      throw net::ServiceError(net::Status::kInvalidArgument,
                              "challenge rung out of range [1, N)");
    }
  }
  return chal;
}

void write_bigint_list(net::Writer& w, const std::vector<bn::BigInt>& v) {
  w.varint(v.size());
  for (const auto& x : v) w.bigint(x);
}

std::vector<bn::BigInt> read_bigint_list(net::Reader& r) {
  const std::uint64_t count = r.varint();
  if (count > (std::uint64_t{1} << 24)) {
    throw CodecError("read_bigint_list: implausible length");
  }
  std::vector<bn::BigInt> v;
  v.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining())));
  for (std::uint64_t i = 0; i < count; ++i) v.push_back(r.bigint());
  return v;
}

void write_index_list(net::Writer& w, const std::vector<std::size_t>& v) {
  w.varint(v.size());
  for (std::size_t x : v) w.varint(x);
}

std::vector<std::size_t> read_index_list(net::Reader& r) {
  const std::uint64_t count = r.varint();
  if (count > (std::uint64_t{1} << 24)) {
    throw CodecError("read_index_list: implausible length");
  }
  std::vector<std::size_t> v;
  v.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining())));
  for (std::uint64_t i = 0; i < count; ++i) {
    v.push_back(static_cast<std::size_t>(r.varint()));
  }
  return v;
}

}  // namespace ice::proto
