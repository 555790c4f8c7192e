#include "pir_reference.h"

#include <algorithm>

#include "common/error.h"

namespace ice::pir::reference {

namespace {

using gf::GF4;
using gf::GF4Vector;

// The monomial q_a q_b q_c of one triple and its three partial derivatives
// (each the product of the other two coordinates), aligned with a < b < c.
struct MonomialEval {
  GF4 mono;
  GF4 deriv[3];
};

MonomialEval eval_monomial(const GF4Vector& q, const Embedding::Triple& t) {
  const GF4 qa = q[t[0]], qb = q[t[1]], qc = q[t[2]];
  MonomialEval e;
  e.deriv[0] = qb * qc;
  e.deriv[1] = qa * qc;
  e.deriv[2] = qa * qb;
  e.mono = qa * e.deriv[0];
  return e;
}

PirSingleResponse zeroed_response(std::size_t k, const Embedding& emb,
                                  const GF4Vector& q) {
  if (q.size() != emb.gamma()) {
    throw ParamError("reference PIR: query point has wrong dimension");
  }
  PirSingleResponse out;
  out.values.assign(k, GF4::zero());
  out.gradients.assign(emb.gamma(), GF4Vector(k));
  return out;
}

// Writes bitplane pi's value and gradient into the coordinate-major
// response.
void scatter_plane(PirSingleResponse& out, std::size_t pi, GF4 value,
                   const GF4Vector& grad) {
  out.values[pi] = value;
  for (std::size_t j = 0; j < grad.size(); ++j) out.gradients[j][pi] = grad[j];
}

}  // namespace

PirSingleResponse naive_respond_one(const TagDatabase& db,
                                    const Embedding& emb,
                                    const GF4Vector& q) {
  PirSingleResponse out = zeroed_response(db.tag_bits(), emb, q);
  GF4Vector grad(emb.gamma());
  for (std::size_t pi = 0; pi < db.tag_bits(); ++pi) {
    GF4 value;
    std::fill(grad.begin(), grad.end(), GF4::zero());
    for (std::size_t i = 0; i < db.size(); ++i) {
      const GF4 coeff(db.bit(i, pi) ? std::uint8_t{1} : std::uint8_t{0});
      const Embedding::Triple t = emb.triple(i);
      const MonomialEval e = eval_monomial(q, t);
      value += coeff * e.mono;
      for (std::size_t d = 0; d < 3; ++d) grad[t[d]] += coeff * e.deriv[d];
    }
    scatter_plane(out, pi, value, grad);
  }
  return out;
}

PirResponse naive_respond(const TagDatabase& db, const Embedding& emb,
                          const PirQuery& query) {
  PirResponse out;
  for (const GF4Vector& q : query.points) {
    out.entries.push_back(naive_respond_one(db, emb, q));
  }
  return out;
}

ShardedPirResponse naive_respond_sharded(const ShardMap& map,
                                         std::span<const bn::BigInt> tags,
                                         std::size_t tag_bits,
                                         const ShardedPirQuery& query) {
  ShardedPirResponse out;
  for (const ShardQuery& sq : query.shards) {
    const ShardRange r = map.range(sq.shard);
    TagDatabase db(tag_bits);
    for (const bn::BigInt& t : tags.subspan(r.begin, r.size())) db.add(t);
    const Embedding emb(r.size());
    out.shards.push_back({sq.shard, naive_respond(db, emb, sq.query)});
  }
  return out;
}

PlaneLists build_plane_lists(const TagDatabase& db) {
  PlaneLists lists(db.tag_bits());
  for (std::size_t i = 0; i < db.size(); ++i) {
    const std::uint64_t* row = db.row(i);
    for (std::size_t w = 0; w < db.words_per_tag(); ++w) {
      for (std::uint64_t word = row[w]; word != 0; word &= word - 1) {
        const std::size_t pi =
            w * 64 + static_cast<std::size_t>(__builtin_ctzll(word));
        lists[pi].push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  return lists;
}

PirSingleResponse matrix_respond_one(const PlaneLists& lists,
                                     const Embedding& emb,
                                     const GF4Vector& q) {
  PirSingleResponse out = zeroed_response(lists.size(), emb, q);
  const std::span<const Embedding::Triple> triples = emb.triples();
  // Monomial values and partials once per point, not once per bitplane.
  std::vector<MonomialEval> evals(triples.size());
  for (std::size_t i = 0; i < triples.size(); ++i) {
    evals[i] = eval_monomial(q, triples[i]);
  }
  GF4Vector grad(emb.gamma());
  for (std::size_t pi = 0; pi < lists.size(); ++pi) {
    GF4 value;
    std::fill(grad.begin(), grad.end(), GF4::zero());
    for (const std::uint32_t i : lists[pi]) {  // nonzero coefficients only
      const MonomialEval& e = evals[i];
      const Embedding::Triple& t = triples[i];
      value += e.mono;
      for (std::size_t d = 0; d < 3; ++d) grad[t[d]] += e.deriv[d];
    }
    scatter_plane(out, pi, value, grad);
  }
  return out;
}

PirResponse matrix_respond(const PlaneLists& lists, const Embedding& emb,
                           const PirQuery& query) {
  PirResponse out;
  for (const GF4Vector& q : query.points) {
    out.entries.push_back(matrix_respond_one(lists, emb, q));
  }
  return out;
}

}  // namespace ice::pir::reference
