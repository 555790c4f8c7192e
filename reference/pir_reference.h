// Reference PIR evaluators (paper Alg. 1, "Auditor tau: tag response").
//
// Both answer one query point q with F_pi(q) and the gradient of F_pi at q
// for every bitplane pi, exactly as the production pir::PirServer does, but
// in the paper's two textbook forms and single-threaded:
//
//   naive  — Eq. 1 term by term: for every bitplane, every monomial is
//            recomputed from q and multiplied by its 0/1 coefficient. This
//            is the ground truth the fused bitsliced engine is pinned
//            against, and Fig. 2's "without the matrix representation".
//   matrix — the paper's matrix representation M_pi: per-bitplane lists of
//            the nonzero coefficients (built once, TPASetup), with the
//            monomial values computed once per query point and reused
//            across all K bitplanes. Fig. 2's "with matrix representation".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bignum/bigint.h"
#include "pir/embedding.h"
#include "pir/messages.h"
#include "pir/shard_map.h"
#include "pir/tag_database.h"

namespace ice::pir::reference {

/// The naive evaluator at one point. Throws ParamError when q does not
/// have the embedding's dimension.
[[nodiscard]] PirSingleResponse naive_respond_one(const TagDatabase& db,
                                                  const Embedding& emb,
                                                  const gf::GF4Vector& q);

/// naive_respond_one for every point of `query`, in order.
[[nodiscard]] PirResponse naive_respond(const TagDatabase& db,
                                        const Embedding& emb,
                                        const PirQuery& query);

/// The naive answer to a sharded query: every sub-query evaluated over its
/// shard's slice of `tags` as `map` lays them out (a fresh database and
/// embedding per shard, exactly what TPASetup builds for that range).
[[nodiscard]] ShardedPirResponse naive_respond_sharded(
    const ShardMap& map, std::span<const bn::BigInt> tags,
    std::size_t tag_bits, const ShardedPirQuery& query);

/// M_pi for every bitplane: lists[pi] holds, ascending, each index whose
/// tag has bit pi set.
using PlaneLists = std::vector<std::vector<std::uint32_t>>;
[[nodiscard]] PlaneLists build_plane_lists(const TagDatabase& db);

/// The matrix evaluator at one point over lists built from a database of
/// emb.n() tags (lists.size() is K).
[[nodiscard]] PirSingleResponse matrix_respond_one(const PlaneLists& lists,
                                                   const Embedding& emb,
                                                   const gf::GF4Vector& q);

/// matrix_respond_one for every point of `query`, in order.
[[nodiscard]] PirResponse matrix_respond(const PlaneLists& lists,
                                         const Embedding& emb,
                                         const PirQuery& query);

}  // namespace ice::pir::reference
