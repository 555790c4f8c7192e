// ICE-batch: one verification round covering J edges (paper Sec. V).
//
// Differences from ICE-basic:
//   * the TPA contributes a single secret s (one g_s for all edges) while
//     the USER draws the per-edge challenge keys e_j — the TPA never sees
//     them, so it cannot tell which tags fed which edge's proof;
//   * edge proofs carry no user blinding s~; instead the user folds the
//     coefficient aggregation into the repacked tags, exponentiating each
//     union tag by sum of that block's coefficients across the edges
//     holding it;
//   * the TPA only multiplies: R = prod_k T~_{U,k}, P~ = R^s, and accepts
//     iff prod_j P_j = P~. Overlapping pre-downloads therefore cost the TPA
//     nothing extra — the effect measured in Fig. 7/8.
#pragma once

#include <vector>

#include "bignum/bigint.h"
#include "bignum/random.h"
#include "common/bytes.h"
#include "ice/keys.h"
#include "ice/params.h"
#include "ice/protocol.h"

namespace ice::proto {

/// TPA side: one secret s and the shared g_s for the whole batch.
Challenge make_batch_base(const PublicKey& pk, bn::Rng64& rng,
                          ChallengeSecret& secret_out);

/// User side: J independent challenge keys e_1..e_J.
std::vector<bn::BigInt> draw_challenge_keys(const ProtocolParams& params,
                                            std::size_t edges,
                                            bn::Rng64& rng);

/// Edge side: P_j = (g_s)^{sum_k a_k^{(j)} m_{j,k}} mod N.
Proof make_batch_proof(const PublicKey& pk, const ProtocolParams& params,
                       const std::vector<Bytes>& blocks, const bn::BigInt& e_j,
                       const bn::BigInt& g_s);

/// Whole-batch fan-out: P_j for every edge in one call, the per-edge proofs
/// spread across the shared pool (params.parallelism chunks). Each proof is
/// a sequential squaring chain internally, so cross-edge fan-out — not
/// intra-modexp splitting — is what scales with cores. This is the
/// in-process model of an ICE-batch round (paper Sec. V; the fig6 bench);
/// over RPC, UserClient::audit_edges_batch challenges the J edges
/// concurrently and each edge proves for itself.
/// `edge_blocks[j]` pairs with `challenge_keys[j]`.
std::vector<Proof> make_batch_proofs(
    const PublicKey& pk, const ProtocolParams& params,
    const std::vector<std::vector<Bytes>>& edge_blocks,
    const std::vector<bn::BigInt>& challenge_keys, const bn::BigInt& g_s);

/// User side: the union U of the edges' pre-download sets, sorted.
std::vector<std::size_t> union_of_sets(
    const std::vector<std::vector<std::size_t>>& edge_sets);

/// User side: repacks the union tags with aggregated coefficients.
/// `union_indices` must be union_of_sets(edge_sets); `union_tags[i]` is the
/// tag of block union_indices[i]; `challenge_keys[j]` pairs with
/// edge_sets[j]. Throws ParamError on inconsistent inputs.
std::vector<bn::BigInt> batch_repack(
    const PublicKey& pk, const ProtocolParams& params,
    const std::vector<std::size_t>& union_indices,
    const std::vector<bn::BigInt>& union_tags,
    const std::vector<std::vector<std::size_t>>& edge_sets,
    const std::vector<bn::BigInt>& challenge_keys);

/// TPA side: R = prod T~, P~ = R^s, P = prod P_j; accept iff equal.
/// `parallelism` follows the ProtocolParams::parallelism convention
/// (0 = hardware concurrency, 1 = single-threaded legacy path).
bool verify_batch(const PublicKey& pk,
                  const std::vector<bn::BigInt>& repacked_tags,
                  const std::vector<Proof>& proofs,
                  const ChallengeSecret& secret,
                  std::size_t parallelism = 0);

}  // namespace ice::proto
