// ICE-basic protocol primitives (paper Sec. III-A).
//
// These are pure, transport-free functions; the entity actors in
// ice/entities.h wire them to RPC. Roles:
//
//   TPA   — make_challenge, verify_proof
//   Edge  — make_proof
//   User  — repack_tags (+ TagGenerator::updated_tag for dirty blocks)
//
// Verification identity (Lemma 1):
//   P  = (g^s)^{s~ * sum_k a_k m_k}
//   P~ = (prod_k (T_k^{s~})^{a_k})^s   with T_k = g^{m_k}
// so an edge holding the exact blocks passes, and (Thm. 6, under KEA1-r +
// factoring) nothing else does.
//
// Power ladder (DESIGN.md §8): the challenge also carries the rungs
// h_i = (g^s)^{2^{i L}}, i < t, so the edge evaluates P as
// prod_i h_i^{E_i} over the L-bit digits E_i of its exponent X — a
// squaring chain of ~X/t instead of X. Each rung is a public function of
// g^s, and P is the same group element for every t.
#pragma once

#include <memory>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/fixed_base.h"
#include "bignum/montgomery.h"
#include "bignum/random.h"
#include "common/bytes.h"
#include "ice/keys.h"
#include "ice/params.h"

namespace ice::proto {

/// Most rungs a challenge carries (the wire decoder refuses more). From
/// bench_modexp's "power ladder" rows at the basic-proof exponent
/// (132 kbit, |N| = 1024; three runs): the single pow takes 40-44 ms,
/// t = 4 digits 15-20 ms, t = 8 9.6-12 ms and t = 16 9.1-11.5 ms. Past 8
/// the edge gains under 10% while the TPA's mint doubles (8 rungs
/// 0.72-1.37 ms) and every rung adds |N|/8 bytes to the challenge.
inline constexpr std::size_t kMaxLadder = 8;
/// Shortest digit worth a rung. From the same rows: a rung costs the TPA
/// one |N|-bit comb exponentiation (8 rungs 0.72-1.37 ms against
/// 0.09-0.17 ms for g^s alone, ~0.1-0.15 ms a rung, the time of ~400-550
/// 1024-bit squarings at 262 ns) plus a window table at the edge. Going
/// from t to t + 1 digits of L bits saves ~L / t squarings, which at
/// L = 4096 and t = 7 (~585) is about what the rung costs.
inline constexpr std::size_t kMinDigitBits = 4096;

/// Rung count t and digit width L of a parameter set's ladder.
struct LadderShape {
  std::size_t rungs = 1;       // t
  std::size_t digit_bits = 1;  // L
};

/// t = clamp(ceil(X_max / kMinDigitBits), 1, kMaxLadder) and
/// L = ceil(X_max / t), where X_max = 8 block_bytes + coeff_bits + |N|
/// + 16 is the longest proof exponent: a block times a coefficient,
/// summed over up to 2^16 blocks, times the |N|-bit blinding. A longer
/// exponent only spills into the top digit.
[[nodiscard]] LadderShape ladder_shape(const ProtocolParams& params);

/// What the TPA sends to the edge: chal = (e, g_s) plus the ladder.
struct Challenge {
  bn::BigInt e;    // challenge key seeding the coefficient PRF
  bn::BigInt g_s;  // g^s mod N: the rung h_0
  /// Rungs h_1..h_{t-1}, h_i = g_s^{2^{i * digit_bits}} mod N. Empty for
  /// t = 1 and for the ICE-batch base, which stays on g_s alone.
  std::vector<bn::BigInt> ladder;
  std::size_t digit_bits = 0;  // L

  [[nodiscard]] std::size_t rungs() const { return 1 + ladder.size(); }
};

/// Per-key TPA state behind ladder challenges: the fixed bases
/// G_i = g^{2^{i L}} (one (t-1)L-squaring chain, once per key), each with
/// a Lim-Lee comb sized for |N|-bit secrets, so the rungs
/// h_i = G_i^s = (g^s)^{2^{i L}} cost t comb exponentiations per
/// challenge. The comb of G_0 = g is the context's cached
/// fixed_base(g, |N|), shared with the batch, localisation and cloud
/// sampling paths; the ladder owns the combs of G_1..G_{t-1}. The TPA
/// builds one in set_key and keeps it as long as the key. Immutable and
/// thread-safe after construction.
class ChallengeLadder {
 public:
  /// The ladder of ladder_shape(params).
  ChallengeLadder(const PublicKey& pk, const ProtocolParams& params);
  ChallengeLadder(const PublicKey& pk, LadderShape shape);

  [[nodiscard]] const PublicKey& key() const { return pk_; }

  /// Sets chal.g_s = g^s, chal.ladder = (G_i^s)_{0<i<t} and
  /// chal.digit_bits = L. Leaves chal.e alone.
  void mint(const bn::BigInt& s, Challenge& chal) const;

 private:
  PublicKey pk_;
  LadderShape shape_;
  std::shared_ptr<const bn::Montgomery> mont_;  // outlives combs_
  std::vector<std::shared_ptr<const bn::FixedBase>> combs_;  // G_i, i < t
};

/// TPA-private state behind a challenge (s never leaves the TPA).
struct ChallengeSecret {
  bn::BigInt s;
};

/// Edge's response.
struct Proof {
  bn::BigInt p;
};

/// TPA side: draws e in [1, 2^kappa) and s in Z_N^* (kappa =
/// params.challenge_key_bits), returns chal with the rungs `ladder` mints
/// for s under ladder.key(), and the secret s.
Challenge make_challenge(const ChallengeLadder& ladder,
                         const ProtocolParams& params, bn::Rng64& rng,
                         ChallengeSecret& secret_out);

/// Edge side: expands e into coefficients a_1..a_{|blocks|} of d bits and
/// computes P = (g_s)^{s_tilde * sum a_k m_k} mod N. `s_tilde` is the
/// user-chosen blinding the edge received over the fast local link. With a
/// ladder, X = s_tilde * sum a_k m_k is split into challenge.rungs()
/// digits of challenge.digit_bits bits (the top digit takes whatever is
/// left) and P = prod_i h_i^{E_i}: the same value for any t and L that
/// the rungs match. ParamError if a ladder comes with digit_bits = 0.
Proof make_proof(const PublicKey& pk, const ProtocolParams& params,
                 const std::vector<Bytes>& blocks, const Challenge& challenge,
                 const bn::BigInt& s_tilde);

/// User side: T~_k = T_k^{s_tilde} mod N for each retrieved tag.
/// `parallelism` follows the ProtocolParams::parallelism convention
/// (0 = hardware concurrency, 1 = single-threaded legacy path).
std::vector<bn::BigInt> repack_tags(const PublicKey& pk,
                                    const std::vector<bn::BigInt>& tags,
                                    const bn::BigInt& s_tilde,
                                    std::size_t parallelism = 0);

/// In-place repack_tags: resizes `out` to tags.size() and overwrites each
/// slot via Montgomery::pow_into. A warm `out` (same size, limbs within
/// their SBO/heap capacity) makes the steady-state call allocation-free.
void repack_tags_into(const PublicKey& pk, const std::vector<bn::BigInt>& tags,
                      const bn::BigInt& s_tilde, std::size_t parallelism,
                      std::vector<bn::BigInt>& out);

/// TPA side: recomputes the coefficients from e, aggregates the repacked
/// tags, raises to s, and compares with the edge's proof.
/// Returns true iff the audit passes (a normal outcome, not an error).
bool verify_proof(const PublicKey& pk, const ProtocolParams& params,
                  const std::vector<bn::BigInt>& repacked_tags,
                  const Challenge& challenge, const ChallengeSecret& secret,
                  const Proof& proof);

/// verify_proof with the coefficient expansion already done offline:
/// `coeffs` must be the first repacked_tags.size() entries of
/// CoefficientPrf::expand(challenge.e, params.coeff_bits, ...) — the
/// stream is sequential, so any longer offline expansion's prefix is the
/// exact cold-path vector. Bit-identical to verify_proof (the cold path
/// stays the pinned reference; tests/ice/offline_test.cpp holds the two
/// equal); throws ParamError on a size mismatch.
bool verify_proof_precomputed(const PublicKey& pk,
                              const ProtocolParams& params,
                              const std::vector<bn::BigInt>& repacked_tags,
                              const std::vector<bn::BigInt>& coeffs,
                              const ChallengeSecret& secret,
                              const Proof& proof);

/// Draws the user's blinding s_tilde uniformly from Z_N^* \ {1}.
bn::BigInt draw_blinding(const PublicKey& pk, bn::Rng64& rng);

/// Validates a just-deserialized proof value: an honest proof is an element
/// of Z_N^*, so anything outside [1, N) or sharing a factor with N is
/// rejected up front with a clear error instead of flowing into the
/// verification arithmetic. Throws ProtocolError on violation.
void validate_proof(const PublicKey& pk, const Proof& proof);

}  // namespace ice::proto
