#include "ice/protocol.h"

#include "bignum/fixed_base.h"
#include "bignum/montgomery.h"
#include "bignum/multiexp.h"
#include "common/error.h"
#include "common/parallel.h"
#include "crypto/prf.h"

namespace ice::proto {

Challenge make_challenge(const PublicKey& pk, const ProtocolParams& params,
                         bn::Rng64& rng, ChallengeSecret& secret_out) {
  Challenge chal;
  // e in [1, 2^kappa - 1]: nonzero so the PRF key is never degenerate.
  do {
    chal.e = bn::random_below(rng, bn::BigInt(1)
                                       << params.challenge_key_bits);
  } while (chal.e.is_zero());
  secret_out.s = bn::random_unit(rng, pk.n);
  // g is the long-lived base of every challenge: the shared context's
  // Lim-Lee comb turns g^s into a chain |N|/h the length of a generic pow.
  const auto mont = bn::Montgomery::shared(pk.n);
  chal.g_s = mont->fixed_base(pk.g, pk.n.bit_length())->pow(secret_out.s);
  return chal;
}

Proof make_proof(const PublicKey& pk, const ProtocolParams& params,
                 const std::vector<Bytes>& blocks, const Challenge& challenge,
                 const bn::BigInt& s_tilde) {
  if (blocks.empty()) throw ParamError("make_proof: no blocks to prove");
  if (s_tilde.is_zero()) throw ParamError("make_proof: zero blinding");
  // Aggregate over the integers: sum_k a_k * m_k, then one modexp. The cost
  // profile the paper reports in Fig. 6 (flat in |S_j|, linear in block
  // size) comes exactly from this shape.
  //
  // The coefficient stream is sequential, so it is expanded up front; the
  // a_k * m_k products are then chunked across the shared pool and the
  // partial sums added in chunk order. Integer addition is exact, so the
  // aggregate is bit-identical at every thread count. The final modexp
  // stays single: its cost is a sequential squaring chain as long as the
  // aggregate (splitting the exponent cannot shorten that chain), so
  // cross-proof fan-out — not intra-modexp splitting — is where edge-side
  // wall-clock scaling comes from: an ICE-batch round challenges its J
  // edges concurrently (UserClient::audit_edges_batch).
  const std::vector<bn::BigInt> coeffs = crypto::CoefficientPrf::expand(
      challenge.e, params.coeff_bits, blocks.size());
  std::vector<bn::BigInt> partials(
      chunk_count(blocks.size(), resolve_parallelism(params.parallelism)));
  parallel_chunks(blocks.size(), params.parallelism,
                  [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                    bn::BigInt sum(0);
                    for (std::size_t k = begin; k < end; ++k) {
                      sum += coeffs[k] * bn::BigInt::from_bytes_be(blocks[k]);
                    }
                    partials[chunk] = std::move(sum);
                  });
  bn::BigInt aggregate(0);
  for (const auto& partial : partials) aggregate += partial;
  Proof proof;
  // g_s is challenge-fresh, so no comb: one generic pow on the cached
  // context (which still saves the per-call R^2 / n0inv derivation).
  proof.p = bn::Montgomery::shared(pk.n)->pow(challenge.g_s,
                                              aggregate * s_tilde);
  return proof;
}

std::vector<bn::BigInt> repack_tags(const PublicKey& pk,
                                    const std::vector<bn::BigInt>& tags,
                                    const bn::BigInt& s_tilde,
                                    std::size_t parallelism) {
  std::vector<bn::BigInt> out;
  repack_tags_into(pk, tags, s_tilde, parallelism, out);
  return out;
}

void repack_tags_into(const PublicKey& pk, const std::vector<bn::BigInt>& tags,
                      const bn::BigInt& s_tilde, std::size_t parallelism,
                      std::vector<bn::BigInt>& out) {
  const auto mont = bn::Montgomery::shared(pk.n);
  out.resize(tags.size());
  // Independent modexps into disjoint slots; the Montgomery context (and
  // its precomputed R^2, -N^{-1}) is shared read-only across chunks, and
  // pow_into reuses each slot's limb storage plus arena scratch.
  parallel_chunks(tags.size(), parallelism,
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t k = begin; k < end; ++k) {
                      mont->pow_into(out[k], tags[k], s_tilde);
                    }
                  });
}

namespace {

/// Shared tail of the two verify paths: R = prod_k T~_k^{a_k}, expected =
/// R^s, compare with the (canonically reduced) claimed proof.
bool verify_with_coeffs(const PublicKey& pk, const ProtocolParams& params,
                        const std::vector<bn::BigInt>& repacked_tags,
                        const std::vector<bn::BigInt>& coeffs,
                        const ChallengeSecret& secret, const Proof& proof) {
  const auto mont = bn::Montgomery::shared(pk.n);
  // R = prod_k T~_k^{a_k} mod N: one simultaneous multi-exponentiation
  // sharing a single squaring chain across all |S_j| tags (multiexp.h),
  // chunked over the pool with partials combined in chunk order — the
  // canonical result is bit-identical to per-tag pow at every thread count.
  const bn::BigInt r =
      bn::multi_exp(*mont, repacked_tags, coeffs, params.parallelism);
  bn::BigInt expected;
  mont->pow_into(expected, r, secret.s);
  // One canonical reduction of the claimed proof (a no-op for wire-valid
  // proofs, which deserialization already range-checks).
  return expected == mont->reduce(proof.p);
}

}  // namespace

bool verify_proof(const PublicKey& pk, const ProtocolParams& params,
                  const std::vector<bn::BigInt>& repacked_tags,
                  const Challenge& challenge, const ChallengeSecret& secret,
                  const Proof& proof) {
  if (repacked_tags.empty()) {
    throw ParamError("verify_proof: no tags to verify against");
  }
  // Coefficients land in a warm thread-local vector (expand_into reuses
  // vector and limb capacity), the aggregate and the expected value live in
  // SBO limb storage: the steady-state verify allocates nothing.
  static thread_local std::vector<bn::BigInt> coeffs;
  crypto::CoefficientPrf::expand_into(challenge.e, params.coeff_bits,
                                      repacked_tags.size(), coeffs);
  return verify_with_coeffs(pk, params, repacked_tags, coeffs, secret, proof);
}

bool verify_proof_precomputed(const PublicKey& pk,
                              const ProtocolParams& params,
                              const std::vector<bn::BigInt>& repacked_tags,
                              const std::vector<bn::BigInt>& coeffs,
                              const ChallengeSecret& secret,
                              const Proof& proof) {
  if (repacked_tags.empty()) {
    throw ParamError("verify_proof: no tags to verify against");
  }
  if (coeffs.size() != repacked_tags.size()) {
    throw ParamError("verify_proof_precomputed: coefficient count mismatch");
  }
  return verify_with_coeffs(pk, params, repacked_tags, coeffs, secret, proof);
}

bn::BigInt draw_blinding(const PublicKey& pk, bn::Rng64& rng) {
  for (;;) {
    bn::BigInt s = bn::random_unit(rng, pk.n);
    if (s != bn::BigInt(1)) return s;
  }
}

void validate_proof(const PublicKey& pk, const Proof& proof) {
  if (proof.p.sign() <= 0 || proof.p >= pk.n) {
    throw ProtocolError("proof value out of range [1, N)");
  }
  if (bn::gcd(proof.p, pk.n) != bn::BigInt(1)) {
    throw ProtocolError("proof value is not a unit mod N");
  }
}

}  // namespace ice::proto
