#include "ice/protocol.h"

#include <algorithm>

#include "bignum/multiexp.h"
#include "common/error.h"
#include "common/parallel.h"
#include "crypto/prf.h"

namespace ice::proto {

LadderShape ladder_shape(const ProtocolParams& params) {
  constexpr std::size_t kSlackBits = 16;  // sums of up to 2^16 products
  const std::size_t x_max = 8 * params.block_bytes + params.coeff_bits +
                            params.modulus_bits + kSlackBits;
  LadderShape shape;
  shape.rungs = std::clamp<std::size_t>(
      (x_max + kMinDigitBits - 1) / kMinDigitBits, 1, kMaxLadder);
  shape.digit_bits = (x_max + shape.rungs - 1) / shape.rungs;
  return shape;
}

ChallengeLadder::ChallengeLadder(const PublicKey& pk,
                                 const ProtocolParams& params)
    : ChallengeLadder(pk, ladder_shape(params)) {}

ChallengeLadder::ChallengeLadder(const PublicKey& pk, LadderShape shape)
    : pk_(pk), shape_(shape), mont_(bn::Montgomery::shared(pk.n)) {
  if (shape_.rungs == 0 || shape_.digit_bits == 0) {
    throw ParamError("ChallengeLadder: empty shape");
  }
  // G_0 = g, G_i = G_{i-1}^{2^L}: one squaring chain, paid once per key.
  const std::size_t secret_bits = pk.n.bit_length();
  combs_.reserve(shape_.rungs);
  combs_.push_back(mont_->fixed_base(pk.g, secret_bits));
  bn::Montgomery::LimbVec g = mont_->to_mont(pk.g);
  bn::Montgomery::LimbVec scratch(mont_->scratch_limbs());
  for (std::size_t i = 1; i < shape_.rungs; ++i) {
    for (std::size_t b = 0; b < shape_.digit_bits; ++b) {
      mont_->sqr_into(g.data(), g.data(), scratch.data());
    }
    combs_.push_back(std::make_shared<const bn::FixedBase>(
        *mont_, mont_->from_mont(g), secret_bits));
  }
}

void ChallengeLadder::mint(const bn::BigInt& s, Challenge& chal) const {
  chal.digit_bits = shape_.digit_bits;
  chal.ladder.resize(shape_.rungs - 1);
  combs_[0]->pow_into(chal.g_s, s);
  for (std::size_t i = 1; i < shape_.rungs; ++i) {
    combs_[i]->pow_into(chal.ladder[i - 1], s);
  }
}

Challenge make_challenge(const ChallengeLadder& ladder,
                         const ProtocolParams& params, bn::Rng64& rng,
                         ChallengeSecret& secret_out) {
  Challenge chal;
  // e in [1, 2^kappa - 1]: nonzero so the PRF key is never degenerate.
  do {
    chal.e = bn::random_below(rng, bn::BigInt(1)
                                       << params.challenge_key_bits);
  } while (chal.e.is_zero());
  secret_out.s = bn::random_unit(rng, ladder.key().n);
  // Every rung is one comb exponentiation of a per-key fixed base; the
  // ladder's t - 1 extra rungs are what shorten the edge's chain.
  ladder.mint(secret_out.s, chal);
  return chal;
}

namespace {

// Bits [lo, lo + width) of the non-negative x (fewer if x is shorter).
bn::BigInt bit_slice(const bn::BigInt& x, std::size_t lo, std::size_t width) {
  const std::size_t nbits = x.bit_length();
  if (lo >= nbits) return bn::BigInt(0);
  width = std::min(width, nbits - lo);
  const bn::BigInt::Limb* in = x.limbs().data();
  const std::size_t in_limbs = x.limbs().size();
  std::vector<bn::BigInt::Limb> out((width + 63) / 64);
  for (std::size_t j = 0; j < out.size(); ++j) {
    const std::size_t bit = lo + 64 * j;
    const std::size_t word = bit / 64;
    const unsigned shift = bit % 64;
    bn::BigInt::Limb v = in[word] >> shift;
    if (shift != 0 && word + 1 < in_limbs) v |= in[word + 1] << (64 - shift);
    out[j] = v;
  }
  if (width % 64 != 0) out.back() &= (bn::BigInt::Limb{1} << (width % 64)) - 1;
  return bn::BigInt::from_limbs(out);
}

// x = sum_i digits[i] 2^{i L} with digits[i] < 2^L for i < t - 1; the top
// digit takes the rest of x, so a short L costs speed, never correctness.
std::vector<bn::BigInt> split_digits(const bn::BigInt& x, std::size_t t,
                                     std::size_t digit_bits) {
  std::vector<bn::BigInt> digits(t);
  const std::size_t nbits = x.bit_length();
  for (std::size_t i = 0; i < t; ++i) {
    // lo = i L, computed only while it stays below nbits (no overflow).
    if (i > 0 && digit_bits > (nbits == 0 ? 0 : (nbits - 1) / i)) break;
    const std::size_t lo = i * digit_bits;
    digits[i] = bit_slice(x, lo, i + 1 == t ? nbits - lo : digit_bits);
  }
  return digits;
}

}  // namespace

Proof make_proof(const PublicKey& pk, const ProtocolParams& params,
                 const std::vector<Bytes>& blocks, const Challenge& challenge,
                 const bn::BigInt& s_tilde) {
  if (blocks.empty()) throw ParamError("make_proof: no blocks to prove");
  if (s_tilde.is_zero()) throw ParamError("make_proof: zero blinding");
  if (!challenge.ladder.empty() && challenge.digit_bits == 0) {
    throw ParamError("make_proof: ladder without a digit width");
  }
  // Aggregate over the integers: sum_k a_k * m_k, then one exponentiation.
  // The cost profile the paper reports in Fig. 6 (flat in |S_j|, linear in
  // block size) comes exactly from this shape.
  //
  // The coefficient stream is sequential, so it is expanded up front; the
  // a_k * m_k products are then chunked across the shared pool and the
  // partial sums added in chunk order. Integer addition is exact, so the
  // aggregate is bit-identical at every thread count.
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
  const bn::BigInt exponent = aggregate * s_tilde;
  // A pow on g_s alone is a squaring chain as long as the exponent. The
  // ladder's rungs h_i = g_s^{2^{iL}} let the edge write the exponent in
  // t digits E_i of L bits and share ONE chain of ~L squarings across
  // prod_i h_i^{E_i} (Straus, multiexp.h). The rungs are challenge-fresh,
  // so no comb; the cached context still saves the R^2 / n0inv derivation.
  //
  // The multi-exponentiation runs on one thread: chunking the rungs over
  // the pool gives every chunk its own L-squaring chain, and on
  // basic-proof, where two proofs share four cores, the single chain
  // measured the lower audit p50 and p90 (EXPERIMENTS.md, power ladder).
  const auto mont = bn::Montgomery::shared(pk.n);
  Proof proof;
  if (challenge.ladder.empty()) {
    proof.p = mont->pow(challenge.g_s, exponent);
    return proof;
  }
  std::vector<bn::BigInt> rungs;
  rungs.reserve(challenge.rungs());
  rungs.push_back(challenge.g_s);
  rungs.insert(rungs.end(), challenge.ladder.begin(), challenge.ladder.end());
  proof.p = bn::multi_exp(
      *mont, rungs,
      split_digits(exponent, rungs.size(), challenge.digit_bits), 1);
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
