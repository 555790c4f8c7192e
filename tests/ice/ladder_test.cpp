// Power-ladder challenges (DESIGN.md §8): the edge's proof over t digits
// must be the very group element the single pow gives, whatever t, L, |S_j|
// and thread count; the TPA's comb-built rungs must be the repeated
// squares of g^s; and the wire forms carrying the ladder must refuse
// hostile shapes with typed errors.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <limits>

#include "bignum/montgomery.h"
#include "crypto/prf.h"
#include "ice/csp_service.h"
#include "ice/edge_service.h"
#include "ice/protocol.h"
#include "ice/tag.h"
#include "ice/tpa_service.h"
#include "ice/wire.h"
#include "mec/block_store.h"
#include "net/channel.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

/// The single-pow oracle: P = (g_s)^{s~ * sum_k a_k m_k}, one chain.
bn::BigInt oracle_proof(const PublicKey& pk, const ProtocolParams& params,
                        const std::vector<Bytes>& blocks,
                        const Challenge& chal, const bn::BigInt& s_tilde) {
  const auto coeffs = crypto::CoefficientPrf::expand(
      chal.e, params.coeff_bits, blocks.size());
  bn::BigInt aggregate(0);
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    aggregate += coeffs[k] * bn::BigInt::from_bytes_be(blocks[k]);
  }
  return bn::Montgomery(pk.n).pow(chal.g_s, aggregate * s_tilde);
}

/// Rungs by definition: h_i = g_s^{2^{i L}}, one squaring at a time.
std::vector<bn::BigInt> squared_rungs(const PublicKey& pk,
                                      const bn::BigInt& g_s, std::size_t t,
                                      std::size_t digit_bits) {
  const bn::Montgomery mont(pk.n);
  std::vector<bn::BigInt> rungs;
  bn::BigInt h = g_s;
  for (std::size_t i = 1; i < t; ++i) {
    for (std::size_t b = 0; b < digit_bits; ++b) h = mont.mul(h, h);
    rungs.push_back(h);
  }
  return rungs;
}

class LadderProofDiffTest : public ::testing::Test {
 protected:
  LadderProofDiffTest() : gen_(0x1add), rng_(gen_) {}

  /// A challenge under the ladder of the current params_.
  Challenge fresh_challenge(ChallengeSecret& secret) {
    return make_challenge(ChallengeLadder(keys_.pk, params_), params_, rng_,
                          secret);
  }

  KeyPair keys_ = ice::testing::test_keypair_256();
  ProtocolParams params_ = ice::testing::test_params(64);
  SplitMix64 gen_;
  bn::Rng64Adapter<SplitMix64> rng_;
};

TEST_F(LadderProofDiffTest, EveryShapeMatchesTheSinglePow) {
  // 64-byte blocks and a 256-bit blinding: X is ~840 bits. Each (t, L)
  // pair is either short (t L < X: the top digit takes the overflow) or
  // long (t L >> X: the top digits are zero).
  struct Shape {
    std::size_t t;
    std::size_t digit_bits;
  };
  const Shape shapes[] = {{1, 1},   {2, 300},  {2, 2000}, {3, 100},
                          {3, 900}, {8, 16},   {8, 110},  {8, 1000},
                          {13, 64}, {13, 200}, {13, 1}};
  const auto all_blocks = ice::testing::make_blocks(17, 64, 5);
  for (const Shape& shape : shapes) {
    ChallengeSecret secret;
    Challenge chal = fresh_challenge(secret);
    chal.digit_bits = shape.digit_bits;
    chal.ladder =
        squared_rungs(keys_.pk, chal.g_s, shape.t, shape.digit_bits);
    ASSERT_EQ(chal.rungs(), shape.t);
    const bn::BigInt s_tilde = draw_blinding(keys_.pk, rng_);
    for (std::size_t m : {1, 16, 17}) {
      const std::vector<Bytes> blocks(all_blocks.begin(),
                                      all_blocks.begin() + m);
      const bn::BigInt want =
          oracle_proof(keys_.pk, params_, blocks, chal, s_tilde);
      for (std::size_t threads : {1, 2, 0}) {
        ProtocolParams p = params_;
        p.parallelism = threads;
        EXPECT_EQ(make_proof(keys_.pk, p, blocks, chal, s_tilde).p, want)
            << "t=" << shape.t << " L=" << shape.digit_bits
            << " |S_j|=" << m << " threads=" << threads;
      }
    }
  }
}

TEST_F(LadderProofDiffTest, LadderWithoutDigitWidthIsRefused) {
  ChallengeSecret secret;
  Challenge chal = fresh_challenge(secret);
  chal.ladder = squared_rungs(keys_.pk, chal.g_s, 2, 8);
  chal.digit_bits = 0;
  const auto blocks = ice::testing::make_blocks(2, 64, 6);
  EXPECT_THROW((void)make_proof(keys_.pk, params_, blocks, chal,
                                bn::BigInt(3)),
               ParamError);
}

TEST_F(LadderProofDiffTest, CombRungsEqualRepeatedSquaring) {
  // 4 KiB blocks at |N| = 256: X_max = 33104 bits, so t = kMaxLadder.
  params_.block_bytes = 4096;
  const LadderShape shape = ladder_shape(params_);
  ASSERT_EQ(shape.rungs, kMaxLadder);
  ChallengeSecret secret;
  const Challenge chal = fresh_challenge(secret);
  EXPECT_EQ(chal.rungs(), shape.rungs);
  EXPECT_EQ(chal.digit_bits, shape.digit_bits);
  EXPECT_EQ(chal.g_s, bn::Montgomery(keys_.pk.n).pow(keys_.pk.g, secret.s));
  EXPECT_EQ(chal.ladder, squared_rungs(keys_.pk, chal.g_s, shape.rungs,
                                       shape.digit_bits));
}

TEST(LadderShapeTest, BenchmarkShapes) {
  ProtocolParams params;  // |N| = 1024, 64-bit coefficients
  params.block_bytes = 16 * 1024;  // basic-proof
  const LadderShape proof = ladder_shape(params);
  EXPECT_EQ(proof.rungs, 8u);
  EXPECT_EQ(proof.digit_bits, 16522u);  // ceil(132176 / 8)
  params.block_bytes = 256;  // basic-pir: X_max = 3152 bits
  const LadderShape pir = ladder_shape(params);
  EXPECT_EQ(pir.rungs, 1u);
  EXPECT_EQ(pir.digit_bits, 3152u);
}

TEST_F(LadderProofDiffTest, CorruptedRungFailsAnHonestEdge) {
  // The edge cannot check the ladder: it has only g^s. A TPA that sends
  // one wrong rung makes an honest edge's proof fail verification, so the
  // ladder is trusted exactly as far as the TPA is.
  params_.block_bytes = 4096;
  const auto blocks = ice::testing::make_blocks(5, 4096, 8);
  const TagGenerator tagger(keys_.pk);
  std::vector<bn::BigInt> tags;
  for (const auto& b : blocks) tags.push_back(tagger.tag(b));
  ChallengeSecret secret;
  const Challenge chal = fresh_challenge(secret);
  ASSERT_GT(chal.rungs(), 3u);
  const bn::BigInt s_tilde = draw_blinding(keys_.pk, rng_);
  const auto repacked = repack_tags(keys_.pk, tags, s_tilde, 1);

  const Proof honest = make_proof(keys_.pk, params_, blocks, chal, s_tilde);
  EXPECT_TRUE(
      verify_proof(keys_.pk, params_, repacked, chal, secret, honest));

  Challenge bad = chal;
  bad.ladder[2] = bn::Montgomery(keys_.pk.n).mul(bad.ladder[2], keys_.pk.g);
  const Proof misled = make_proof(keys_.pk, params_, blocks, bad, s_tilde);
  EXPECT_FALSE(
      verify_proof(keys_.pk, params_, repacked, chal, secret, misled));
}

// --- wire forms -----------------------------------------------------------

std::uint16_t status_of(const Bytes& response) {
  net::Reader r(response);
  return r.u16();
}

constexpr auto kMalformed = static_cast<std::uint16_t>(net::Status::kMalformed);
constexpr auto kInvalid =
    static_cast<std::uint16_t>(net::Status::kInvalidArgument);
constexpr auto kNotFound = static_cast<std::uint16_t>(net::Status::kNotFound);

class LadderWireTest : public ::testing::Test {
 protected:
  LadderWireTest()
      : csp_(mec::BlockStore::synthetic(8, 64, 3)),
        edge_csp_(csp_),
        edge_(0, params_, keys_.pk,
              mec::EdgeCache(4, mec::EvictionPolicy::kLru), edge_csp_,
              nullptr) {}

  /// A kEdgeChallenge body: session id, e, t, L, then the rungs.
  Bytes challenge_body(std::uint64_t t, std::uint64_t digit_bits,
                       const std::vector<bn::BigInt>& rungs) const {
    net::Writer w;
    w.u64(7);
    w.bigint(bn::BigInt(99));
    w.varint(t);
    w.varint(digit_bits);
    for (const auto& h : rungs) w.bigint(h);
    return w.take();
  }

  KeyPair keys_ = ice::testing::test_keypair_256();
  ProtocolParams params_ = ice::testing::test_params(64);
  CspService csp_;
  net::InMemoryChannel edge_csp_;
  EdgeService edge_;
};

TEST_F(LadderWireTest, ChallengeRoundTrips) {
  Challenge chal;
  chal.e = bn::BigInt(12345);
  chal.g_s = bn::BigInt(5);
  chal.ladder = {bn::BigInt(25), bn::BigInt(625)};
  chal.digit_bits = 1;
  net::Writer w;
  write_challenge(w, chal);
  const Bytes bytes = w.take();
  net::Reader r(bytes);
  const Challenge back = read_challenge(r, keys_.pk.n);
  r.expect_done();
  EXPECT_EQ(back.e, chal.e);
  EXPECT_EQ(back.g_s, chal.g_s);
  EXPECT_EQ(back.ladder, chal.ladder);
  EXPECT_EQ(back.digit_bits, chal.digit_bits);
}

TEST_F(LadderWireTest, EdgeRefusesHostileLadders) {
  const bn::BigInt& n = keys_.pk.n;
  const std::vector<bn::BigInt> two = {bn::BigInt(4), bn::BigInt(16)};
  const std::vector<bn::BigInt> nine(kMaxLadder + 1, bn::BigInt(4));
  const std::uint64_t overflowing_l =
      std::numeric_limits<std::size_t>::max() / kMaxLadder + 1;
  struct Case {
    const char* what;
    Bytes body;
    std::uint16_t status;
  };
  const Case cases[] = {
      {"t = 0", challenge_body(0, 8, {}), kMalformed},
      {"t > kMaxLadder", challenge_body(kMaxLadder + 1, 8, nine), kMalformed},
      {"L = 0", challenge_body(2, 0, two), kMalformed},
      {"i L overflows", challenge_body(2, overflowing_l, two), kMalformed},
      {"L = 2^64 - 1", challenge_body(2, ~std::uint64_t{0}, two), kMalformed},
      {"rung 0", challenge_body(2, 8, {bn::BigInt(4), bn::BigInt(0)}),
       kInvalid},
      {"h_0 = N", challenge_body(2, 8, {n, bn::BigInt(4)}), kInvalid},
      {"rung > N", challenge_body(2, 8, {bn::BigInt(4), n * n}), kInvalid},
      {"missing rung", challenge_body(3, 8, two), kMalformed},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(status_of(edge_.handle(kEdgeChallenge, c.body)), c.status)
        << c.what;
  }
  // The largest admissible L decodes; with no blinding shared the edge
  // then answers not-found, never a crash.
  EXPECT_EQ(status_of(edge_.handle(kEdgeChallenge,
                                   challenge_body(2, overflowing_l - 1, two))),
            kNotFound);
}

/// A kTpaSetKey body for `keys` with 64-bit coefficients.
Bytes set_key_body(const KeyPair& keys, std::uint64_t block_bytes) {
  net::Writer w;
  w.bigint(keys.pk.n);
  w.bigint(keys.pk.g);
  w.varint(64);
  w.varint(128);
  w.varint(block_bytes);
  return w.take();
}

TEST(LadderSetKeyTest, TpaRefusesImplausibleBlockSize) {
  const KeyPair keys = ice::testing::test_keypair_256();
  TpaService tpa;
  const auto body = [&](std::uint64_t block_bytes) {
    return set_key_body(keys, block_bytes);
  };
  EXPECT_EQ(status_of(tpa.handle(kTpaSetKey, body(0))), kInvalid);
  EXPECT_EQ(status_of(tpa.handle(kTpaSetKey, body(kMaxBlockBytes + 1))),
            kInvalid);
  EXPECT_EQ(status_of(tpa.handle(kTpaSetKey, body(~std::uint64_t{0}))),
            kInvalid);
  EXPECT_EQ(status_of(tpa.handle(kTpaSetKey, body(64))),
            static_cast<std::uint16_t>(net::Status::kOk));
}

TEST(LadderSetKeyTest, LadderBuildAtTheBoundCostsAboutOneProof) {
  // set_key builds the ladder in its handler: a chain of (t - 1) L
  // squarings, ~7/8 of X_max, plus t |N|-bit combs. At the largest block
  // it accepts that is about the cost of ONE unladdered edge proof for
  // such a block (~2 s at |N| = 1024 on a 2020s x86 core), paid once per
  // key. Timed against that pow in the same process, so the check holds
  // on slow hosts and under sanitizers alike; the small modulus keeps
  // both short.
  const KeyPair keys = ice::testing::test_keypair_256();
  ProtocolParams params;
  params.modulus_bits = keys.pk.modulus_bits();
  params.block_bytes = kMaxBlockBytes;
  const LadderShape shape = ladder_shape(params);
  const std::size_t x_max = shape.rungs * shape.digit_bits;
  ASSERT_LE((shape.rungs - 1) * shape.digit_bits, 8 * kMaxBlockBytes);

  const auto seconds_of = [](const auto& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  SplitMix64 gen(0x5e7);
  bn::Rng64Adapter<SplitMix64> rng(gen);
  const bn::BigInt x = bn::random_bits(rng, x_max);
  const bn::Montgomery mont(keys.pk.n);
  const double pow_s = seconds_of([&] { (void)mont.pow(keys.pk.g, x); });
  TpaService tpa;
  const double set_key_s = seconds_of([&] {
    ASSERT_EQ(status_of(tpa.handle(kTpaSetKey,
                                   set_key_body(keys, kMaxBlockBytes))),
              static_cast<std::uint16_t>(net::Status::kOk));
  });
  std::printf("|N| = %zu, %zu-byte blocks: set_key %.3f s, one %zu-bit "
              "pow %.3f s\n",
              params.modulus_bits, kMaxBlockBytes, set_key_s, x_max, pow_s);
  EXPECT_LT(set_key_s, 3.0 * pow_s);
}

}  // namespace
}  // namespace ice::proto
