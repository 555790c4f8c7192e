// Exponentiation-engine microbench: ns per Montgomery square and multiply
// at 512/1024/2048 bits and the edge-proof-shaped pow (1024-bit N,
// 16 KiB-block exponent) against the power-ladder multi-exp at t digits,
// the TPA's rung mint and per-key ladder build, naive per-tag pow+mul vs
// simultaneous multi-exp, generic pow vs the Lim-Lee fixed-base comb, and
// the end-to-end protocol shapes those kernels drive (Fig. 3 TPA
// verification at |S_j| = 10, Tab. III TagGen at n = 200). Emits
// BENCH_modexp.json with the PR 1 baseline constants embedded so speedups
// are auditable offline.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bignum/fixed_base.h"
#include "bignum/montgomery.h"
#include "bignum/multiexp.h"
#include "bignum/random.h"
#include "crypto/prf.h"
#include "ice/protocol.h"
#include "ice/tag.h"
#include "support.h"

namespace ice::bench {
namespace {

// PR 1 (Release, this machine, 1 core) medians, for before/after context:
// bench_fig3_integrity_check verify @|S_j|=10 and bench_tab3_preprocess
// TagGen @n=200 (10 KiB blocks), both at the default 1024-bit modulus.
constexpr double kPr1VerifyAt10Seconds = 1.44e-3;
constexpr double kPr1TagGen200Seconds = 5.195;

// Exponent length of the basic-proof edge proof: a 16 KiB block (131072
// bits) times a 64-bit coefficient, summed over |S_j| = 16 blocks, times
// the user's 1024-bit blinding s~.
constexpr std::size_t kProofExponentBits = 131072 + 64 + 4 + 1024;

struct LadderPoint {
  std::vector<std::size_t> ts;
  std::vector<double> ladder_ms;  // multi_exp over t rungs, 1 thread
  std::vector<std::size_t> threads;
  std::vector<double> par_ms;     // t = 8 rungs chunked over the pool
  double build_ms = 0;            // TPA, once per key: ChallengeLadder, t = 8
  double mint1_ms = 0;            // TPA, per challenge: g^s alone (t = 1)
  double mint8_ms = 0;            // TPA, per challenge: 8 rungs
};

// The edge proof's exponent `e` as t digits of ceil(|e| / t) bits over
// rungs minted by a real ChallengeLadder. Exits non-zero unless
// prod_i h_i^{E_i} equals the single pow h_0^e.
double time_ladder(const proto::PublicKey& pk, const bn::BigInt& e,
                   std::size_t t, std::size_t threads, int reps,
                   bn::Rng64& rng) {
  const std::size_t digit_bits = (e.bit_length() + t - 1) / t;
  const proto::ChallengeLadder ladder(pk, proto::LadderShape{t, digit_bits});
  proto::Challenge chal;
  ladder.mint(bn::random_unit(rng, pk.n), chal);
  std::vector<bn::BigInt> rungs = {chal.g_s};
  rungs.insert(rungs.end(), chal.ladder.begin(), chal.ladder.end());
  std::vector<bn::BigInt> digits(t);
  for (std::size_t i = 0; i < t; ++i) {
    digits[i] = (e >> (i * digit_bits)) % (bn::BigInt(1) << digit_bits);
  }
  const auto mont = bn::Montgomery::shared(pk.n);
  bn::BigInt got;
  const double ms = time_median(reps, [&] {
    got = bn::multi_exp(*mont, rungs, digits, threads);
  }) * 1e3;
  if (got != mont->pow(chal.g_s, e)) {
    std::fprintf(stderr, "ladder t=%zu disagrees with the pow\n", t);
    std::exit(1);
  }
  return ms;
}

LadderPoint bench_ladder(const proto::PublicKey& pk, std::size_t block_bytes,
                         std::size_t exp_bits,
                         const std::vector<std::size_t>& ts, int reps) {
  SplitMix64 gen(13);
  bn::Rng64Adapter rng(gen);
  const bn::BigInt e = bn::random_bits(rng, exp_bits);
  LadderPoint point;
  point.ts = ts;
  for (std::size_t t : ts) {
    point.ladder_ms.push_back(time_ladder(pk, e, t, 1, reps, rng));
    std::printf("  t=%2zu  L=%6zu  multi_exp %8.3f ms\n", t,
                (exp_bits + t - 1) / t, point.ladder_ms.back());
  }
  for (std::size_t threads : {1, 2, 4}) {
    point.threads.push_back(threads);
    point.par_ms.push_back(time_ladder(pk, e, 8, threads, reps, rng));
    std::printf("  t= 8  %zu thread(s)  multi_exp %8.3f ms\n", threads,
                point.par_ms.back());
  }
  // The TPA's side at the same shape: the per-key build and the mint.
  proto::ProtocolParams params;
  params.modulus_bits = pk.n.bit_length();
  params.block_bytes = block_bytes;
  const proto::LadderShape shape = proto::ladder_shape(params);
  point.build_ms = time_median(reps, [&] {
    (void)proto::ChallengeLadder(pk, shape);
  }) * 1e3;
  const proto::ChallengeLadder ladder8(pk, shape);
  const proto::ChallengeLadder ladder1(pk, proto::LadderShape{1, exp_bits});
  const bn::BigInt s = bn::random_unit(rng, pk.n);
  proto::Challenge chal;
  point.mint8_ms = time_median(15, [&] { ladder8.mint(s, chal); }) * 1e3;
  point.mint1_ms = time_median(15, [&] { ladder1.mint(s, chal); }) * 1e3;
  std::printf("  TPA: ladder build (t=%zu, L=%zu) %.3f ms, mint %zu rungs "
              "%.3f ms, mint g^s alone %.3f ms\n",
              shape.rungs, shape.digit_bits, point.build_ms, shape.rungs,
              point.mint8_ms, point.mint1_ms);
  return point;
}

// prod tags[i]^{coeffs[i]} one pow+mul at a time — the pre-engine shape.
bn::BigInt naive_fold(const bn::Montgomery& mont,
                      const std::vector<bn::BigInt>& bases,
                      const std::vector<bn::BigInt>& exps) {
  bn::BigInt acc(1);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    acc = mont.mul(acc, mont.pow(bases[i], exps[i]));
  }
  return acc;
}

struct KernelPoint {
  double sqr_ns;
  double mul_ns;
};

// ns per sqr_into and per mul_into on one modulus, each the best of
// `batches` back-to-back runs of `ops` chained operations (the chain keeps
// every call dependent on the last, as in a pow).
KernelPoint bench_kernels(const bn::BigInt& modulus, int ops, int batches) {
  const bn::Montgomery mont(modulus);
  SplitMix64 gen(11);
  bn::Rng64Adapter rng(gen);
  bn::Montgomery::LimbVec a = mont.to_mont(bn::random_below(rng, modulus));
  const bn::Montgomery::LimbVec b =
      mont.to_mont(bn::random_below(rng, modulus));
  bn::Montgomery::LimbVec scratch(mont.scratch_limbs());
  auto best_ns = [&](auto&& op) {
    double best = 1e30;
    for (int r = 0; r < batches; ++r) {
      Stopwatch sw;
      for (int i = 0; i < ops; ++i) op();
      best = std::min(best, sw.seconds() * 1e9 / ops);
    }
    return best;
  };
  KernelPoint point;
  point.sqr_ns = best_ns(
      [&] { mont.sqr_into(a.data(), a.data(), scratch.data()); });
  point.mul_ns = best_ns(
      [&] { mont.mul_into(a.data(), a.data(), b.data(), scratch.data()); });
  std::printf("  |N|=%4zu  sqr_into %8.1f ns  mul_into %8.1f ns\n",
              modulus.bit_length(), point.sqr_ns, point.mul_ns);
  return point;
}

// A random odd modulus of exactly `bits` bits (no cached 2048-bit primes;
// the kernels do not care whether N is an RSA modulus).
bn::BigInt random_odd_modulus(std::size_t bits) {
  SplitMix64 gen(bits);
  bn::Rng64Adapter rng(gen);
  bn::BigInt n =
      bn::random_bits(rng, bits - 1) + (bn::BigInt(1) << (bits - 1));
  return n.is_odd() ? n : n + bn::BigInt(1);
}

struct Sweep {
  std::vector<double> ks;
  std::vector<double> naive_ms;
  std::vector<double> multi_ms;
};

Sweep sweep_multi_exp(std::size_t modulus_bits, const std::vector<std::size_t>& ks) {
  const proto::KeyPair keys = bench_keypair(modulus_bits);
  const auto mont = bn::Montgomery::shared(keys.pk.n);
  SplitMix64 gen(7);
  bn::Rng64Adapter rng(gen);
  Sweep sweep;
  for (std::size_t k : ks) {
    std::vector<bn::BigInt> bases(k), exps(k);
    for (std::size_t i = 0; i < k; ++i) {
      bases[i] = bn::random_below(rng, keys.pk.n);
      exps[i] = bn::random_bits(rng, 80);  // coefficient-sized exponents
    }
    const int reps = k >= 64 ? 5 : 20;
    const double naive =
        time_median(reps, [&] { (void)naive_fold(*mont, bases, exps); });
    const double multi = time_median(
        reps, [&] { (void)bn::multi_exp(*mont, bases, exps, 1); });
    sweep.ks.push_back(static_cast<double>(k));
    sweep.naive_ms.push_back(naive * 1e3);
    sweep.multi_ms.push_back(multi * 1e3);
    std::printf("  |N|=%4zu k=%3zu  naive %8.3f ms  multi-exp %8.3f ms  (%.2fx)\n",
                modulus_bits, k, naive * 1e3, multi * 1e3, naive / multi);
  }
  return sweep;
}

struct CombPoint {
  double generic_ms;
  double comb_ms;
};

CombPoint bench_comb(std::size_t modulus_bits, std::size_t exp_bits) {
  const proto::KeyPair keys = bench_keypair(modulus_bits);
  const auto mont = bn::Montgomery::shared(keys.pk.n);
  SplitMix64 gen(8);
  bn::Rng64Adapter rng(gen);
  const bn::BigInt e = bn::random_bits(rng, exp_bits);
  const auto comb = mont->fixed_base(keys.pk.g, exp_bits);  // pre-warm
  const int reps = exp_bits > 10000 ? 5 : 15;
  CombPoint point;
  point.generic_ms =
      time_median(reps, [&] { (void)mont->pow(keys.pk.g, e); }) * 1e3;
  point.comb_ms = time_median(reps, [&] { (void)comb->pow(e); }) * 1e3;
  std::printf("  |N|=%4zu |e|=%6zu  generic %9.3f ms  comb %9.3f ms  (%.2fx)\n",
              modulus_bits, exp_bits, point.generic_ms, point.comb_ms,
              point.generic_ms / point.comb_ms);
  return point;
}

// Fig. 3-shaped TPA verification at |S_j| = 10: expand coefficients,
// multi-exp the repacked tags, raise to s, compare.
double bench_verify_shape(const proto::KeyPair& keys,
                          const proto::ProtocolParams& params, std::size_t k,
                          bn::Rng64& rng) {
  std::vector<bn::BigInt> tags(k);
  for (auto& t : tags) t = bn::random_below(rng, keys.pk.n);
  proto::ChallengeSecret secret;
  // Verification reads only e: a one-rung ladder will do.
  const proto::Challenge chal = proto::make_challenge(
      proto::ChallengeLadder(keys.pk, proto::LadderShape{}), params, rng,
      secret);
  proto::Proof proof;
  proof.p = bn::BigInt(1);
  return time_median(15, [&] {
    (void)proto::verify_proof(keys.pk, params, tags, chal, secret, proof);
  });
}

}  // namespace
}  // namespace ice::bench

int main(int argc, char** argv) {
  using namespace ice::bench;
  const bool smoke = smoke_mode(argc, argv);

  print_header("Montgomery kernels: ns per square / multiply");
  const int kernel_ops = smoke ? 2000 : 200000;
  const int kernel_batches = smoke ? 2 : 15;
  const ice::proto::KeyPair keys512 = bench_keypair(512);
  const ice::proto::KeyPair keys1024 = bench_keypair(1024);
  const KernelPoint k512 =
      bench_kernels(keys512.pk.n, kernel_ops, kernel_batches);
  const KernelPoint k1024 =
      bench_kernels(keys1024.pk.n, kernel_ops, kernel_batches);
  const KernelPoint k2048 = bench_kernels(random_odd_modulus(2048),
                                          kernel_ops / 4, kernel_batches);

  // The edge proof's exponent at the basic-proof shape as one pow: |N| =
  // 1024 and one 16 KiB block plus the coefficient, aggregation and
  // blinding bits.
  print_header("edge-proof pow (|N| = 1024, 132164-bit exponent)");
  const double proof_pow_ms = [&] {
    const auto mont = ice::bn::Montgomery::shared(keys1024.pk.n);
    ice::SplitMix64 gen(12);
    ice::bn::Rng64Adapter rng(gen);
    const ice::bn::BigInt base = ice::bn::random_below(rng, keys1024.pk.n);
    const ice::bn::BigInt e = ice::bn::random_bits(rng, kProofExponentBits);
    ice::bn::BigInt out;
    return time_median(smoke ? 1 : 9,
                       [&] { mont->pow_into(out, base, e); }) * 1e3;
  }();
  std::printf("  pow_into: %.3f ms\n", proof_pow_ms);

  print_header("power ladder: the same exponent as t digits (|N| = 1024)");
  const LadderPoint ladder =
      smoke ? bench_ladder(bench_keypair(256).pk, 512, 4096 + 256, {1, 4}, 1)
            : bench_ladder(keys1024.pk, 16384, kProofExponentBits,
                           {1, 4, 8, 16}, 9);

  print_header("multi-exp vs naive pow+mul fold (80-bit coefficients)");
  const std::vector<std::size_t> ks =
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 2, 4, 10, 32, 64, 128};
  const Sweep s512 = sweep_multi_exp(smoke ? 256 : 512, ks);
  if (smoke) {
    // Tiny pass over every kernel shape; no JSON (keeps the real
    // measurement files intact).
    (void)bench_comb(256, 255);
    return 0;
  }
  const Sweep s1024 = sweep_multi_exp(1024, ks);

  print_header("fixed-base comb vs generic pow (base g)");
  const CombPoint c_chal = bench_comb(1024, 1023);    // challenge g^s
  const CombPoint c_tag = bench_comb(1024, 81920);    // TagGen, 10 KiB block

  print_header("protocol shapes (1024-bit modulus)");
  const ice::proto::KeyPair& keys = keys1024;
  ice::proto::ProtocolParams params;
  params.parallelism = 1;
  ice::SplitMix64 gen(9);
  ice::bn::Rng64Adapter rng(gen);
  const double verify10 = bench_verify_shape(keys, params, 10, rng);
  std::printf("  verify_proof @|S_j|=10: %.3f ms  (PR1 baseline %.3f ms, %.2fx)\n",
              verify10 * 1e3, kPr1VerifyAt10Seconds * 1e3,
              kPr1VerifyAt10Seconds / verify10);

  const ice::proto::TagGenerator tagger(keys.pk);
  const std::vector<ice::Bytes> blocks = bench_blocks(200, 10240, 10);
  const double taggen = time_median(3, [&] { (void)tagger.tag_all(blocks, 1); });
  std::printf("  tag_all @n=200, 10 KiB:  %.3f s  (PR1 baseline %.3f s, %.2fx)\n",
              taggen, kPr1TagGen200Seconds, kPr1TagGen200Seconds / taggen);

  std::string body = "{\"sqr_ns\": " +
                     json_array(std::vector<double>{k512.sqr_ns, k1024.sqr_ns,
                                                    k2048.sqr_ns}) +
                     ", \"mul_ns\": " +
                     json_array(std::vector<double>{k512.mul_ns, k1024.mul_ns,
                                                    k2048.mul_ns}) +
                     ", \"kernel_bits\": [512, 1024, 2048]" +
                     ", \"proof_pow_ms\": " + std::to_string(proof_pow_ms) +
                     ", \"proof_pow_exp_bits\": " +
                     std::to_string(kProofExponentBits) +
                     ", \"ladder_ts\": " + json_array(ladder.ts) +
                     ", \"ladder_ms\": " + json_array(ladder.ladder_ms) +
                     ", \"ladder_t8_threads\": " + json_array(ladder.threads) +
                     ", \"ladder_t8_ms\": " + json_array(ladder.par_ms) +
                     ", \"ladder_build_ms\": " +
                     std::to_string(ladder.build_ms) +
                     ", \"ladder_mint8_ms\": " +
                     std::to_string(ladder.mint8_ms) +
                     ", \"ladder_mint1_ms\": " +
                     std::to_string(ladder.mint1_ms) +
                     ", \"ks\": " + json_array(ks) +
                     ", \"naive_ms_512\": " + json_array(s512.naive_ms) +
                     ", \"multi_ms_512\": " + json_array(s512.multi_ms) +
                     ", \"naive_ms_1024\": " + json_array(s1024.naive_ms) +
                     ", \"multi_ms_1024\": " + json_array(s1024.multi_ms) +
                     ", \"comb_challenge_ms\": [" +
                     std::to_string(c_chal.generic_ms) + ", " +
                     std::to_string(c_chal.comb_ms) + "]" +
                     ", \"comb_taggen_ms\": [" +
                     std::to_string(c_tag.generic_ms) + ", " +
                     std::to_string(c_tag.comb_ms) + "]" +
                     ", \"verify10_ms\": " + std::to_string(verify10 * 1e3) +
                     ", \"verify10_pr1_ms\": " +
                     std::to_string(kPr1VerifyAt10Seconds * 1e3) +
                     ", \"taggen200_s\": " + std::to_string(taggen) +
                     ", \"taggen200_pr1_s\": " +
                     std::to_string(kPr1TagGen200Seconds) + "}";
  emit_json("modexp", body, "BENCH_modexp.json");
  return 0;
}
