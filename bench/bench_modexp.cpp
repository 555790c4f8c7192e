// Exponentiation-engine microbench: ns per Montgomery square and multiply
// at 512/1024/2048 bits and the edge-proof-shaped pow (1024-bit N,
// 16 KiB-block exponent), naive per-tag pow+mul vs simultaneous multi-exp,
// generic pow vs the Lim-Lee fixed-base comb, and the end-to-end protocol
// shapes those kernels drive (Fig. 3 TPA verification at |S_j| = 10,
// Tab. III TagGen at n = 200). Emits BENCH_modexp.json with the PR 1
// baseline constants embedded so speedups are auditable offline.
#include <algorithm>
#include <cstdio>
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
// bits) times a 64-bit coefficient, summed over |S_j| = 16 blocks.
constexpr std::size_t kProofExponentBits = 131072 + 64 + 4;

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
  const proto::Challenge chal =
      proto::make_challenge(keys.pk, params, rng, secret);
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

  // The edge proof's one modexp at the basic-proof shape: |N| = 1024 and an
  // exponent of one 16 KiB block plus the coefficient/aggregation bits.
  print_header("edge-proof pow (|N| = 1024, 131140-bit exponent)");
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
  emit_parallel_json("modexp", body, "BENCH_modexp.json");
  return 0;
}
