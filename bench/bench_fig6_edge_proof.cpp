// Fig. 6 — Computation cost on the edges: proof generation.
//
// The edge's cost is one exponentiation whose exponent is the blinded,
// coefficient-weighted sum of its |S_j| blocks. With the power ladder
// (DESIGN.md §8) it is a multi-exponentiation over t = 8 rungs sharing a
// squaring chain of ~1/8 of the exponent. Expected shape (paper): nearly
// flat in |S_j| (the exponentiation dominates; coefficient expansion and
// big-integer additions are negligible) and linear in the block size
// (256KB -> 512KB -> 1024KB gave 0.74 -> 1.45 -> 2.93 s on the paper's
// T470 laptop at |N| = 1024). Each point's parameters carry its block
// size, as a deployment's would, so the challenge ladder fits the block.
//
// We sweep scaled blocks (16/32/64 KB) for the |S_j| grid and add the
// paper's full 256KB/512KB/1024KB sizes at |S_j| = 3 as single-shot
// validation points of the linear slope.
#include "support.h"

#include <thread>

#include "ice/batch.h"
#include "ice/protocol.h"

namespace {

using namespace ice;
using namespace ice::bench;

double proof_seconds(const proto::KeyPair& keys,
                     const proto::ProtocolParams& params,
                     const std::vector<Bytes>& blocks, std::uint64_t seed,
                     int reps) {
  SplitMix64 gen(seed);
  bn::Rng64Adapter rng(gen);
  proto::ProtocolParams sized = params;
  sized.block_bytes = blocks.front().size();
  proto::ChallengeSecret secret;
  const proto::Challenge chal = proto::make_challenge(
      proto::ChallengeLadder(keys.pk, sized), sized, rng, secret);
  const bn::BigInt s_tilde = proto::draw_blinding(keys.pk, rng);
  return time_median(reps, [&] {
    (void)proto::make_proof(keys.pk, sized, blocks, chal, s_tilde);
  });
}

// Thread sweep: the same work at parallelism 1/2/4/hw, two shapes.
//
//   single proof — one make_proof call: the aggregation chunks across the
//     pool but the closing ladder multi-exponentiation is one squaring
//     chain on one thread, so this row stays ~flat (documents WHERE
//     threads do not help);
//   ICE-batch round — J per-edge proofs fanned out by make_batch_proofs:
//     independent modexps, the shape that scales with cores.
void run_thread_sweep(const ice::proto::KeyPair& keys) {
  using namespace ice;
  using namespace ice::bench;
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> threads{1, 2, 4};
  if (hw != 1 && hw != 2 && hw != 4) threads.push_back(hw);

  constexpr std::size_t kJ = 4;           // edges per batch round
  constexpr std::size_t kSj = 4;          // blocks per edge
  constexpr std::size_t kBlockKb = 32;

  proto::ProtocolParams params;
  params.modulus_bits = 1024;
  params.block_bytes = kBlockKb * 1024;
  const auto blocks = bench_blocks(kSj, kBlockKb * 1024, 900);
  std::vector<std::vector<Bytes>> edge_blocks;
  for (std::size_t j = 0; j < kJ; ++j) {
    edge_blocks.push_back(bench_blocks(kSj, kBlockKb * 1024, 910 + j));
  }
  SplitMix64 gen(920);
  bn::Rng64Adapter rng(gen);
  proto::ChallengeSecret secret;
  const proto::Challenge base =
      proto::make_batch_base(keys.pk, rng, secret);
  const auto edge_keys = proto::draw_challenge_keys(params, kJ, rng);
  const bn::BigInt s_tilde = proto::draw_blinding(keys.pk, rng);
  proto::ChallengeSecret chal_secret;
  proto::Challenge chal = proto::make_challenge(
      proto::ChallengeLadder(keys.pk, params), params, rng, chal_secret);
  chal.e = edge_keys[0];

  std::printf("\nThread sweep (%zuKB blocks, hardware threads: %zu)\n",
              kBlockKb, hw);
  std::printf("%-8s %18s %24s %9s\n", "threads", "1 proof (s)",
              "batch J=4 round (s)", "speedup");
  std::vector<double> single_s, batch_s, speedup;
  for (std::size_t t : threads) {
    params.parallelism = t;
    const double one = time_median(3, [&] {
      (void)proto::make_proof(keys.pk, params, blocks, chal, s_tilde);
    });
    const double round = time_median(3, [&] {
      (void)proto::make_batch_proofs(keys.pk, params, edge_blocks, edge_keys,
                                     base.g_s);
    });
    single_s.push_back(one);
    batch_s.push_back(round);
    speedup.push_back(batch_s.front() / round);
    std::printf("%-8zu %18.3f %24.3f %8.2fx\n", t, one, round,
                speedup.back());
  }
  std::printf("Expected on >=4 cores: batch column >=2x at 4 threads; the\n"
              "single-proof column stays flat (one squaring chain).\n");

  std::string body;
  body += "{\"hardware_concurrency\": " + std::to_string(hw);
  body += ", \"block_kb\": " + std::to_string(kBlockKb);
  body += ", \"threads\": " + json_array(threads);
  body += ", \"single_proof_seconds\": " + json_array(single_s);
  body += ", \"batch_edges\": " + std::to_string(kJ);
  body += ", \"batch_round_seconds\": " + json_array(batch_s);
  body += ", \"batch_speedup_vs_serial\": " + json_array(speedup);
  body += "}";
  emit_parallel_json("fig6_edge_proof", body);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  print_header("Fig. 6 — edge proof generation time");
  proto::ProtocolParams params;
  params.modulus_bits = smoke ? 256 : 1024;  // paper's |N| is 1024
  const proto::KeyPair keys = bench_keypair(params.modulus_bits);

  if (smoke) {
    // One tiny proof through the same measurement helper; skip the
    // paper-size points and the thread sweep (which writes JSON).
    const auto blocks = bench_blocks(2, 4 * 1024, 500);
    std::printf("\nSmoke: |S_j| = 2, 4KB blocks: %.3f s\n",
                proof_seconds(keys, params, blocks, 600, 1));
    return 0;
  }

  std::printf("\nScaled grid (16/32/64 KB blocks), |S_j| = 1..10\n");
  std::printf("%-8s %14s %14s %14s\n", "|S_j|", "16KB (s)", "32KB (s)",
              "64KB (s)");
  for (std::size_t s_j : {1u, 4u, 7u, 10u}) {
    std::printf("%-8zu", s_j);
    for (std::size_t kb : {16u, 32u, 64u}) {
      const auto blocks = bench_blocks(s_j, kb * 1024, 500 + s_j + kb);
      std::printf(" %14.3f",
                  proof_seconds(keys, params, blocks, 600 + s_j + kb, 3));
    }
    std::printf("\n");
  }

  std::printf("\nPaper-size validation points (|S_j| = 3, single shot)\n");
  std::printf("%-10s %12s %22s\n", "block", "time (s)",
              "ratio vs 256KB (paper: 1/2/4)");
  double base = 0;
  for (std::size_t kb : {256u, 512u, 1024u}) {
    const auto blocks = bench_blocks(3, kb * 1024, 700 + kb);
    const double t = proof_seconds(keys, params, blocks, 800 + kb, 1);
    if (kb == 256) base = t;
    std::printf("%7zuKB %12.2f %22.2f\n", kb, t, t / base);
  }

  std::printf("\nShape check vs paper: flat in |S_j|, linear in block "
              "size (one squaring chain dominates).\n");

  run_thread_sweep(keys);
  return 0;
}
