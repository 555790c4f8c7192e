// Ablation — modulus size sweep.
//
// Sweeps |N| in {256, 512, 1024} and reports the cost of every protocol
// phase, quantifying the security/performance trade-off the paper fixes at
// |N| = 1024.
#include "support.h"

#include "ice/protocol.h"
#include "ice/tag.h"

namespace {

using namespace ice;
using namespace ice::bench;

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  print_header("Ablation — protocol phase cost vs modulus size");
  const std::size_t kSj = smoke ? 2 : 5;
  const std::size_t kBlockBytes = smoke ? 1024 : 16 * 1024;
  const int reps = smoke ? 1 : 3;
  std::printf("(|S_j| = %zu, %zu KB blocks)\n", kSj, kBlockBytes / 1024);
  std::printf("%-8s %12s %12s %12s %12s %12s\n", "|N|", "TagGen/b(ms)",
              "chal (ms)", "proof (ms)", "repack (ms)", "verify (ms)");

  const std::vector<std::size_t> sweep =
      smoke ? std::vector<std::size_t>{256}
            : std::vector<std::size_t>{256, 512, 1024};
  for (std::size_t bits : sweep) {
    proto::ProtocolParams params;
    params.modulus_bits = bits;
    params.block_bytes = kBlockBytes;
    const proto::KeyPair keys = bench_keypair(bits);
    const proto::TagGenerator tagger(keys.pk);
    SplitMix64 gen(3000 + bits);
    bn::Rng64Adapter rng(gen);
    const auto blocks = bench_blocks(kSj, kBlockBytes, 3100 + bits);

    const double taggen_ms =
        1e3 * time_median(reps, [&] { (void)tagger.tag(blocks[0]); });
    const auto tags = tagger.tag_all(blocks);

    proto::ChallengeSecret secret;
    proto::Challenge chal;
    const proto::ChallengeLadder ladder(keys.pk, params);  // built at set_key
    const double chal_ms = 1e3 * time_median(reps, [&] {
      chal = proto::make_challenge(ladder, params, rng, secret);
    });
    const bn::BigInt s_tilde = proto::draw_blinding(keys.pk, rng);
    proto::Proof proof;
    const double proof_ms = 1e3 * time_median(reps, [&] {
      proof = proto::make_proof(keys.pk, params, blocks, chal, s_tilde);
    });
    std::vector<bn::BigInt> repacked;
    const double repack_ms = 1e3 * time_median(reps, [&] {
      repacked = proto::repack_tags(keys.pk, tags, s_tilde);
    });
    const double verify_ms = 1e3 * time_median(reps, [&] {
      if (!proto::verify_proof(keys.pk, params, repacked, chal, secret,
                               proof)) {
        std::fprintf(stderr, "BUG: honest proof rejected\n");
        std::exit(1);
      }
    });
    std::printf("%-8zu %12.2f %12.2f %12.2f %12.2f %12.2f\n", bits,
                taggen_ms, chal_ms, proof_ms, repack_ms, verify_ms);
  }

  std::printf("\nExpected: every phase scales superlinearly with |N| "
              "(quadratic limb work x linear exponent bits).\n");
  return 0;
}
