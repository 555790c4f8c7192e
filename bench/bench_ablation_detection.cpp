// Ablation — detection probability under sampled auditing.
//
// ICE challenges EVERY cached block, so any corruption is caught with
// probability 1 (the nonzero PRF coefficients guarantee the aggregate
// changes). Classic PDP instead samples c of the n_j blocks per audit to
// save edge work. This ablation implements that variant on top of the same
// primitives and measures detection probability vs corrupted fraction —
// quantifying what ICE's full-coverage challenge buys.
#include "support.h"

#include <algorithm>

#include "ice/protocol.h"
#include "ice/tag.h"
#include "mec/corruption.h"

namespace {

using namespace ice;
using namespace ice::bench;

/// One sampled audit: challenge only `sample` randomly chosen positions.
bool sampled_audit(const proto::KeyPair& keys,
                   const proto::ProtocolParams& params,
                   const std::vector<Bytes>& edge_blocks,
                   const std::vector<bn::BigInt>& tags, std::size_t sample,
                   SplitMix64& gen, bn::Rng64& rng) {
  std::vector<std::size_t> order(edge_blocks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = 0; i < sample; ++i) {
    std::swap(order[i], order[i + gen.below(order.size() - i)]);
  }
  std::vector<Bytes> chosen_blocks;
  std::vector<bn::BigInt> chosen_tags;
  for (std::size_t i = 0; i < sample; ++i) {
    chosen_blocks.push_back(edge_blocks[order[i]]);
    chosen_tags.push_back(tags[order[i]]);
  }
  proto::ChallengeSecret secret;
  const proto::Challenge chal = proto::make_challenge(
      proto::ChallengeLadder(keys.pk, params), params, rng, secret);
  const bn::BigInt s_tilde = proto::draw_blinding(keys.pk, rng);
  const proto::Proof proof =
      proto::make_proof(keys.pk, params, chosen_blocks, chal, s_tilde);
  const auto repacked = proto::repack_tags(keys.pk, chosen_tags, s_tilde);
  return proto::verify_proof(keys.pk, params, repacked, chal, secret, proof);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  print_header("Ablation — detection probability: full vs sampled audits");
  proto::ProtocolParams params;
  params.modulus_bits = 256;  // soundness per audit is what varies here
  params.block_bytes = 256;
  const proto::KeyPair keys = bench_keypair(params.modulus_bits);
  const proto::TagGenerator tagger(keys.pk);

  const std::size_t kNj = 50;     // blocks on the edge
  const int kTrials = smoke ? 2 : 40;
  SplitMix64 gen(77);
  bn::Rng64Adapter rng(gen);

  std::printf("%-12s %10s %12s %12s %12s\n", "corrupted", "ICE(full)",
              "sample 25", "sample 10", "sample 5");
  const std::vector<std::size_t> sweep =
      smoke ? std::vector<std::size_t>{1}
            : std::vector<std::size_t>{1, 2, 5, 10};
  for (std::size_t corrupted : sweep) {
    int caught_full = 0, caught_25 = 0, caught_10 = 0, caught_5 = 0;
    for (int t = 0; t < kTrials; ++t) {
      auto blocks = bench_blocks(kNj, params.block_bytes,
                                 900 + corrupted * 100 +
                                     static_cast<std::size_t>(t));
      const auto tags = tagger.tag_all(blocks);
      // Corrupt `corrupted` distinct blocks.
      std::vector<std::size_t> order(kNj);
      for (std::size_t i = 0; i < kNj; ++i) order[i] = i;
      for (std::size_t i = 0; i < corrupted; ++i) {
        std::swap(order[i], order[i + gen.below(kNj - i)]);
        mec::corrupt_block(blocks[order[i]], mec::CorruptionKind::kBitFlip,
                           gen);
      }
      caught_full +=
          sampled_audit(keys, params, blocks, tags, kNj, gen, rng) ? 0 : 1;
      caught_25 +=
          sampled_audit(keys, params, blocks, tags, 25, gen, rng) ? 0 : 1;
      caught_10 +=
          sampled_audit(keys, params, blocks, tags, 10, gen, rng) ? 0 : 1;
      caught_5 +=
          sampled_audit(keys, params, blocks, tags, 5, gen, rng) ? 0 : 1;
    }
    const auto pct = [&](int c) {
      return 100.0 * c / static_cast<double>(kTrials);
    };
    std::printf("%3zu /%3zu    %9.0f%% %11.0f%% %11.0f%% %11.0f%%\n",
                corrupted, kNj, pct(caught_full), pct(caught_25),
                pct(caught_10), pct(caught_5));
  }

  std::printf("\nExpected: ICE's full-coverage challenge detects 100%% "
              "always; sampled variants approach 1-(1-f)^c.\n");
  return 0;
}
