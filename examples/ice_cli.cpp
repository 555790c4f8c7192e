// ice_cli — file-driven command line tool around the library.
//
//   ice_cli keygen <keyfile> [modulus_bits]      generate + persist keys
//   ice_cli tag <keyfile> <datafile> <tagfile> [block_bytes]
//                                                tag a real file on disk
//   ice_cli verify <keyfile> <datafile> <tagfile> [block_bytes]
//                                                owner-side integrity check
//   ice_cli flipbit <datafile> <byte_offset>     demo corruption helper
//
// `verify` runs the actual aggregated HVT check (challenge coefficients,
// one proof, one comparison), not a hash compare — the same math an edge
// audit uses, applied by the data owner locally.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bignum/montgomery.h"
#include "common/stopwatch.h"
#include "crypto/csprng.h"
#include "crypto/prf.h"
#include "ice/keys.h"
#include "ice/persist.h"
#include "ice/protocol.h"
#include "ice/tag.h"
#include "support_keys.h"

namespace {

using namespace ice;

std::vector<Bytes> read_blocks(const std::filesystem::path& path,
                               std::size_t block_bytes) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(2);
  }
  const auto size = static_cast<std::size_t>(f.tellg());
  f.seekg(0);
  std::vector<Bytes> blocks;
  for (std::size_t off = 0; off < size || blocks.empty();
       off += block_bytes) {
    const std::size_t len = std::min(block_bytes, size - off);
    Bytes block(len);
    f.read(reinterpret_cast<char*>(block.data()),
           static_cast<std::streamsize>(len));
    blocks.push_back(std::move(block));
    if (len < block_bytes) break;
  }
  return blocks;
}

int cmd_keygen(int argc, char** argv) {
  if (argc < 3) return 1;
  const std::size_t bits =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 512;
  std::printf("generating %zu-bit key pair...\n", bits);
  // Cached demo primes for the standard sizes (see support_keys.h), live
  // safe-prime search otherwise.
  const proto::KeyPair keys = examples::demo_keypair(bits);
  proto::save_keypair(argv[2], keys);
  std::printf("saved key pair to %s (|N| = %zu bits)\n", argv[2],
              keys.pk.modulus_bits());
  return 0;
}

int cmd_tag(int argc, char** argv) {
  if (argc < 5) return 1;
  const std::size_t block_bytes =
      argc > 5 ? static_cast<std::size_t>(std::atoi(argv[5])) : 4096;
  const proto::KeyPair keys = proto::load_keypair(argv[2]);
  const auto blocks = read_blocks(argv[3], block_bytes);
  const proto::TagGenerator tagger(keys.pk);
  Stopwatch sw;
  const auto tags = tagger.tag_all(blocks);
  proto::save_tags(argv[4], tags, keys.pk.modulus_bits());
  std::printf("tagged %zu blocks (%zu B each) in %.2f s -> %s\n",
              blocks.size(), block_bytes, sw.seconds(), argv[4]);
  return 0;
}

int cmd_verify(int argc, char** argv) {
  if (argc < 5) return 1;
  const std::size_t block_bytes =
      argc > 5 ? static_cast<std::size_t>(std::atoi(argv[5])) : 4096;
  const proto::KeyPair keys = proto::load_keypair(argv[2]);
  const auto blocks = read_blocks(argv[3], block_bytes);
  const proto::StoredTags stored = proto::load_tags(argv[4]);
  if (stored.tags.size() != blocks.size()) {
    std::printf("FAIL: %zu blocks on disk but %zu tags stored\n",
                blocks.size(), stored.tags.size());
    return 1;
  }
  // Owner-side aggregated check: same math as an edge audit.
  proto::ProtocolParams params;
  params.modulus_bits = keys.pk.modulus_bits();
  params.block_bytes = block_bytes;
  crypto::Csprng rng;
  proto::ChallengeSecret secret;
  const proto::Challenge chal = proto::make_challenge(
      proto::ChallengeLadder(keys.pk, params), params, rng, secret);
  const bn::BigInt s_tilde = proto::draw_blinding(keys.pk, rng);
  Stopwatch sw;
  const proto::Proof proof =
      proto::make_proof(keys.pk, params, blocks, chal, s_tilde);
  const auto repacked = proto::repack_tags(keys.pk, stored.tags, s_tilde);
  const bool pass =
      proto::verify_proof(keys.pk, params, repacked, chal, secret, proof);
  std::printf("%s (%zu blocks checked in %.2f s)\n",
              pass ? "PASS: file matches its tags"
                   : "FAIL: file does NOT match its tags",
              blocks.size(), sw.seconds());
  return pass ? 0 : 1;
}

int cmd_flipbit(int argc, char** argv) {
  if (argc < 4) return 1;
  std::fstream f(argv[2], std::ios::binary | std::ios::in | std::ios::out);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", argv[2]);
    return 2;
  }
  const long offset = std::atol(argv[3]);
  f.seekg(offset);
  char c = 0;
  f.read(&c, 1);
  if (!f) {
    std::fprintf(stderr, "offset %ld is past the end of %s\n", offset,
                 argv[2]);
    return 2;
  }
  c = static_cast<char>(c ^ 0x01);
  f.seekp(offset);
  f.write(&c, 1);
  std::printf("flipped bit 0 of byte %ld in %s\n", offset, argv[2]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  int rc = 1;
  if (cmd == "keygen") {
    rc = cmd_keygen(argc, argv);
  } else if (cmd == "tag") {
    rc = cmd_tag(argc, argv);
  } else if (cmd == "verify") {
    rc = cmd_verify(argc, argv);
  } else if (cmd == "flipbit") {
    rc = cmd_flipbit(argc, argv);
  }
  if (rc == 1 && (cmd.empty() || cmd == "help" || cmd == "--help")) {
    std::printf(
        "usage:\n"
        "  ice_cli keygen <keyfile> [modulus_bits]\n"
        "  ice_cli tag <keyfile> <datafile> <tagfile> [block_bytes]\n"
        "  ice_cli verify <keyfile> <datafile> <tagfile> [block_bytes]\n"
        "  ice_cli flipbit <datafile> <byte_offset>\n");
  }
  return rc;
}
