// Differential tests for the fused multi-query evaluation engine:
// PirServer::respond must be bit-identical to answering the points one at a
// time with a per-point oracle — the naive term-by-term reference (the
// ground truth), the paper's matrix-representation reference, or the
// engine itself fed single-point queries (which isolates the point tiling)
// — on both servers' query distributions (tau = 0 queries phi + z, tau = 1
// queries phi + x*z), at every parallelism setting and batch size, for tag
// widths inside one word and across word boundaries, and under every SIMD
// tier this CPU supports.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bignum/random.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/simd.h"
#include "pir/client.h"
#include "pir/server.h"
#include "pir_reference.h"
#include "support/pir_compare.h"

namespace ice::pir {
namespace {

// The per-point evaluator a case checks the fused batch against.
enum class Oracle { kNaive, kMatrix, kBitsliced };

struct Case {
  Oracle oracle;
  std::size_t parallelism;
  std::size_t m;
};

std::string oracle_name(Oracle o) {
  switch (o) {
    case Oracle::kNaive: return "Naive";
    case Oracle::kMatrix: return "Matrix";
    case Oracle::kBitsliced: return "Bitsliced";
  }
  return "?";
}

// Queries each of the two TPAs actually sees for an m-point retrieval.
PirClient::EncodedQuery encode_random(
    const Embedding& emb, std::size_t tag_bits, std::size_t m,
    SplitMix64& gen) {
  bn::Rng64Adapter rng(gen);
  const PirClient client(emb, tag_bits);
  std::vector<std::size_t> wanted;
  for (std::size_t l = 0; l < m; ++l) wanted.push_back(gen.below(emb.n()));
  return client.encode(wanted, rng);
}

class PirBatchDiffTest : public ::testing::TestWithParam<Case> {
 protected:
  static constexpr std::size_t kN = 150;
  static constexpr std::size_t kTagBits = 96;
};

TEST_P(PirBatchDiffTest, FusedRespondMatchesLoopedRespondOne) {
  const auto [oracle, parallelism, m] = GetParam();
  SplitMix64 gen(0xba7c + m * 31 + parallelism);
  bn::Rng64Adapter rng(gen);
  TagDatabase db(kTagBits);
  for (std::size_t i = 0; i < kN; ++i) {
    db.add(bn::random_bits(rng, 1 + gen.below(kTagBits)));
  }
  const Embedding emb(kN);
  const PirServer server(db, emb, parallelism);
  const reference::PlaneLists lists = reference::build_plane_lists(db);

  const auto enc = encode_random(emb, kTagBits, m, gen);
  for (std::size_t tau = 0; tau < PirClient::kNumServers; ++tau) {
    const PirQuery& query = enc.queries[tau];
    PirResponse want;
    switch (oracle) {
      case Oracle::kNaive:
        want = reference::naive_respond(db, emb, query);
        break;
      case Oracle::kMatrix:
        want = reference::matrix_respond(lists, emb, query);
        break;
      case Oracle::kBitsliced:
        for (const auto& q : query.points) {
          want.entries.push_back(server.respond(PirQuery{{q}}).entries[0]);
        }
        break;
    }
    ice::testing::expect_same_response(server.respond(query), want, "tau=" + std::to_string(tau));
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (Oracle o : {Oracle::kNaive, Oracle::kMatrix, Oracle::kBitsliced}) {
    for (std::size_t parallelism : {std::size_t{1}, std::size_t{0},
                                    std::size_t{4}}) {
      for (std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{17},
                            std::size_t{64}}) {
        cases.push_back({o, parallelism, m});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PirBatchDiffTest, ::testing::ValuesIn(all_cases()),
    [](const auto& info) {
      return oracle_name(info.param.oracle) + "p" +
             std::to_string(info.param.parallelism) + "m" +
             std::to_string(info.param.m);
    });

// Tag widths K = 1 (one partial word), 65 (a full word plus one bit) and
// 1024 (the paper's |N|) over n = 150 rows (not a multiple of 64), with
// batches just below, at and above the engine's 16-point tile, at
// parallelism 1, 2 and hardware: fused == naive reference bit for bit.
class PirWidthDiffTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PirWidthDiffTest, FusedMatchesNaiveReference) {
  const std::size_t tag_bits = GetParam();
  constexpr std::size_t kN = 150;
  SplitMix64 gen(0x51de + tag_bits);
  bn::Rng64Adapter rng(gen);
  TagDatabase db(tag_bits);
  for (std::size_t i = 0; i < kN; ++i) {
    db.add(bn::random_bits(rng, 1 + gen.below(tag_bits)));
  }
  const Embedding emb(kN);
  for (std::size_t m : {std::size_t{15}, std::size_t{16}, std::size_t{17}}) {
    const auto enc = encode_random(emb, tag_bits, m, gen);
    for (std::size_t tau = 0; tau < PirClient::kNumServers; ++tau) {
      const PirQuery& query = enc.queries[tau];
      const PirResponse want = reference::naive_respond(db, emb, query);
      for (std::size_t parallelism : {std::size_t{1}, std::size_t{2},
                                      std::size_t{0}}) {
        const PirServer server(db, emb, parallelism);
        ice::testing::expect_same_response(server.respond(query), want,
                    "m=" + std::to_string(m) + " tau=" +
                        std::to_string(tau) + " p=" +
                        std::to_string(parallelism));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PirWidthDiffTest,
                         ::testing::Values(std::size_t{1}, std::size_t{65},
                                           std::size_t{1024}),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

// The sweep splits into at most one chunk per 1024 rows, so n = 150 above
// runs on one chunk at every parallelism. n = 4200 (four chunks' worth,
// not a multiple of 64 or 1024) takes the multi-chunk fold at parallelism
// 2, 4 and hardware: fused == naive reference bit for bit.
TEST(PirGrainTest, MultiChunkSweepMatchesNaiveReference) {
  constexpr std::size_t kN = 4200;
  constexpr std::size_t kTagBits = 65;
  SplitMix64 gen(0x6a1e);
  bn::Rng64Adapter rng(gen);
  TagDatabase db(kTagBits);
  for (std::size_t i = 0; i < kN; ++i) {
    db.add(bn::random_bits(rng, 1 + gen.below(kTagBits)));
  }
  const Embedding emb(kN);
  const auto enc = encode_random(emb, kTagBits, 17, gen);
  const PirResponse want = reference::naive_respond(db, emb, enc.queries[0]);
  for (std::size_t parallelism : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{0}}) {
    const PirServer server(db, emb, parallelism);
    ice::testing::expect_same_response(server.respond(enc.queries[0]), want,
                                       "p=" + std::to_string(parallelism));
  }
}

// The fused sweep must produce the same bits no matter which XOR kernel
// tier serves it (portable / AVX2 / AVX-512, as available).
TEST(PirBatchSimdTest, AllSupportedTiersProduceIdenticalResponses) {
  SplitMix64 gen(0x7135);
  bn::Rng64Adapter rng(gen);
  const std::size_t n = 120, k = 256;
  TagDatabase db(k);
  for (std::size_t i = 0; i < n; ++i) db.add(bn::random_bits(rng, k));
  const Embedding emb(n);
  const PirClient client(emb, k);
  std::vector<std::size_t> wanted = {3, 77, 3, 119, 0};
  const auto enc = client.encode(wanted, rng);

  const auto respond_at = [&](simd::XorTier tier) {
    PirResponse out;
    pir::detail::respond_into(db, emb, 1, simd::kernels_for(tier),
                              enc.queries[0], out);
    return out;
  };
  const PirResponse reference = respond_at(simd::XorTier::kPortable);
  ice::testing::expect_same_response(PirServer(db, emb).respond(enc.queries[0]),
                                     reference, "PirServer");
  for (simd::XorTier tier :
       {simd::XorTier::kAvx2, simd::XorTier::kAvx512}) {
    if (!simd::tier_supported(tier)) continue;
    ice::testing::expect_same_response(respond_at(tier), reference,
                                       simd::tier_name(tier));
  }
}

TEST(PirBatchTest, EmptyBatchYieldsEmptyResponse) {
  TagDatabase db(32);
  db.add(bn::BigInt(5));
  const Embedding emb(1);
  const PirServer server(db, emb);
  EXPECT_TRUE(server.respond(PirQuery{}).entries.empty());
}

TEST(PirBatchTest, AnyWrongDimensionPointRejected) {
  TagDatabase db(32);
  db.add(bn::BigInt(5));
  const Embedding emb(1);
  const PirServer server(db, emb);
  PirQuery query;
  query.points.emplace_back(emb.gamma());
  query.points.emplace_back(emb.gamma() + 1);  // second point malformed
  EXPECT_THROW(server.respond(query), ParamError);
}

}  // namespace
}  // namespace ice::pir
