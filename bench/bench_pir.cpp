// Fused multi-query PIR evaluation engine vs answering the points one by
// one.
//
// For each (n, m) cell this measures
//   loop      — m single-point respond() calls (the database swept m
//               times),
//   fused     — one m-point respond() pass at the best SIMD tier this CPU
//               has,
//   fused/u64 — the same fused pass with the portable kernel forced,
// and reports speedup plus the tag bytes each variant streams through the
// accumulators. Results land in BENCH_pir.json for EXPERIMENTS.md.
#include "support.h"

#include "common/simd.h"
#include "pir/client.h"
#include "pir/server.h"

namespace {

using namespace ice;
using namespace ice::bench;

struct Cell {
  double loop_ms;
  double fused_ms;
  double fused_portable_ms;
};

pir::PirQuery make_query(const pir::Embedding& emb, std::size_t n,
                         std::size_t tag_bits, std::size_t m,
                         std::uint64_t seed) {
  SplitMix64 gen(seed);
  bn::Rng64Adapter rng(gen);
  const pir::PirClient client(emb, tag_bits);
  std::vector<std::size_t> wanted(m);
  for (auto& idx : wanted) idx = gen.below(n);
  return client.encode(wanted, rng).queries[0];
}

Cell measure(const pir::TagDatabase& db, const pir::Embedding& emb,
             const pir::PirServer& server, const pir::PirQuery& query,
             int reps) {
  std::vector<pir::PirQuery> singles;
  for (const auto& q : query.points) singles.push_back(pir::PirQuery{{q}});
  Cell cell{};
  cell.loop_ms = 1e3 * time_median(reps, [&] {
    for (const auto& single : singles) (void)server.respond(single);
  });
  const simd::XorKernels& portable =
      simd::kernels_for(simd::XorTier::kPortable);
  cell.fused_portable_ms = 1e3 * time_median(reps, [&] {
    pir::PirResponse out;
    pir::detail::respond_into(db, emb, /*parallelism=*/1, portable, query,
                              out);
  });
  cell.fused_ms =
      1e3 * time_median(reps, [&] { (void)server.respond(query); });
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  const std::size_t tag_bits = smoke ? 64 : 1024;
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{60}
            : std::vector<std::size_t>{1000, 10000};
  const std::vector<std::size_t> batch =
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 4, 16, 64};

  print_header("Fused multi-query PIR evaluation (K = tag bits)");
  std::printf("XOR kernel: %s (best supported tier)\n",
              simd::tier_name(simd::best_supported_tier()));
  std::printf("%-7s %-4s %12s %12s %14s %9s %9s %12s\n", "n", "m",
              "loop(ms)", "fused(ms)", "fused/u64(ms)", "speedup", "simd x",
              "swept(MB)");

  for (std::size_t n : sizes) {
    pir::TagDatabase db(tag_bits);
    for (const auto& t : synthetic_tags(n, tag_bits, 7 + n)) db.add(t);
    const pir::Embedding emb(n);
    const pir::PirServer server(db, emb, /*parallelism=*/1);
    const double row_mb =
        static_cast<double>(n * db.words_per_tag() * 8) / (1024.0 * 1024.0);

    for (std::size_t m : batch) {
      const pir::PirQuery query = make_query(emb, n, tag_bits, m, 11 * n + m);
      const Cell cell = measure(db, emb, server, query, smoke ? 1 : 5);
      const double speedup = cell.loop_ms / cell.fused_ms;
      const double simd_gain = cell.fused_portable_ms / cell.fused_ms;
      std::printf("%-7zu %-4zu %12.3f %12.3f %14.3f %8.2fx %8.2fx "
                  "%6.1f->%4.1f\n",
                  n, m, cell.loop_ms, cell.fused_ms, cell.fused_portable_ms,
                  speedup, simd_gain, static_cast<double>(m) * row_mb,
                  row_mb);
      if (!smoke) {
        std::ostringstream body;
        body << "{\"tag_bits\": " << tag_bits << ", \"n\": " << n
             << ", \"m\": " << m << ", \"loop_ms\": " << cell.loop_ms
             << ", \"fused_ms\": " << cell.fused_ms
             << ", \"fused_portable_ms\": " << cell.fused_portable_ms
             << ", \"speedup\": " << speedup
             << ", \"portable_over_simd\": " << simd_gain
             << ", \"swept_mb_loop\": " << static_cast<double>(m) * row_mb
             << ", \"swept_mb_fused\": " << row_mb << ", \"kernel\": \""
             << simd::tier_name(simd::best_supported_tier()) << "\"}";
        std::ostringstream section;
        section << "pir_bitsliced_n" << n << "_m" << m;
        emit_json(section.str(), body.str(), "BENCH_pir.json");
      }
    }
  }
  std::printf("\nTakeaway: one database sweep with m-way accumulation "
              "replaces m sweeps;\nthe SIMD XOR kernels stack on top.\n");
  return 0;
}
