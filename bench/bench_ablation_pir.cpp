// Ablation — PIR server evaluation strategies at scale.
//
// Extends Fig. 2 beyond the paper's n <= 200 to show where each evaluation
// strategy pays off: naive O(n K) recomputation, the paper's matrix
// representation (zero-coefficient skipping + per-query monomial reuse),
// and the production bitsliced engine (word-parallel accumulation over the
// K bitplanes). Naive and matrix are the single-threaded reference
// evaluators of reference/pir_reference.h; one query point each.
#include "support.h"

#include "pir/server.h"
#include "pir_reference.h"

namespace {

using namespace ice;
using namespace ice::bench;

constexpr std::size_t kTagBits = 1024;

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  print_header("Ablation — PIR evaluation strategy scaling (K = 1024)");
  std::printf("%-8s %12s %12s %14s %14s %12s\n", "n", "naive(ms)",
              "matrix(ms)", "bitsliced(ms)", "mtx speedup", "bits speedup");
  const std::vector<std::size_t> sweep =
      smoke ? std::vector<std::size_t>{50}
            : std::vector<std::size_t>{50, 100, 200, 500, 1000, 2000};
  for (std::size_t n : sweep) {
    pir::TagDatabase db(kTagBits);
    SplitMix64 gen(5 + n);
    bn::Rng64Adapter rng(gen);
    for (std::size_t i = 0; i < n; ++i) {
      db.add(bn::random_bits(rng, kTagBits));
    }
    const pir::Embedding emb(n);
    const pir::reference::PlaneLists lists =
        pir::reference::build_plane_lists(db);
    const pir::PirServer server(db, emb);
    SplitMix64 qgen(n);
    gf::GF4Vector q(emb.gamma());
    for (auto& v : q) v = gf::GF4(static_cast<std::uint8_t>(qgen.below(4)));
    const pir::PirQuery query{{q}};
    const double t_naive = 1e3 * time_median(1, [&] {
      (void)pir::reference::naive_respond_one(db, emb, q);
    });
    const double t_matrix = 1e3 * time_median(3, [&] {
      (void)pir::reference::matrix_respond_one(lists, emb, q);
    });
    const double t_bits =
        1e3 * time_median(3, [&] { (void)server.respond(query); });
    std::printf("%-8zu %12.1f %12.2f %14.3f %13.0fx %11.0fx\n", n, t_naive,
                t_matrix, t_bits, t_naive / t_matrix, t_naive / t_bits);
  }
  std::printf("\nTakeaway: the paper's matrix representation gives the "
              "first ~order of magnitude;\nbitslicing the bitplane loop "
              "gives another one on top.\n");
  return 0;
}
