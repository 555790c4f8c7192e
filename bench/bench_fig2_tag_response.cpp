// Fig. 2 — Computation cost on the TPA: Tag Response.
//
// Paper setup: the TPA answers a private tag query for |S_j| indexes, with
// and without the matrix representation of the polynomials. Fig. 2a sweeps
// |S_j| = 1..10 at fixed n; Fig. 2b sweeps n at fixed |S_j|.
// Expected shape: matrix representation is far cheaper than the naive
// micro benchmark; time grows with both |S_j| and n.
#include "support.h"

#include <thread>

#include "ice/tag_store.h"
#include "pir/client.h"
#include "pir_reference.h"

namespace {

using namespace ice;
using namespace ice::bench;

constexpr std::size_t kTagBits = 1024;  // |N| in the paper

pir::PirQuery make_query(const pir::Embedding& emb, std::size_t s_j,
                         std::uint64_t seed) {
  SplitMix64 gen(seed);
  bn::Rng64Adapter rng(gen);
  const pir::PirClient client(emb, kTagBits);
  std::vector<std::size_t> wanted;
  for (std::size_t l = 0; l < s_j; ++l) wanted.push_back(gen.below(emb.n()));
  return client.encode(wanted, rng).queries[0];
}

double store_response_seconds(const proto::TagStore& store,
                              const pir::PirQuery& query, int reps) {
  return time_median(reps, [&] { (void)store.respond(query); });
}

void run_sweep(const char* label, std::size_t n,
               const std::vector<std::size_t>& sizes, bool sweep_n) {
  std::printf("\n%s\n", label);
  std::printf("%-8s %-8s %14s %14s %14s %9s\n", sweep_n ? "n" : "|S_j|", "",
              "naive (ms)", "matrix (ms)", "bitsliced(ms)", "speedup");
  for (std::size_t v : sizes) {
    const std::size_t cur_n = sweep_n ? v : n;
    const std::size_t s_j = sweep_n ? 5 : v;
    proto::ProtocolParams params;
    params.modulus_bits = kTagBits;
    const auto tags = synthetic_tags(cur_n, kTagBits, 7 + v);
    const proto::TagStore bits(params, tags);
    pir::TagDatabase db(kTagBits);
    for (const auto& t : tags) db.add(t);
    const pir::Embedding emb(cur_n);
    const pir::reference::PlaneLists lists =
        pir::reference::build_plane_lists(db);  // TPASetup, untimed here
    const pir::PirQuery query = make_query(emb, s_j, 11 + v);
    const double t_naive = time_median(
        1, [&] { (void)pir::reference::naive_respond(db, emb, query); });
    const double t_matrix = time_median(
        3, [&] { (void)pir::reference::matrix_respond(lists, emb, query); });
    const double t_bits = store_response_seconds(bits, query, 3);
    std::printf("%-8zu %-8s %14.2f %14.2f %14.3f %8.1fx\n", v, "",
                t_naive * 1e3, t_matrix * 1e3, t_bits * 1e3,
                t_naive / t_matrix);
  }
}

// Thread sweep: one bitsliced tag response (n = 150, |S_j| = 5) at
// parallelism 1/2/4/hw. Tag rows shard across the pool and the responses
// are bit-identical at every setting (tests/ice/parallel_diff_test.cpp).
// The naive and matrix references are single-threaded by design.
void run_thread_sweep() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> threads{1, 2, 4};
  if (hw != 1 && hw != 2 && hw != 4) threads.push_back(hw);

  constexpr std::size_t kN = 150;
  constexpr std::size_t kSj = 5;
  const auto tags = synthetic_tags(kN, kTagBits, 77);
  const pir::Embedding emb(kN);
  const pir::PirQuery query = make_query(emb, kSj, 31);

  std::printf("\nThread sweep (n = %zu, |S_j| = %zu, hardware threads: "
              "%zu)\n", kN, kSj, hw);
  std::printf("%-8s %14s\n", "threads", "bitsliced(ms)");
  std::vector<double> bits_s;
  for (std::size_t t : threads) {
    proto::ProtocolParams params;
    params.modulus_bits = kTagBits;
    params.parallelism = t;
    const proto::TagStore bits(params, tags);
    bits_s.push_back(store_response_seconds(bits, query, 3));
    std::printf("%-8zu %14.3f\n", t, bits_s.back() * 1e3);
  }

  std::string body;
  body += "{\"hardware_concurrency\": " + std::to_string(hw);
  body += ", \"n\": " + std::to_string(kN);
  body += ", \"s_j\": " + std::to_string(kSj);
  body += ", \"threads\": " + json_array(threads);
  body += ", \"bitsliced_seconds\": " + json_array(bits_s);
  body += "}";
  emit_parallel_json("fig2_tag_response", body);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  print_header(
      "Fig. 2 — TPA tag response time, with vs without matrix repr.");
  std::printf("(K = %zu tag bits; 'naive' recomputes every monomial per "
              "bitplane,\n 'matrix' is the paper's representation (both "
              "single-threaded references),\n 'bitsliced' is the production "
              "engine)\n",
              std::size_t{kTagBits});

  if (smoke) {
    // Tiny sweep through the same measurement code; no JSON (the thread
    // sweep would overwrite real BENCH_parallel.json numbers).
    run_sweep("Smoke: n = 30, |S_j| = 2", 30, {2}, /*sweep_n=*/false);
    return 0;
  }

  // Fig. 2a: vary |S_j| at n = 100.
  run_sweep("Fig. 2a: n = 100, |S_j| = 1..10", 100,
            {1, 2, 4, 6, 8, 10}, /*sweep_n=*/false);

  // Fig. 2b: vary n at |S_j| = 5.
  run_sweep("Fig. 2b: |S_j| = 5, n = 40..200", 0,
            {40, 80, 120, 160, 200}, /*sweep_n=*/true);

  std::printf("\nShape check vs paper: matrix << naive; both grow with "
              "|S_j| and n.\n");

  run_thread_sweep();
  return 0;
}
