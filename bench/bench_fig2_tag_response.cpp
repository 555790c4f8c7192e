// Fig. 2 — Computation cost on the TPA: Tag Response.
//
// Paper setup: the TPA answers a private tag query for |S_j| indexes, with
// and without the matrix representation of the polynomials. Fig. 2a sweeps
// |S_j| = 1..10 at fixed n; Fig. 2b sweeps n at fixed |S_j|.
// Expected shape: matrix representation is far cheaper than the naive
// micro benchmark; time grows with both |S_j| and n.
#include "support.h"

#include <thread>

#include "pir/client.h"
#include "pir/server.h"
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

/// The production engine a TPA runs per shard, at `parallelism` workers
/// (0 = hardware threads).
double bitsliced_seconds(const pir::TagDatabase& db, const pir::Embedding& emb,
                         const pir::PirQuery& query, std::size_t parallelism,
                         int reps) {
  const pir::PirServer server(db, emb, parallelism);
  return time_median(reps, [&] { (void)server.respond(query); });
}

void run_sweep(const char* label, std::size_t n,
               const std::vector<std::size_t>& sizes, bool sweep_n) {
  std::printf("\n%s\n", label);
  std::printf("%-8s %-8s %14s %14s %14s %9s\n", sweep_n ? "n" : "|S_j|", "",
              "naive (ms)", "matrix (ms)", "bitsliced(ms)", "speedup");
  for (std::size_t v : sizes) {
    const std::size_t cur_n = sweep_n ? v : n;
    const std::size_t s_j = sweep_n ? 5 : v;
    const auto tags = synthetic_tags(cur_n, kTagBits, 7 + v);
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
    const double t_bits = bitsliced_seconds(db, emb, query, 0, 3);
    std::printf("%-8zu %-8s %14.2f %14.2f %14.3f %8.1fx\n", v, "",
                t_naive * 1e3, t_matrix * 1e3, t_bits * 1e3,
                t_naive / t_matrix);
  }
}

// Thread sweep: one bitsliced tag response at |S_j| = 5 and parallelism
// 1/2/4/hw, at n = 150 (the Fig. 2 size) and at the larger n where row
// sharding starts to pay (kMinRowsPerChunk in pir/server.cpp is read off
// this sweep).
// Each cell is the median of 101 responses, interleaved across thread
// counts so host drift hits every column alike. The responses are
// bit-identical at every setting (PirWidthDiffTest, ParallelDiffTest).
// The naive and matrix references are single-threaded by design.
void run_thread_sweep() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> threads{1, 2, 4};
  if (hw != 1 && hw != 2 && hw != 4) threads.push_back(hw);

  constexpr std::size_t kSj = 5;
  constexpr int kReps = 101;
  const std::vector<std::size_t> ns{150, 600, 1200, 2400, 4800};
  std::printf("\nThread sweep (|S_j| = %zu, hardware threads: %zu; median "
              "of %d, ms)\n%-8s", kSj, hw, kReps, "n");
  for (std::size_t t : threads) std::printf(" %9zu thr", t);
  std::printf("\n");
  std::vector<std::vector<double>> seconds;  // [n][thread]
  for (std::size_t n : ns) {
    const auto tags = synthetic_tags(n, kTagBits, 77);
    pir::TagDatabase db(kTagBits);
    for (const auto& t : tags) db.add(t);
    const pir::Embedding emb(n);
    const pir::PirQuery query = make_query(emb, kSj, 31);
    std::vector<pir::PirServer> servers;
    for (std::size_t t : threads) servers.emplace_back(db, emb, t);
    std::vector<std::vector<double>> samples(threads.size());
    pir::PirResponse out;
    for (int r = 0; r < kReps; ++r) {
      for (std::size_t i = 0; i < servers.size(); ++i) {
        Stopwatch sw;
        servers[i].respond_into(query, out);
        samples[i].push_back(sw.seconds());
      }
    }
    std::printf("%-8zu", n);
    seconds.emplace_back();
    for (auto& s : samples) {
      std::sort(s.begin(), s.end());
      seconds.back().push_back(s[s.size() / 2]);
      std::printf(" %13.3f", seconds.back().back() * 1e3);
    }
    std::printf("\n");
  }

  std::string body;
  body += "{\"hardware_concurrency\": " + std::to_string(hw);
  body += ", \"n\": " + std::to_string(ns[0]);
  body += ", \"s_j\": " + std::to_string(kSj);
  body += ", \"threads\": " + json_array(threads);
  body += ", \"bitsliced_seconds\": " + json_array(seconds[0]);
  body += ", \"grain_n\": " + json_array(ns);
  body += ", \"grain_seconds\": [";
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    body += (i ? ", " : "") + json_array(seconds[i]);
  }
  body += "]}";
  emit_json("fig2_tag_response", body, "BENCH_parallel.json");
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
