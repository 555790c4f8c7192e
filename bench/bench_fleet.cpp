// Online/offline audit split + fleet-scale scheduling (PR 8).
//
// Two measurements land in BENCH_fleet.json:
//
//  1. fleet_online_* — the TPA's per-round challenge phase, cold vs
//     pool-served, at the paper's 1024-bit modulus. The cold phase is what
//     every audit paid before the split: draw (e, s), the g^s fixed-base
//     power, and the coefficient expansion of e. The online phase is a
//     ChallengePool::try_acquire of a bundle minted offline by the exact
//     same code. The acceptance bar is online >= 3x faster; in practice
//     the dequeue is several orders of magnitude faster.
//
//  2. fleet_sched_* — full-protocol fleet rounds (sim/simulator.h
//     run_fleet_simulation) at 100..1000 edges with the offline split on:
//     audits/s, per-audit latency, pool hit rate, and the corruption
//     detection lag vs the scheduler's staleness bound.
#include "support.h"

#include "crypto/prf.h"
#include "ice/offline.h"
#include "sim/simulator.h"

namespace {

using namespace ice;
using namespace ice::bench;

struct OnlineCell {
  double cold_us = 0.0;    // make_challenge + coefficient expansion
  double online_us = 0.0;  // pool dequeue of an offline-minted bundle
  double speedup = 0.0;
  double hit_rate = 0.0;
};

OnlineCell measure_online_split(std::size_t modulus_bits,
                                std::size_t coeff_count, int reps,
                                std::uint64_t seed) {
  const proto::KeyPair keys = bench_keypair(modulus_bits, seed);
  proto::ProtocolParams params;
  params.modulus_bits = keys.pk.modulus_bits();

  SplitMix64 gen(seed ^ 0x0ff1);
  bn::Rng64Adapter rng(gen);
  OnlineCell cell;

  // Cold phase, per audit: the challenge draws + the rungs + expansion.
  // The ladder itself is built once per key, at set_key.
  const auto ladder = std::make_shared<const proto::ChallengeLadder>(
      keys.pk, params);
  {
    proto::ChallengeSecret secret;
    Stopwatch sw;
    for (int i = 0; i < reps; ++i) {
      const proto::Challenge chal =
          proto::make_challenge(*ladder, params, rng, secret);
      (void)crypto::CoefficientPrf::expand(chal.e, params.coeff_bits,
                                           coeff_count);
    }
    cell.cold_us = sw.seconds() * 1e6 / reps;
  }

  // Online phase: bundles minted ahead of time (that cost is the offline
  // half — idle cycles, not the audit path), then timed dequeues.
  {
    proto::OfflineConfig config;
    config.enabled = true;
    config.pool_capacity = static_cast<std::size_t>(reps);
    config.coeff_count = coeff_count;
    proto::ChallengePool pool(config);
    pool.rekey(ladder, params);
    const std::uint64_t gen_now = pool.generation();
    for (int i = 0; i < reps; ++i) {
      proto::ChallengeBundle bundle =
          proto::make_bundle(*ladder, params, rng, coeff_count);
      bundle.generation = gen_now;
      if (!pool.offer(std::move(bundle))) {
        std::fprintf(stderr, "FATAL: prefill offer rejected\n");
        std::exit(1);
      }
    }
    proto::ChallengeBundle out;
    Stopwatch sw;
    for (int i = 0; i < reps; ++i) {
      if (!pool.try_acquire(out)) {
        std::fprintf(stderr, "FATAL: prefilled pool missed\n");
        std::exit(1);
      }
    }
    cell.online_us = sw.seconds() * 1e6 / reps;
    cell.hit_rate = pool.stats().hit_rate();
  }
  cell.speedup = cell.online_us > 0.0 ? cell.cold_us / cell.online_us : 0.0;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);

  // --- 1. Online vs cold challenge phase -------------------------------
  const std::size_t online_bits = smoke ? 256 : 1024;
  const std::size_t coeff_count = smoke ? 8 : 64;
  const int online_reps = smoke ? 4 : 256;
  print_header("Online/offline split: TPA challenge phase");
  std::printf("%-10s %-8s %12s %12s %10s %9s\n", "modulus", "coeffs",
              "cold(us)", "online(us)", "speedup", "hit rate");
  const OnlineCell online =
      measure_online_split(online_bits, coeff_count, online_reps, 7);
  std::printf("%-10zu %-8zu %12.2f %12.3f %9.0fx %9.2f\n", online_bits,
              coeff_count, online.cold_us, online.online_us, online.speedup,
              online.hit_rate);
  if (!smoke) {
    std::ostringstream body;
    body << "{\"modulus_bits\": " << online_bits
         << ", \"coeff_count\": " << coeff_count << ", \"reps\": "
         << online_reps << ", \"cold_us\": " << online.cold_us
         << ", \"online_us\": " << online.online_us
         << ", \"online_speedup\": " << online.speedup
         << ", \"pool_hit_rate\": " << online.hit_rate << "}";
    emit_json("fleet_online_phase", body.str(), "BENCH_fleet.json");
  }

  // --- 2. Fleet rounds through the scheduler ---------------------------
  const std::vector<std::size_t> fleet_sizes =
      smoke ? std::vector<std::size_t>{6}
            : std::vector<std::size_t>{100, 1000};
  print_header("Fleet scheduler: continuous audit rounds (offline split on)");
  std::printf("%-7s %-7s %-7s %10s %12s %12s %10s %7s %7s\n", "edges",
              "rounds", "budget", "audits/s", "mean(ms)", "p95(ms)",
              "hit rate", "inj", "det");
  const proto::KeyPair fleet_keys = bench_keypair(256, 11);
  for (std::size_t edges : fleet_sizes) {
    sim::FleetConfig config;
    config.edges = edges;
    config.n_blocks = smoke ? 24 : 96;
    config.block_bytes = smoke ? 64 : 256;
    config.blocks_per_edge = smoke ? 3 : 8;
    config.rounds = smoke ? 3 : (edges >= 1000 ? 8 : 16);
    config.round_budget = smoke ? 2 : (edges >= 1000 ? 64 : 16);
    config.corrupt_every = 2;
    const sim::FleetReport report =
        sim::run_fleet_simulation(config, fleet_keys, 29 + edges);
    std::printf("%-7zu %-7zu %-7zu %10.1f %12.3f %12.3f %10.2f %7zu %7zu\n",
                edges, report.rounds, config.round_budget,
                report.audits_per_second(), report.audit_seconds_mean * 1e3,
                report.audit_seconds_p95 * 1e3, report.pool_hit_rate(),
                report.corruptions_injected, report.corruptions_detected);
    if (!smoke) {
      std::ostringstream body;
      body << "{\"edges\": " << edges << ", \"rounds\": " << report.rounds
           << ", \"round_budget\": " << config.round_budget
           << ", \"audits\": " << report.audits
           << ", \"audits_per_s\": " << report.audits_per_second()
           << ", \"audit_mean_ms\": " << report.audit_seconds_mean * 1e3
           << ", \"audit_p95_ms\": " << report.audit_seconds_p95 * 1e3
           << ", \"pool_hit_rate\": " << report.pool_hit_rate()
           << ", \"corruptions_injected\": " << report.corruptions_injected
           << ", \"corruptions_detected\": " << report.corruptions_detected
           << ", \"max_detection_lag_rounds\": "
           << report.max_detection_lag_rounds
           << ", \"staleness_bound\": " << report.staleness_bound << "}";
      std::ostringstream section;
      section << "fleet_sched_e" << edges;
      emit_json(section.str(), body.str(), "BENCH_fleet.json");
    }
  }
  std::printf(
      "\nTakeaway: with challenge material minted offline, the TPA's online "
      "challenge phase\ncollapses to a pool dequeue, and the scheduler keeps "
      "detection lag within the\nstaleness bound across the whole fleet.\n");
  return 0;
}
