// Fleet-scale TPA audit scheduler.
//
// A production TPA is not asked to audit one edge; it watches a fleet of
// hundreds to thousands of edge caches and must decide, round after round,
// WHICH edges to spend its audit budget on. This scheduler prioritizes by
// two signals:
//
//   * staleness — rounds since the edge was last audited. Every edge's
//     staleness grows by one per round until an audit resets it, so
//     integrity guarantees stay fleet-wide instead of clustering on a few
//     hot edges.
//   * risk — an exponentially decayed suspicion score. A failed audit
//     (or an external signal via note_risk: SMART warnings, crash loops,
//     the corruption classes of mec/corruption.h) spikes it; every clean
//     audit halves it.
//
// priority = staleness_weight * staleness + risk_weight * risk, highest
// first. On top of the scored selection, any edge whose staleness reaches
// max_staleness is FORCE-included in the next round even beyond the budget.
// That forcing is what turns the heuristic into guarantees:
//
//   * starvation-freedom — no edge's staleness ever exceeds max_staleness,
//     whatever the risk distribution looks like;
//   * bounded detection — a corruption on any edge is audited (and, since
//     the protocol has no false negatives, detected) within max_staleness
//     rounds of appearing.
//
// tests/scenarios/fleet_scheduler_test.cpp pins both bounds; sim/simulator.h
// drives a full protocol fleet through this scheduler and
// bench/bench_fleet.cpp measures rounds at 100-1000 edges.
//
// Single-threaded by design: one scheduler instance belongs to the
// verifier's control loop. The audits it plans run in parallel; the
// planning itself is microseconds of arithmetic over E entries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ice::proto {

struct FleetSchedulerConfig {
  /// Scored audits per round (forced inclusions may exceed this).
  std::size_t round_budget = 8;
  double staleness_weight = 1.0;
  double risk_weight = 4.0;
  /// Risk added by a failed audit (and the default for note_risk).
  double failure_risk = 8.0;
  /// Multiplicative risk decay per clean audit of that edge.
  double risk_decay = 0.5;
  double risk_cap = 16.0;
  /// Forced-inclusion threshold. 0 = auto: 2 * ceil(edges / round_budget),
  /// i.e. twice the period of a plain round-robin sweep — enough slack for
  /// risk-driven scheduling to matter, small enough that the detection
  /// bound stays within a handful of sweeps.
  std::size_t max_staleness = 0;
};

class FleetScheduler {
 public:
  explicit FleetScheduler(const FleetSchedulerConfig& config = {});

  /// Registers an edge. New edges start one sweep short of forced
  /// inclusion, so a freshly joined edge is audited within one round_budget
  /// period without instantly preempting the whole round.
  void add_edge(std::uint32_t edge_id);

  /// External suspicion signal (delta <= 0 uses config.failure_risk).
  /// Unknown edges are ignored.
  void note_risk(std::uint32_t edge_id, double delta = 0.0);

  /// Plans the next round: the round_budget highest-priority edges plus
  /// every edge at or past the forced-staleness threshold. Deterministic
  /// (ties break toward the lower edge id). Call record() for each audit
  /// outcome, then finish_round().
  [[nodiscard]] std::vector<std::uint32_t> plan_round();

  /// Reports one audit outcome from the current round: resets the edge's
  /// staleness, decays (pass) or spikes (fail) its risk.
  void record(std::uint32_t edge_id, bool pass);

  /// Closes the round: every edge NOT audited this round ages by one.
  void finish_round();

  [[nodiscard]] std::size_t edges() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  /// The forced-inclusion threshold in effect (auto-derived when the
  /// config said 0). No edge's staleness ever exceeds this.
  [[nodiscard]] std::size_t staleness_bound() const;
  [[nodiscard]] std::size_t staleness(std::uint32_t edge_id) const;
  [[nodiscard]] double risk(std::uint32_t edge_id) const;

 private:
  struct Entry {
    std::uint32_t edge_id = 0;
    std::size_t staleness = 0;
    double risk = 0.0;
    bool audited_this_round = false;
  };

  [[nodiscard]] double priority(const Entry& e) const;
  [[nodiscard]] const Entry* find(std::uint32_t edge_id) const;
  [[nodiscard]] Entry* find(std::uint32_t edge_id);

  FleetSchedulerConfig config_;
  std::vector<Entry> entries_;  // sorted by edge_id (binary-searchable)
  std::uint64_t rounds_ = 0;
};

}  // namespace ice::proto
