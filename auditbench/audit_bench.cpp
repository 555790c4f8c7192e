// ICE audit benchmark driver.
//
// Runs complete ICE-basic and ICE-batch audits through the public
// UserClient API against real TpaService / EdgeService / CspService
// instances. User<->TPA and TPA<->edge (and edge->TPA) traffic crosses
// loopback TCP through the epoll reactor, the paper's WAN links; user<->edge
// and edge<->CSP stay in-memory channels, the paper's fast local links.
// Every client is a closed loop: it waits for a verdict before starting its
// next audit. Inputs (blocks, S_j, update targets and contents) come from
// --seed; the program only ever sees the generated inputs.
//
//   audit_bench --workload basic-pir --seed 1 --seconds 12 [--trace 1
//               --trace-out spans.jsonl] [--tiny] [--audits N]
//
// Prints one "name value unit" line per metric, then one JSON object on the
// last line. Exits 1 when a correctness gate fails, 2 on bad arguments.
// auditbench/run.py builds this binary and wraps its output; see
// auditbench/README.md for the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "crypto/csprng.h"
#include "ice/batch.h"
#include "ice/csp_service.h"
#include "ice/edge_service.h"
#include "ice/keys.h"
#include "ice/protocol.h"
#include "ice/shard_audit.h"
#include "ice/tag.h"
#include "ice/tpa_service.h"
#include "ice/user_client.h"
#include "mec/block_store.h"
#include "mec/corruption.h"
#include "net/channel.h"
#include "net/tcp.h"
#include "../bench/support.h"
#include "trace.h"

namespace {

using namespace ice;
using auditbench::AuditCursor;
using auditbench::SpanKind;
using auditbench::Tracer;

struct Workload {
  const char* name;
  bool batch;               // ICE-batch over all edges, else ICE-basic
  std::size_t clients;      // concurrent closed-loop user devices
  std::size_t edges;
  std::size_t n;            // blocks (= tags at each TPA)
  std::size_t block_bytes;
  std::size_t set_size;     // |S_j|, also the edge cache capacity
  std::size_t shard_budget; // TPA rows per shard, 0 = monolithic
  std::size_t updates;      // k blocks written per commit round
};

// Why each workload exists is recorded in auditbench/README.md.
constexpr Workload kWorkloads[] = {
    {"basic-pir", false, 1, 1, 32768, 256, 64, 0, 1},
    {"basic-proof", false, 2, 2, 1024, 16384, 16, 0, 1},
    {"batch-churn", true, 1, 4, 8192, 1024, 16, 1024, 4},
};

// The same shapes shrunk for the count self-check (auditbench/test_counts.py).
constexpr Workload kTinyWorkloads[] = {
    {"basic-pir", false, 1, 1, 512, 256, 8, 0, 1},
    {"basic-proof", false, 2, 2, 64, 1024, 4, 0, 1},
    {"batch-churn", true, 1, 4, 256, 256, 4, 64, 2},
};

// Commit rounds run after the audit window on the ICE-basic workloads, so
// every workload reports update and epoch-close latency: at least this many
// rounds, and for at least a fifth of the window (the calls are sub-ms on
// small blocks, so their medians need many samples).
constexpr std::size_t kMinCommitRounds = 16;
// Direct-call repetitions of the planner/decode/repack probe when tracing.
constexpr std::size_t kProbeReps = 20;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out = "auditbench-spans.jsonl";
  std::size_t min_audits = 100;
  std::size_t fixed_audits = 0;  // > 0: exactly this many per client, untimed
  bool tiny = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "audit_bench: %s\nusage: audit_bench --workload "
               "basic-pir|basic-proof|batch-churn --seed N --seconds S "
               "[--trace 0|1] [--trace-out FILE] "
               "[--min-audits N] [--audits N] [--tiny]\n",
               why.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (a == "--trace-out") {
        o.trace_out = value();
      } else if (a == "--min-audits") {
        o.min_audits = std::stoul(value());
      } else if (a == "--audits") {
        o.fixed_audits = std::stoul(value());
      } else if (a == "--tiny") {
        o.tiny = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be > 0");
  return o;
}

// --- Inputs ----------------------------------------------------------------

// The user's side of the inputs. The file itself (a mec::BlockStore) goes to
// the CSP whole; the user keeps these copies of its blocks.
struct Inputs {
  std::vector<Bytes> blocks;
  std::vector<std::vector<std::size_t>> sets;  // S_j per edge, sorted
  std::vector<std::size_t> cached;             // union of the S_j
};

// `count` distinct indexes below n, none in `exclude`, one from each of
// `count` equal strata of [0, n): every run spreads its points over the file
// (and over the shards) the same way, so seeds change which blocks are
// audited but not how much work an audit is.
std::vector<std::size_t> draw_stratified(std::size_t count, std::size_t n,
                                         const std::set<std::size_t>& exclude,
                                         SplitMix64& rng) {
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t lo = k * n / count;
    const std::size_t width = (k + 1) * n / count - lo;
    std::size_t i = lo + rng() % width;
    while (exclude.contains(i)) i = lo + (i - lo + 1) % width;
    out.push_back(i);
  }
  return out;
}

Inputs make_inputs(const Workload& w, const mec::BlockStore& file,
                   std::uint64_t seed) {
  Inputs in;
  in.blocks.reserve(w.n);
  for (std::size_t i = 0; i < w.n; ++i) in.blocks.push_back(file.block(i));
  SplitMix64 rng(seed ^ 0x5e75e75e75e75e75ULL);
  std::set<std::size_t> taken;
  for (std::size_t j = 0; j < w.edges; ++j) {
    std::vector<std::size_t> s;
    std::size_t fresh = w.set_size;
    if (w.batch && j > 0) {
      // Overlapping caches: half of the previous edge's set plus as many
      // blocks no edge holds yet, so the union has a fixed size.
      std::vector<std::size_t> prev = in.sets[j - 1];
      std::shuffle(prev.begin(), prev.end(), rng);
      s.assign(prev.begin(), prev.begin() + w.set_size / 2);
      fresh -= s.size();
    }
    for (std::size_t i : draw_stratified(fresh, w.n, taken, rng)) {
      s.push_back(i);
    }
    std::sort(s.begin(), s.end());
    taken.insert(s.begin(), s.end());
    in.sets.push_back(std::move(s));
  }
  in.cached = proto::union_of_sets(in.sets);
  return in;
}

Bytes random_block(std::size_t bytes, SplitMix64& rng) {
  Bytes b(bytes);
  for (std::size_t i = 0; i < bytes; i += 8) {
    const std::uint64_t v = rng();
    for (std::size_t k = 0; k < 8 && i + k < bytes; ++k) {
      b[i + k] = static_cast<std::uint8_t>(v >> (8 * k));
    }
  }
  return b;
}

// --- The deployment ---------------------------------------------------------

// Members are declared so that destruction runs users -> servers ->
// channels -> handlers: nothing is destroyed while something that calls it
// is still alive.
struct System {
  explicit System(Tracer* t) : tracer(t) {}

  Tracer* tracer;
  proto::ProtocolParams params;
  proto::KeyPair keys;
  double taggen_s = 0;
  std::vector<std::unique_ptr<AuditCursor>> cursors;  // per client

  std::unique_ptr<proto::CspService> csp;
  std::vector<std::unique_ptr<proto::TpaService>> tpas;
  std::vector<std::unique_ptr<proto::EdgeService>> edges;
  std::vector<std::unique_ptr<net::RpcHandler>> traced_handlers;

  std::vector<std::unique_ptr<net::RpcChannel>> raw_channels;
  std::vector<std::unique_ptr<net::RpcChannel>> traced_channels;
  // Raw channels of the audited links (user<->TPA, TPA<->edge, user<->edge,
  // edge->TPA); wire_bytes_per_audit sums their ChannelStats.
  std::vector<net::RpcChannel*> counted;
  std::size_t user_connections = 0;
  std::size_t tcp_connections = 0;

  std::vector<std::unique_ptr<net::TcpServer>> servers;

  std::vector<std::unique_ptr<proto::UserClient>> users;
  // Channels as each client uses them: [client][tpa], [client][edge].
  std::vector<std::vector<net::RpcChannel*>> user_tpa;
  std::vector<std::vector<net::RpcChannel*>> user_edge;

  // The handler a service is reached through: a timing decorator when
  // tracing, the service itself otherwise.
  net::RpcHandler& serve_as(net::RpcHandler& service, const std::string& name) {
    if (tracer == nullptr) return service;
    traced_handlers.push_back(
        std::make_unique<auditbench::TracedHandler>(*tracer, name, service));
    return *traced_handlers.back();
  }

  std::uint16_t listen(net::RpcHandler& handler) {
    servers.push_back(std::make_unique<net::TcpServer>(handler));
    return servers.back()->port();
  }

  // Takes ownership of a raw channel; returns what callers should use.
  net::RpcChannel& own(std::unique_ptr<net::RpcChannel> channel,
                       const std::string& name, bool audited,
                       const AuditCursor* owner = nullptr) {
    net::RpcChannel* raw = channel.get();
    raw_channels.push_back(std::move(channel));
    if (audited) counted.push_back(raw);
    if (tracer == nullptr) return *raw;
    traced_channels.push_back(std::make_unique<auditbench::TracedChannel>(
        *tracer, name, *raw, owner));
    return *traced_channels.back();
  }

  net::RpcChannel& connect(std::uint16_t port, const std::string& name,
                           bool audited, const AuditCursor* owner = nullptr) {
    ++tcp_connections;
    return own(std::make_unique<net::TcpChannel>("127.0.0.1", port), name,
               audited, owner);
  }

  [[nodiscard]] std::uint64_t wire_bytes() const {
    std::uint64_t total = 0;
    for (const net::RpcChannel* ch : counted) {
      total += ch->stats().bytes_sent + ch->stats().bytes_received;
    }
    return total;
  }
  void reset_wire_bytes() {
    for (net::RpcChannel* ch : counted) ch->reset_stats();
  }
};

std::unique_ptr<System> build_system(const Workload& w, const Inputs& in,
                                     mec::BlockStore file, std::uint64_t seed,
                                     Tracer* tracer) {
  auto sys = std::make_unique<System>(tracer);
  System& s = *sys;
  s.params.modulus_bits = 1024;
  s.params.block_bytes = w.block_bytes;
  s.params.shard_budget = w.shard_budget;
  s.keys = bench::bench_keypair(1024, seed);

  s.csp = std::make_unique<proto::CspService>(std::move(file));
  net::RpcHandler& csp = s.serve_as(*s.csp, "csp");
  std::uint16_t tpa_port[2];
  for (int t = 0; t < 2; ++t) {
    s.tpas.push_back(std::make_unique<proto::TpaService>(
        pir::EvalStrategy::kBitsliced, 0, w.shard_budget));
    tpa_port[t] =
        s.listen(s.serve_as(*s.tpas.back(), "tpa" + std::to_string(t)));
  }

  // Each client opens its own connection to each TPA.
  for (std::size_t c = 0; c < w.clients; ++c) {
    s.cursors.push_back(std::make_unique<AuditCursor>());
    AuditCursor* cursor = s.cursors.back().get();
    cursor->client = static_cast<int>(c);
    const std::string user = "user" + std::to_string(c);
    std::vector<net::RpcChannel*> tpa;
    for (int t = 0; t < 2; ++t) {
      tpa.push_back(&s.connect(tpa_port[t], user + "->tpa" + std::to_string(t),
                               true, cursor));
    }
    s.user_connections += 2;
    s.users.push_back(std::make_unique<proto::UserClient>(s.params, s.keys,
                                                          *tpa[0], *tpa[1]));
    s.user_tpa.push_back(std::move(tpa));
  }
  s.taggen_s = s.users[0]->setup_file(in.blocks);
  for (std::size_t c = 1; c < w.clients; ++c) s.users[c]->attach_file(w.n);

  std::vector<net::RpcHandler*> edge_handlers;
  for (std::size_t j = 0; j < w.edges; ++j) {
    const std::string edge = "edge" + std::to_string(j);
    net::RpcChannel& to_csp = s.own(
        std::make_unique<net::InMemoryChannel>(csp), edge + "->csp", false);
    // ICE-batch edges push their proofs to the verifier TPA themselves.
    net::RpcChannel* to_tpa =
        w.batch ? &s.connect(tpa_port[0], edge + "->tpa0", true) : nullptr;
    const auto id = static_cast<std::uint32_t>(j);
    s.edges.push_back(std::make_unique<proto::EdgeService>(
        id, s.params, s.keys.pk,
        mec::EdgeCache(w.set_size, mec::EvictionPolicy::kLru), to_csp,
        to_tpa));
    edge_handlers.push_back(&s.serve_as(*s.edges.back(), edge));
    if (!w.batch) {
      // ICE-basic: the verifier TPA challenges the edge over the WAN.
      const std::uint16_t port = s.listen(*edge_handlers.back());
      s.tpas[0]->register_edge(id, s.connect(port, "tpa0->" + edge, true));
    }
    s.edges.back()->pre_download(in.sets[j]);
  }
  for (std::size_t c = 0; c < w.clients; ++c) {
    std::vector<net::RpcChannel*> links;
    for (std::size_t j = 0; j < w.edges; ++j) {
      links.push_back(&s.own(
          std::make_unique<net::InMemoryChannel>(*edge_handlers[j]),
          "user" + std::to_string(c) + "->edge" + std::to_string(j), true,
          s.cursors[c].get()));
    }
    s.user_edge.push_back(std::move(links));
  }
  return sys;
}

// --- Operations ---------------------------------------------------------------

bool run_audit(System& s, const Workload& w, std::size_t client) {
  if (w.batch) return s.users[client]->audit_edges_batch(s.user_edge[client]);
  const std::size_t j = client % w.edges;
  return s.users[client]->audit_edge(*s.user_edge[client][j],
                                     static_cast<std::uint32_t>(j));
}

struct CommitTimes {
  std::vector<double> update_ms;
  std::vector<double> close_ms;
  bool all_closed = true;
};

// One write-and-commit round by client 0: writes k cached blocks through
// every edge holding them and flushes those edges (the CSP gets the new
// content), then re-tags and stages each block at both TPAs and closes the
// epoch. Afterwards the edges, the CSP and the TPAs agree again, so the
// next audit must PASS.
void commit_round(System& s, const Workload& w, Inputs& in, SplitMix64& rng,
                  CommitTimes& times) {
  std::set<std::size_t> targets;
  while (targets.size() < std::min(w.updates, in.cached.size())) {
    targets.insert(in.cached[rng() % in.cached.size()]);
  }
  std::set<std::size_t> touched;
  for (std::size_t index : targets) {
    in.blocks[index] = random_block(w.block_bytes, rng);
    for (std::size_t j = 0; j < w.edges; ++j) {
      if (std::binary_search(in.sets[j].begin(), in.sets[j].end(), index)) {
        proto::EdgeClient(*s.user_edge[0][j]).write(index, in.blocks[index]);
        touched.insert(j);
      }
    }
  }
  for (std::size_t j : touched) (void)proto::EdgeClient(*s.user_edge[0][j]).flush();
  for (std::size_t index : targets) {
    Stopwatch sw;
    (void)s.users[0]->update_block(index, in.blocks[index]);
    times.update_ms.push_back(sw.millis());
  }
  const Tracer::Scope span(s.tracer, SpanKind::kLocal, "close_epochs");
  Stopwatch sw;
  const bool closed = s.users[0]->close_epochs();
  times.close_ms.push_back(sw.millis());
  times.all_closed = times.all_closed && closed;
}

struct Window {
  std::vector<double> audit_ms;  // every attempted audit
  std::size_t attempted = 0;
  std::size_t passed = 0;
  std::size_t failed = 0;  // threw or returned the wrong verdict
  double wall_s = 0;
  std::uint64_t wire_bytes = 0;
  CommitTimes commits;
  std::vector<std::string> errors;
};

// The measured closed loop: one thread per client, each waiting for its
// verdict before the next audit. Runs for `seconds` and until at least
// `min_audits` audits were started in total (or exactly `fixed` per client).
Window run_window(System& s, const Workload& w, Inputs& in, SplitMix64& rng,
                  double seconds, std::size_t min_audits, std::size_t fixed,
                  std::vector<std::int64_t>& next_seq) {
  Window out;
  std::mutex mu;
  std::atomic<std::size_t> started{0};
  s.reset_wire_bytes();
  const Stopwatch wall;
  const auto client_loop = [&](std::size_t c) {
    AuditCursor& cursor = *s.cursors[c];
    std::vector<double> lat;
    std::size_t passed = 0;
    std::size_t failed = 0;
    CommitTimes commits;
    std::vector<std::string> errors;
    for (std::size_t done = 0;; ++done) {
      if (fixed > 0 ? done >= fixed
                    : wall.seconds() >= seconds && started >= min_audits) {
        break;
      }
      started.fetch_add(1);
      bool ok = false;
      try {
        if (w.batch) commit_round(s, w, in, rng, commits);
        cursor.seq = next_seq[c]++;
        Tracer::Scope span(s.tracer, SpanKind::kLocal, "audit");
        span.span().client = cursor.client;
        span.span().seq = cursor.seq;
        const Stopwatch sw;
        try {
          ok = run_audit(s, w, c);
        } catch (const std::exception& e) {
          errors.push_back(e.what());
        }
        lat.push_back(sw.millis());
      } catch (const std::exception& e) {
        errors.push_back(std::string("commit round: ") + e.what());
      }
      cursor.seq = -1;
      (ok ? passed : failed) += 1;
    }
    std::lock_guard lock(mu);
    out.audit_ms.insert(out.audit_ms.end(), lat.begin(), lat.end());
    out.passed += passed;
    out.failed += failed;
    out.commits.update_ms.insert(out.commits.update_ms.end(),
                                 commits.update_ms.begin(),
                                 commits.update_ms.end());
    out.commits.close_ms.insert(out.commits.close_ms.end(),
                                commits.close_ms.begin(),
                                commits.close_ms.end());
    out.commits.all_closed = out.commits.all_closed && commits.all_closed;
    out.errors.insert(out.errors.end(), errors.begin(), errors.end());
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < w.clients; ++c) {
    threads.emplace_back(client_loop, c);
  }
  for (auto& t : threads) t.join();
  out.wall_s = wall.seconds();
  out.wire_bytes = s.wire_bytes();
  out.attempted = out.passed + out.failed;
  return out;
}

// Direct calls to the user-side public functions on the workload's own
// index set: ShardPlanner::plan, merge_decode, repack_tags / batch_repack.
// Gate: the decoded tags equal the tags the TPAs were given.
struct Probe {
  bool decode_ok = true;
  std::size_t shards_touched = 0;
};

Probe run_probe(System& s, const Workload& w, const Inputs& in,
                std::uint64_t seed, std::size_t reps) {
  const std::vector<std::size_t>& indices = w.batch ? in.cached : in.sets[0];
  const proto::PublicKey& pk = s.keys.pk;
  const proto::TagGenerator tagger(pk);
  std::vector<bn::BigInt> expected;
  for (std::size_t i : indices) expected.push_back(tagger.tag(in.blocks[i]));
  const proto::TpaClient tpa0(*s.user_tpa[0][0]);
  const proto::TpaClient tpa1(*s.user_tpa[0][1]);
  const proto::ShardPlanner planner(tpa0.shard_map(), pk.modulus_bits());
  crypto::Csprng rng = crypto::Csprng::deterministic(seed ^ 0x9e0be);
  Probe probe;
  for (std::size_t r = 0; r < reps; ++r) {
    proto::ShardPlan plan;
    {
      const Tracer::Scope span(s.tracer, SpanKind::kLocal, "probe.plan");
      plan = planner.plan(indices, rng);
    }
    probe.shards_touched = plan.queries[0].shards.size();
    const pir::ShardedPirResponse r0 = tpa0.shard_query(plan.queries[0]);
    const pir::ShardedPirResponse r1 = tpa1.shard_query(plan.queries[1]);
    std::vector<bn::BigInt> tags;
    {
      const Tracer::Scope span(s.tracer, SpanKind::kLocal, "probe.decode");
      tags = planner.merge_decode(plan, r0, r1);
    }
    probe.decode_ok = probe.decode_ok && tags == expected;
    const std::vector<bn::BigInt> keys =
        proto::draw_challenge_keys(s.params, w.edges, rng);
    const bn::BigInt s_tilde = proto::draw_blinding(pk, rng);
    const Tracer::Scope span(s.tracer, SpanKind::kLocal, "probe.repack");
    if (w.batch) {
      (void)proto::batch_repack(pk, s.params, indices, tags, in.sets, keys);
    } else {
      (void)proto::repack_tags(pk, tags, s_tilde, s.params.parallelism);
    }
  }
  return probe;
}

// --- Reporting ----------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    std::printf("%-24s %14.6f %s\n", name.c_str(), value, unit.c_str());
    metrics_ << (metrics_.tellp() > 0 ? "," : "") << "\"" << name
             << "\":{\"value\":" << fmt(value) << ",\"unit\":\"" << unit
             << "\"}";
  }
  void field(const std::string& name, const std::string& raw_json) {
    fields_ << ",\"" << name << "\":" << raw_json;
  }
  void gate(const std::string& name, bool ok) {
    std::printf("gate %-28s %s\n", name.c_str(), ok ? "ok" : "FAILED");
    gates_ << (gates_.tellp() > 0 ? "," : "") << "\"" << name
           << "\":" << (ok ? "true" : "false");
    correct_ = correct_ && ok;
  }
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::string json() const {
    return "{\"correct\":" + std::string(correct_ ? "true" : "false") +
           fields_.str() + ",\"gates\":{" + gates_.str() + "},\"metrics\":{" +
           metrics_.str() + "}}";
  }
  static std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
  }

 private:
  std::ostringstream metrics_;
  std::ostringstream fields_;
  std::ostringstream gates_;
  bool correct_ = true;
};

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

// Unlike bench::json_array (six significant digits), keeps every digit the
// pooled samples carry.
std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += Report::fmt(v[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const auto& table = opt.tiny ? kTinyWorkloads : kWorkloads;
  const Workload* found = nullptr;
  for (const Workload& w : table) {
    if (opt.workload == w.name) found = &w;
  }
  if (found == nullptr) usage("unknown workload " + opt.workload);
  const Workload& w = *found;
  const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  if (w.clients > nproc) {
    std::fprintf(stderr,
                 "audit_bench: %zu client threads exceed nproc=%u; refusing\n",
                 w.clients, nproc);
    return 2;
  }

  Report report;
  try {
    mec::BlockStore file =
        mec::BlockStore::synthetic(w.n, w.block_bytes, opt.seed);
    Inputs in = make_inputs(w, file, opt.seed);
    SplitMix64 update_rng(opt.seed ^ 0x0dd5ca1ab1eULL);
    std::unique_ptr<Tracer> tracer;
    if (opt.trace) tracer = std::make_unique<Tracer>();

    const Stopwatch setup;
    const std::unique_ptr<System> sys =
        build_system(w, in, std::move(file), opt.seed, tracer.get());
    const double setup_s = setup.seconds();
    System& s = *sys;

    // Gates before the window: honest audits pass, and the direct probe
    // decodes exactly the stored tags.
    bool honest = true;
    for (std::size_t c = 0; c < w.clients; ++c) {
      honest = run_audit(s, w, c) && honest;
    }
    report.gate("honest_audit_passes", honest);
    const Probe probe =
        run_probe(s, w, in, opt.seed, opt.trace ? kProbeReps : 1);
    report.gate("probe_decode_matches_tags", probe.decode_ok);

    std::vector<std::int64_t> next_seq(w.clients, 0);
    double untraced_p50 = 0;
    if (tracer) {
      // In-process reference for the tracing overhead: the same loop with
      // the decorators switched off.
      tracer->set_enabled(false);
      const Window plain =
          run_window(s, w, in, update_rng, opt.seconds / 2,
                     opt.min_audits / 2, opt.fixed_audits, next_seq);
      tracer->set_enabled(true);
      untraced_p50 = median(plain.audit_ms);
      report.gate("untraced_window_audits_pass",
                  plain.failed == 0 && plain.commits.all_closed);
    }
    const Window win = run_window(s, w, in, update_rng, opt.seconds,
                                  opt.min_audits, opt.fixed_audits, next_seq);
    for (std::size_t i = 0; i < win.errors.size() && i < 5; ++i) {
      std::fprintf(stderr, "audit error: %s\n", win.errors[i].c_str());
    }
    report.gate("window_audits_pass", win.failed == 0);

    // ICE-basic workloads commit updates after the window; ICE-batch
    // already committed one round before every audit.
    CommitTimes commits = win.commits;
    if (!w.batch) {
      const Stopwatch sw;
      for (std::size_t r = 0;
           r < kMinCommitRounds || sw.seconds() < opt.seconds / 5; ++r) {
        commit_round(s, w, in, update_rng, commits);
      }
      bool after = true;
      for (std::size_t c = 0; c < w.clients; ++c) {
        after = run_audit(s, w, c) && after;
      }
      report.gate("post_commit_audit_passes", after);
    }
    report.gate("epochs_closed", commits.all_closed);

    // Last, because it damages the deployment: one corrupted cached block
    // at edge 0 must make the audit covering it FAIL.
    SplitMix64 corrupt_rng(opt.seed ^ 0xc022u);
    mec::corrupt_random_blocks(s.edges[0]->cache_for_corruption(), 1,
                               mec::CorruptionKind::kBitFlip, corrupt_rng);
    report.gate("corrupted_edge_fails", !run_audit(s, w, 0));

    const double fail_ratio =
        win.attempted == 0 ? 1.0
                           : static_cast<double>(win.failed) /
                                 static_cast<double>(win.attempted);
    report.metric("audit_p50_ms", median(win.audit_ms), "ms");
    report.metric("audit_p90_ms", percentile(win.audit_ms, 0.9), "ms");
    report.metric("audits_per_s", static_cast<double>(win.passed) / win.wall_s,
                  "1/s");
    report.metric("audit_fail_ratio", fail_ratio, "ratio");
    report.metric("wire_bytes_per_audit",
                  static_cast<double>(win.wire_bytes) /
                      static_cast<double>(std::max<std::size_t>(
                          win.attempted, 1)),
                  "B");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    report.metric("update_p50_ms", median(commits.update_ms), "ms");
    report.metric("epoch_close_p50_ms", median(commits.close_ms), "ms");

    std::ostringstream conn;
    conn << "{\"user\":" << s.user_connections
         << ",\"tcp_total\":" << s.tcp_connections << "}";
    report.field("workload", "\"" + std::string(w.name) + "\"");
    report.field("seed", std::to_string(opt.seed));
    report.field("nproc", std::to_string(nproc));
    report.field("client_threads", std::to_string(w.clients));
    report.field("connections", conn.str());
    report.field("attempted", std::to_string(win.attempted));
    report.field("failed", std::to_string(win.failed));
    report.field("window_s", Report::fmt(win.wall_s));
    // Raw samples, so that runs of several processes can be pooled.
    report.field("passed", std::to_string(win.passed));
    report.field("wire_bytes", std::to_string(win.wire_bytes));
    report.field("samples", "{\"audit_ms\":" + json_array(win.audit_ms) +
                                ",\"update_ms\":" +
                                json_array(commits.update_ms) +
                                ",\"close_ms\":" +
                                json_array(commits.close_ms) + "}");

    if (tracer) {
      std::ostringstream meta;
      meta << "{\"meta\":true,\"workload\":\"" << w.name
           << "\",\"seed\":" << opt.seed << ",\"nproc\":" << nproc
           << ",\"untraced_p50_ms\":" << Report::fmt(untraced_p50)
           << ",\"taggen_s\":" << Report::fmt(s.taggen_s)
           << ",\"shards_touched\":" << probe.shards_touched << "}";
      tracer->set_enabled(false);
      tracer->write_jsonl(opt.trace_out, meta.str());
      report.field("trace_file", "\"" + json_escape(opt.trace_out) + "\"");
      report.field("spans", std::to_string(tracer->size()));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "audit_bench: %s\n", e.what());
    report.gate("ran_to_completion", false);
  }
  std::printf("%s\n", report.json().c_str());
  return report.correct() ? 0 : 1;
}
