// Span recording for the traced benchmark run.
//
// The benchmark traces the system from outside: it wraps every RPC channel
// it hands the system (client side) and every handler it serves (server
// side) in timing decorators, and opens local spans around the calls it
// makes itself. Spans stay in memory and are written out as JSON lines when
// the run ends; auditbench/summarize.py turns them into per-layer numbers.
//
// Joining: a span's parent is whatever span was open on the same thread
// when it started (an in-memory call nests its server span under the client
// span; a handler's outbound calls nest under the handler). A handler served
// over TCP runs on a reactor thread with nothing open, so it carries a hash
// of (method, request bytes) instead, and the summarizer joins it to the
// client call with the same hash whose interval contains it. User-side
// client spans carry the audit id (client, sequence number) of the audit in
// flight on their channel's owner.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/rpc.h"

namespace auditbench {

enum class SpanKind : std::uint8_t { kClient, kServer, kLocal };

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = no enclosing span on this thread
  SpanKind kind = SpanKind::kLocal;
  std::string name;          // link, service or operation label
  std::uint16_t method = 0;  // RPC method id (0 for local spans)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int client = -1;           // audit id: owning client ...
  std::int64_t seq = -1;     // ... and its audit sequence number
  std::uint64_t req_hash = 0;
  std::uint64_t req_bytes = 0;
  std::uint64_t resp_bytes = 0;
  /// u16 status envelope of the response; kNoStatus when the call threw.
  std::uint32_t status = 0;
  static constexpr std::uint32_t kNoStatus = 0x10000;
};

/// What a client is auditing right now; user-side channels read it when a
/// call starts. seq < 0 means "not inside a measured audit".
struct AuditCursor {
  int client = -1;
  std::atomic<std::int64_t> seq{-1};
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// An open span: pushed on this thread's stack while alive, recorded on
  /// destruction. Inert when the tracer is null or disabled at open.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanKind kind, std::string name,
          std::uint16_t method = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] bool active() const { return tracer_ != nullptr; }
    Span& span() { return span_; }

   private:
    Tracer* tracer_;
    Span span_;
  };

  /// Writes every recorded span as one JSON object per line after `meta`
  /// (a JSON object written verbatim as the first line).
  void write_jsonl(const std::string& path, const std::string& meta) const;

  [[nodiscard]] std::size_t size() const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;
  void record(Span&& span);

  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> next_id_{1};
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// FNV-1a over the method id and the request bytes.
std::uint64_t request_hash(std::uint16_t method, ice::BytesView request);

/// Client-side timing decorator. Forwards stats() to the wrapped channel,
/// so byte accounting is unchanged.
class TracedChannel final : public ice::net::RpcChannel {
 public:
  TracedChannel(Tracer& tracer, std::string name, ice::net::RpcChannel& inner,
                const AuditCursor* owner = nullptr)
      : tracer_(&tracer), name_(std::move(name)), inner_(&inner),
        owner_(owner) {}

  ice::Bytes call(std::uint16_t method, ice::BytesView request) override;
  [[nodiscard]] const ice::net::ChannelStats& stats() const override {
    return inner_->stats();
  }
  void reset_stats() override { inner_->reset_stats(); }

 private:
  Tracer* tracer_;
  std::string name_;
  ice::net::RpcChannel* inner_;
  const AuditCursor* owner_;
};

/// Server-side timing decorator around a service's handler.
class TracedHandler final : public ice::net::RpcHandler {
 public:
  TracedHandler(Tracer& tracer, std::string name, ice::net::RpcHandler& inner)
      : tracer_(&tracer), name_(std::move(name)), inner_(&inner) {}

  ice::Bytes handle(std::uint16_t method, ice::BytesView request) override;

 private:
  Tracer* tracer_;
  std::string name_;
  ice::net::RpcHandler* inner_;
};

}  // namespace auditbench
