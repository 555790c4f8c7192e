#include "trace.h"

#include <cstdio>
#include <stdexcept>

namespace auditbench {

namespace {

// Spans open on this thread, innermost last; a new span's parent.
thread_local std::vector<std::uint64_t> t_open;

const char* kind_tag(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClient:
      return "client";
    case SpanKind::kServer:
      return "server";
    case SpanKind::kLocal:
      return "local";
  }
  return "local";
}

std::uint32_t envelope_status(const ice::Bytes& response) {
  if (response.size() < 2) return Span::kNoStatus;
  return static_cast<std::uint32_t>(response[0] | (response[1] << 8));
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::record(Span&& span) {
  std::lock_guard lock(mu_);
  spans_.push_back(std::move(span));
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

Tracer::Scope::Scope(Tracer* tracer, SpanKind kind, std::string name,
                     std::uint16_t method)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_open.empty() ? 0 : t_open.back();
  span_.kind = kind;
  span_.name = std::move(name);
  span_.method = method;
  t_open.push_back(span_.id);
  span_.start_ns = tracer_->now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->now_ns();
  t_open.pop_back();
  tracer_->record(std::move(span_));
}

void Tracer::write_jsonl(const std::string& path,
                         const std::string& meta) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "%s\n", meta.c_str());
  std::lock_guard lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"kind\":\"%s\",\"name\":\"%s\","
                 "\"method\":%u,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"client\":%d,\"seq\":%lld,\"hash\":%llu,\"req\":%llu,"
                 "\"resp\":%llu,\"status\":%u}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), kind_tag(s.kind),
                 s.name.c_str(), static_cast<unsigned>(s.method),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.client,
                 static_cast<long long>(s.seq),
                 static_cast<unsigned long long>(s.req_hash),
                 static_cast<unsigned long long>(s.req_bytes),
                 static_cast<unsigned long long>(s.resp_bytes),
                 static_cast<unsigned>(s.status));
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot close " + path);
}

std::uint64_t request_hash(std::uint16_t method, ice::BytesView request) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<std::uint8_t>(method));
  mix(static_cast<std::uint8_t>(method >> 8));
  for (std::uint8_t b : request) mix(b);
  return h;
}

ice::Bytes TracedChannel::call(std::uint16_t method, ice::BytesView request) {
  Tracer::Scope scope(tracer_, SpanKind::kClient, name_, method);
  if (!scope.active()) return inner_->call(method, request);
  Span& span = scope.span();
  span.req_hash = request_hash(method, request);
  span.req_bytes = request.size();
  span.status = Span::kNoStatus;
  if (owner_ != nullptr) {
    span.client = owner_->client;
    span.seq = owner_->seq.load(std::memory_order_relaxed);
  }
  ice::Bytes response = inner_->call(method, request);
  span.resp_bytes = response.size();
  span.status = envelope_status(response);
  return response;
}

ice::Bytes TracedHandler::handle(std::uint16_t method,
                                 ice::BytesView request) {
  Tracer::Scope scope(tracer_, SpanKind::kServer, name_, method);
  if (!scope.active()) return inner_->handle(method, request);
  Span& span = scope.span();
  span.req_hash = request_hash(method, request);
  span.req_bytes = request.size();
  span.status = Span::kNoStatus;
  ice::Bytes response = inner_->handle(method, request);
  span.resp_bytes = response.size();
  span.status = envelope_status(response);
  return response;
}

}  // namespace auditbench
