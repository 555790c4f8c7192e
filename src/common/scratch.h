// Thread-local reusable scratch buffers for the audit hot paths.
//
// The PIR evaluation engine needs a fresh zeroed accumulator block per
// respond() call (per-shard, per-point XOR planes). Allocating those with
// `assign(w, 0)` on every call puts an allocator round-trip on the hot path;
// this arena keeps returned buffers on a thread-local free list so steady
// state reuses capacity and only pays the (unavoidable) zeroing memset.
//
// Lifetime rules (also documented in DESIGN.md §9):
//   * Leases are scoped: a Lease must be destroyed on the thread that took
//     it, before that thread exits. All users take a lease on the calling
//     thread, let pool workers write into disjoint slices, join, then drop
//     it — workers never hold leases of their own.
//   * Leases may nest (recursive audit paths); each take() pops or creates
//     an independent buffer, so a nested lease never aliases an outer one.
//   * Buffers grow monotonically and are only reclaimed at thread exit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace ice {

class ScratchArena {
 public:
  /// RAII borrow of one buffer; hands the storage back on destruction.
  class Lease {
   public:
    Lease(ScratchArena* arena, std::vector<std::uint64_t> buf,
          std::size_t words)
        : arena_(arena), buf_(std::move(buf)), words_(words) {}
    ~Lease() {
      if (arena_ != nullptr) arena_->give_back(std::move(buf_));
    }
    Lease(Lease&& o) noexcept
        : arena_(std::exchange(o.arena_, nullptr)),
          buf_(std::move(o.buf_)),
          words_(o.words_) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    [[nodiscard]] std::uint64_t* data() { return buf_.data(); }
    [[nodiscard]] const std::uint64_t* data() const { return buf_.data(); }
    [[nodiscard]] std::size_t words() const { return words_; }

   private:
    ScratchArena* arena_;
    std::vector<std::uint64_t> buf_;
    std::size_t words_;
  };

  /// The calling thread's arena.
  static ScratchArena& local() {
    static thread_local ScratchArena arena;
    return arena;
  }

  /// Borrows a buffer with the first `words` words zeroed.
  [[nodiscard]] Lease take_zeroed(std::size_t words) {
    Lease lease = take(words);
    std::memset(lease.data(), 0, words * sizeof(std::uint64_t));
    return lease;
  }

  /// Borrows a buffer with at least `words` words of UNINITIALIZED storage.
  /// For destination-passing kernels that overwrite the whole span (pow
  /// tables, multiexp partials) — skips the memset take_zeroed pays.
  [[nodiscard]] Lease take(std::size_t words) {
    std::vector<std::uint64_t> buf = pop(words);
    const bool hit = buf.size() >= words;
    stats_.record(hit);
    if (!hit) buf.resize(words);
    return Lease(this, std::move(buf), words);
  }

  /// Reuse/miss tally for this thread's arena since thread start (a miss is
  /// a take() that had to allocate or grow a buffer). Steady-state hot paths
  /// should show misses flat across iterations; tests pin exactly that.
  [[nodiscard]] const HitCounter& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

 private:
  /// The smallest free buffer holding `words`, else the largest (to be
  /// grown). Size-aware rather than LIFO: leases nest, so the order buffers
  /// come back in depends on the call path, and a LIFO pop could hand a
  /// small buffer to a large lease on a path that had been warmed.
  std::vector<std::uint64_t> pop(std::size_t words) {
    if (free_.empty()) return {};
    std::size_t pick = 0;
    for (std::size_t i = 1; i < free_.size(); ++i) {
      const std::size_t have = free_[i].size();
      const std::size_t best = free_[pick].size();
      const bool fits = have >= words;
      if (best >= words ? fits && have < best : have > best) pick = i;
    }
    std::vector<std::uint64_t> buf = std::move(free_[pick]);
    free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(pick));
    return buf;
  }

  void give_back(std::vector<std::uint64_t> buf) {
    free_.push_back(std::move(buf));
  }

  std::vector<std::vector<std::uint64_t>> free_;
  HitCounter stats_;
};

}  // namespace ice
