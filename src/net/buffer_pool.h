// Pooled wire frame buffers.
//
// Every RPC round trip used to allocate at least three vectors: the client's
// request frame, the server's response frame, and the envelope copy stitched
// around it. In the steady-state audit loop those frames have stable sizes,
// so their capacity is recyclable: Writer leases its backing buffer from the
// calling thread's BufferPool and finished frames are returned via
// PooledBytes / release(). The pool is thread-local — no locks, no
// cross-thread ownership — and bounded so one oversized frame cannot pin
// memory forever.
//
// Large frames (above kLargeFrame, e.g. a sharded PIR response) are the
// exception: they are pooled in ONE process-wide, size-aware list behind a
// mutex. Such a frame is usually built on one thread and retired on another
// (a reactor worker writes it, the loop recycles it, a client thread reads
// the reply), so per-thread lists would each end up holding their own
// copies, and glibc's per-thread arenas would keep every copy resident. The
// shared list keeps the number of large buffers near the number in flight.
#pragma once

#include <cstddef>
#include <vector>

#include "common/bytes.h"
#include "common/stats.h"

namespace ice::net {

class BufferPool {
 public:
  /// The calling thread's pool.
  static BufferPool& local();

  /// An empty Bytes, with recycled capacity when one is pooled. Records a
  /// hit (reused capacity) or miss (fresh buffer) in stats(). A
  /// `min_capacity` above kLargeFrame draws the smallest large buffer that
  /// fits from the shared list (a miss reserves a fresh one); otherwise the
  /// thread's own list answers and the caller grows the buffer as needed.
  [[nodiscard]] Bytes acquire(std::size_t min_capacity = 0);

  /// Returns a frame's storage to the pool: capacity above kLargeFrame to
  /// the shared list, the rest to this thread's. Empty-capacity buffers are
  /// ignored; buffers above kMaxPooledCapacity and overflow beyond
  /// kMaxPooled entries (per list) are dropped (freed) instead of pooled.
  void release(Bytes&& buf);

  [[nodiscard]] const HitCounter& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  static constexpr std::size_t kMaxPooled = 8;
  static constexpr std::size_t kLargeFrame = std::size_t{1} << 16;
  static constexpr std::size_t kMaxPooledCapacity = std::size_t{1} << 22;

 private:
  std::vector<Bytes> free_;
  HitCounter stats_;
};

/// RAII frame: owns a Bytes and returns its storage to the thread's pool at
/// scope exit. Client stubs hold responses in one of these so the response
/// frame's capacity is back in the pool for the next call.
class PooledBytes {
 public:
  explicit PooledBytes(Bytes b) : b_(std::move(b)) {}
  ~PooledBytes() { BufferPool::local().release(std::move(b_)); }

  PooledBytes(const PooledBytes&) = delete;
  PooledBytes& operator=(const PooledBytes&) = delete;
  PooledBytes(PooledBytes&&) = delete;
  PooledBytes& operator=(PooledBytes&&) = delete;

  [[nodiscard]] const Bytes& get() const { return b_; }
  /// Mutable access, for callers that build a frame in place and need the
  /// storage recycled even when sending it throws.
  [[nodiscard]] Bytes& mut() { return b_; }
  operator BytesView() const { return b_; }  // NOLINT implicit view

 private:
  Bytes b_;
};

}  // namespace ice::net
