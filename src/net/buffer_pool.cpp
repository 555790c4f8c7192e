#include "net/buffer_pool.h"

#include <mutex>
#include <utility>

namespace ice::net {

namespace {

/// The process-wide list of large frame buffers (see the header).
struct LargeFrames {
  std::mutex mu;
  std::vector<Bytes> free;  // guarded by mu
};

LargeFrames& large_frames() {
  // Never destroyed: threads still running during static destruction (a
  // pool worker finishing a task) may release a frame.
  static LargeFrames* const frames = new LargeFrames;
  return *frames;
}

}  // namespace

BufferPool& BufferPool::local() {
  static thread_local BufferPool pool;
  return pool;
}

Bytes BufferPool::acquire(std::size_t min_capacity) {
  Bytes buf;
  bool hit = false;
  if (min_capacity > kLargeFrame) {
    LargeFrames& large = large_frames();
    std::lock_guard lock(large.mu);
    auto best = large.free.end();
    for (auto it = large.free.begin(); it != large.free.end(); ++it) {
      if (it->capacity() >= min_capacity &&
          (best == large.free.end() || it->capacity() < best->capacity())) {
        best = it;
      }
    }
    if (best != large.free.end()) {
      buf = std::move(*best);
      large.free.erase(best);
      hit = true;
    }
  } else if (!free_.empty()) {
    buf = std::move(free_.back());
    free_.pop_back();
    hit = true;
  }
  stats_.record(hit);
  if (hit) {
    buf.clear();  // keeps capacity
  } else {
    buf.reserve(min_capacity);
  }
  return buf;
}

void BufferPool::release(Bytes&& buf) {
  if (buf.capacity() == 0 || buf.capacity() > kMaxPooledCapacity) {
    return;  // dropped; the vector frees on destruction
  }
  buf.clear();
  if (buf.capacity() > kLargeFrame) {
    LargeFrames& large = large_frames();
    std::lock_guard lock(large.mu);
    if (large.free.size() < kMaxPooled) large.free.push_back(std::move(buf));
    return;
  }
  if (free_.size() >= kMaxPooled) return;
  free_.push_back(std::move(buf));
}

}  // namespace ice::net
