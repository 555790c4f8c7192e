// Chunked fan-out over a process-wide shared ThreadPool.
//
// Every parallel audit hot path (edge proof aggregation, PIR bitplane
// evaluation, TPA multi-exponentiation) is expressed as: partition an index
// range into at most `threads` contiguous chunks, compute a per-chunk
// partial on pool workers, then reduce the partials in chunk order on the
// caller. All reductions used are exact (integer addition, modular
// multiplication, XOR, or writes to disjoint output slots), so the result
// is bit-identical for every thread count — the differential tests in
// tests/ice/parallel_diff_test.cpp pin parallel == serial.
//
// `threads` follows the ProtocolParams::parallelism convention:
//   0  — one chunk per hardware thread (the default);
//   1  — exact single-threaded legacy path (no pool involvement);
//   t  — at most t chunks.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <future>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace ice {

/// The process-wide pool shared by all parallel audit paths. Created on
/// first use with one worker per hardware thread; never torn down before
/// static destruction.
ThreadPool& shared_pool();

/// Maps a ProtocolParams::parallelism value to a concrete chunk budget
/// (0 -> hardware concurrency, never less than 1).
[[nodiscard]] std::size_t resolve_parallelism(std::size_t requested);

/// Half-open index range [begin, end).
struct ChunkRange {
  std::size_t begin;
  std::size_t end;
};

/// Number of chunks a balanced partition of [0, n) into at most max_chunks
/// non-empty contiguous ranges produces: min(max_chunks, n), 0 for n == 0.
/// Pure arithmetic — callers size their partial buffers with this instead
/// of materializing the partition.
[[nodiscard]] inline std::size_t chunk_count(std::size_t n,
                                             std::size_t max_chunks) {
  if (n == 0) return 0;
  return std::min(std::max<std::size_t>(1, max_chunks), n);
}

/// Bounds of chunk c of the balanced partition of [0, n) into `chunks`
/// ranges (front chunks take the remainder; identical layout to
/// partition_range).
[[nodiscard]] inline ChunkRange chunk_bounds(std::size_t n, std::size_t chunks,
                                             std::size_t c) {
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  const std::size_t begin = c * base + std::min(c, extra);
  return {begin, begin + base + (c < extra ? 1 : 0)};
}

/// Balanced partition of [0, n) into min(max_chunks, n) non-empty
/// contiguous ranges (front chunks take the remainder). Empty for n == 0.
/// Allocates; hot paths use chunk_count/chunk_bounds arithmetic instead.
[[nodiscard]] std::vector<ChunkRange> partition_range(std::size_t n,
                                                      std::size_t max_chunks);

/// Invokes fn(chunk_index, begin, end) for every chunk of [0, n), with the
/// chunk budget resolved from `threads` as described above. Runs inline
/// (sequential, in chunk order) when only one chunk results or when the
/// caller is itself a pool worker; otherwise the chunks are broadcast over
/// the shared pool with the caller participating (ThreadPool::run_chunks:
/// stack job descriptor + atomic claim counter, no allocation). Blocks
/// until every chunk is done; rethrows the first chunk exception after all
/// chunks have finished.
template <typename Fn>
void parallel_chunks(std::size_t n, std::size_t threads, Fn&& fn) {
  const std::size_t chunks = chunk_count(n, resolve_parallelism(threads));
  if (chunks <= 1 || ThreadPool::on_pool_thread()) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const ChunkRange r = chunk_bounds(n, chunks, c);
      fn(c, r.begin, r.end);
    }
    return;
  }
  auto body = [&fn, n, chunks](std::size_t c) {
    const ChunkRange r = chunk_bounds(n, chunks, c);
    fn(c, r.begin, r.end);
  };
  shared_pool().run_chunks(chunks, body);
}

/// Runs call(i) for every i in [0, n) with at most `threads` calls in
/// flight (same convention as above), while the caller runs `alongside()`.
/// Built for calls that block, such as RPCs: they go to pool workers
/// through the task queue, not the broadcast slot, so parallel_chunks
/// regions (inside the calls, in alongside(), anywhere in the process)
/// still get the pool's chunk path. Every call and alongside() have
/// finished before this returns; it then rethrows the lowest-indexed
/// call's exception, else alongside()'s (or the pool's, had it refused the
/// calls). With one thread, or on a pool worker, it runs the calls in index
/// order and then alongside(), all on the caller.
template <typename Call, typename Alongside>
void parallel_calls(std::size_t n, std::size_t threads, Call&& call,
                    Alongside&& alongside) {
  const std::size_t budget = resolve_parallelism(threads);
  if (budget == 1 || ThreadPool::on_pool_thread()) {
    for (std::size_t i = 0; i < n; ++i) call(i);
    alongside();
    return;
  }
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  // Each lane claims indices until none remain, so a slow call delays
  // only its own lane.
  auto lane = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) {
      try {
        call(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::future<void>> lanes;
  lanes.reserve(std::min(budget, n));
  std::exception_ptr alongside_error;
  try {
    while (lanes.size() < std::min(budget, n)) {
      lanes.push_back(shared_pool().submit(lane));
    }
    alongside();
  } catch (...) {
    alongside_error = std::current_exception();
  }
  for (auto& l : lanes) l.wait();
  for (const std::exception_ptr& e : errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }
  if (alongside_error != nullptr) std::rethrow_exception(alongside_error);
}

}  // namespace ice
