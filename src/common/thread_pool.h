// Fixed-size thread pool.
//
// The TPA in the paper's prototype is multi-threaded ("#thread: Multiple" in
// Tab. II); the multi-user experiment (Fig. 4) measures audit latency under
// concurrent requests served by such a pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ice {

/// Cooperative cancellation shared between a background producer task and
/// its owner. ThreadPool itself has no way to retract a submitted task, so
/// a long-running producer (e.g. the offline challenge refiller) polls the
/// token at its work-item boundaries and the owner's shutdown path is
/// request_stop() + wait-for-drain instead of racing the in-flight task.
class CancellationToken {
 public:
  void request_stop() noexcept {
    stop_.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }
  void reset() noexcept { stop_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> stop_{false};
};

/// A fixed pool of worker threads draining a FIFO task queue, plus an
/// allocation-free chunk-broadcast path (run_chunks) for the audit hot
/// loops. Destruction waits for already-submitted tasks to finish.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Submits a callable; returns a future for its result. Allocates (shared
  /// task state + queue node); use run_chunks for allocation-free fan-out.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      if (stopping_) {
        throw std::logic_error("ThreadPool::submit after shutdown");
      }
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(chunk) for every chunk in [0, num_chunks) across the pool
  /// WITHOUT allocating: the job descriptor lives on the caller's stack,
  /// workers claim chunk indices from an atomic counter, and the caller
  /// participates until every chunk is done. Blocks until completion and
  /// rethrows the first chunk exception. If another broadcast is already in
  /// flight (the pool has one job slot), the chunks run inline on the
  /// caller — still correct, just not overlapped.
  template <typename F>
  void run_chunks(std::size_t num_chunks, F&& fn) {
    using Fn = std::remove_reference_t<F>;
    run_chunks_erased(
        num_chunks,
        [](void* ctx, std::size_t chunk) { (*static_cast<Fn*>(ctx))(chunk); },
        const_cast<Fn*>(&fn));
  }

  /// Warms every thread that can run a chunk of fn's parallel regions: runs
  /// fn() on the caller while every worker is held busy, so the caller
  /// claims all of those chunks itself, then once on each worker, where
  /// the regions run inline. Chunks go to whichever thread claims them
  /// first, so warming on the caller alone leaves some threads' caches
  /// cold. One fn() runs at a time (fn may touch shared state without
  /// locks); rethrows the first exception once all have run. fn must not
  /// wait for tasks submitted to this pool: the workers are held while
  /// the caller runs it. Blocks until every worker is free; throws
  /// std::logic_error when called from a worker (it would wait for itself).
  void warm_up(const std::function<void()>& fn);

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// True when the calling thread is a worker of ANY ThreadPool. The
  /// chunked fan-out helpers (common/parallel.h) use this to run nested
  /// parallel regions inline: a worker that blocked on sub-tasks of a
  /// saturated pool would deadlock it.
  [[nodiscard]] static bool on_pool_thread();

 private:
  /// One chunk-broadcast job. Lives on the posting thread's stack for the
  /// duration of run_chunks; workers only touch it between incrementing
  /// `entered` and `exited` (both under mu_), and the poster does not
  /// return until every enterer has exited.
  struct ChunkJob {
    void (*invoke)(void* ctx, std::size_t chunk);
    void* ctx;
    std::size_t num_chunks;
    std::atomic<std::size_t> next{0};  // next unclaimed chunk index
    std::size_t done = 0;              // executed chunks (guarded by mu_)
    std::size_t workers = 0;           // workers inside the job (mu_)
    std::exception_ptr error;          // first failure (guarded by mu_)
  };

  void run_chunks_erased(std::size_t num_chunks,
                         void (*invoke)(void*, std::size_t), void* ctx);
  /// Claims and executes chunks of `job` until none remain; returns the
  /// number executed and records the first exception in job->error.
  std::size_t drain_job(ChunkJob* job);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable job_cv_;  // poster waits for job completion
  std::deque<std::function<void()>> queue_;
  ChunkJob* job_ = nullptr;  // active broadcast, if any (guarded by mu_)
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ice
