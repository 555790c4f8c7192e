#include "common/thread_pool.h"

#include <stdexcept>

namespace ice {

namespace {
thread_local bool t_on_pool_thread = false;
}  // namespace

bool ThreadPool::on_pool_thread() { return t_on_pool_thread; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    throw std::invalid_argument("ThreadPool: need at least one thread");
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::drain_job(ChunkJob* job) {
  std::size_t executed = 0;
  std::exception_ptr first_error;
  for (;;) {
    const std::size_t c = job->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job->num_chunks) break;
    try {
      job->invoke(job->ctx, c);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
    ++executed;
  }
  if (first_error) {
    std::lock_guard lock(mu_);
    if (!job->error) job->error = first_error;
  }
  return executed;
}

void ThreadPool::run_chunks_erased(std::size_t num_chunks,
                                   void (*invoke)(void*, std::size_t),
                                   void* ctx) {
  if (num_chunks == 0) return;
  ChunkJob job;
  job.invoke = invoke;
  job.ctx = ctx;
  job.num_chunks = num_chunks;
  {
    std::lock_guard lock(mu_);
    if (stopping_) {
      throw std::logic_error("ThreadPool::run_chunks after shutdown");
    }
    if (job_ != nullptr) {
      // Another broadcast is in flight; one job slot keeps the protocol
      // allocation-free. Mark this region inline-only and run it below,
      // off the lock — still correct, just not overlapped.
      job.num_chunks = 0;
    } else {
      job_ = &job;
    }
  }
  if (job.num_chunks == 0) {
    for (std::size_t c = 0; c < num_chunks; ++c) invoke(ctx, c);
    return;
  }
  cv_.notify_all();
  const std::size_t mine = drain_job(&job);
  std::unique_lock lock(mu_);
  job_ = nullptr;  // no new workers may enter the job
  job.done += mine;
  // The job lives on this stack frame: wait until every worker that entered
  // has exited (they update `done`/`workers` under mu_ as they leave).
  job_cv_.wait(lock, [&job] {
    return job.done == job.num_chunks && job.workers == 0;
  });
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::warm_up(const std::function<void()>& fn) {
  if (on_pool_thread()) {
    throw std::logic_error("ThreadPool::warm_up from a worker");
  }
  const std::size_t n = workers_.size();
  std::mutex mu;
  std::condition_variable cv;
  std::size_t held = 0;
  bool caller_done = false;
  std::size_t finished = 0;
  std::exception_ptr error;
  // A worker holding one of these tasks stays in it until the caller has
  // run fn, so no worker can take two: each of the n workers runs one.
  const auto task = [&] {
    std::unique_lock lock(mu);
    if (++held == n) cv.notify_all();
    cv.wait(lock, [&] { return caller_done; });
    try {
      fn();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
    if (++finished == n) cv.notify_all();
  };
  {
    std::lock_guard lock(mu_);
    if (stopping_) {
      throw std::logic_error("ThreadPool::warm_up after shutdown");
    }
    for (std::size_t i = 0; i < n; ++i) queue_.emplace_back(task);
  }
  cv_.notify_all();
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return held == n; });
  lock.unlock();
  std::exception_ptr caller_error;
  try {
    fn();  // every worker is held: fn's chunks all run here
  } catch (...) {
    caller_error = std::current_exception();
  }
  lock.lock();
  if (caller_error) error = caller_error;
  caller_done = true;
  cv.notify_all();
  cv.wait(lock, [&] { return finished == n; });
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  t_on_pool_thread = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      // A broadcast job is interesting only while it has unclaimed chunks;
      // otherwise a woken worker would spin on the exhausted counter until
      // the poster clears the slot.
      const auto job_has_work = [this] {
        return job_ != nullptr &&
               job_->next.load(std::memory_order_relaxed) < job_->num_chunks;
      };
      cv_.wait(lock, [&] {
        return stopping_ || !queue_.empty() || job_has_work();
      });
      if (ChunkJob* job = job_; job != nullptr && job_has_work()) {
        ++job->workers;
        lock.unlock();
        const std::size_t executed = drain_job(job);
        lock.lock();
        job->done += executed;
        --job->workers;
        job_cv_.notify_all();
        continue;  // re-check queue / next job
      }
      // `job_has_work()` reads the lock-free chunk counter, which other
      // workers advance without holding mu_: the wait predicate can pass and
      // the re-check above fail. That raced wake must loop back into wait —
      // only a stopping_ pool may retire the thread.
      if (stopping_ && queue_.empty()) return;
      if (queue_.empty()) continue;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace ice
