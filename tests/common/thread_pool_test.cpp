#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.h"

namespace ice {
namespace {

TEST(ThreadPoolTest, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPoolTest, RunsSubmittedTask) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 7; });
  EXPECT_EQ(fut.get(), 7);
}

TEST(ThreadPoolTest, RunsManyTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(1);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor must wait for all 50
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, SizeReportsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, PoolStaysUsableAfterThrowingTasks) {
  ThreadPool pool(2);
  std::vector<std::future<int>> bad;
  for (int i = 0; i < 8; ++i) {
    bad.push_back(pool.submit(
        []() -> int { throw std::runtime_error("boom"); }));
  }
  for (auto& f : bad) EXPECT_THROW(f.get(), std::runtime_error);
  // Workers must have survived every throw and still drain new tasks.
  auto ok = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(ok.get(), 42);
}

TEST(ThreadPoolTest, ShutdownWhileBusyDrainsEverything) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        done.fetch_add(1);
      });
    }
  }  // destructor runs while workers are mid-task and the queue is deep
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPoolTest, ManySmallTasksStress) {
  ThreadPool pool(4);
  constexpr int kTasks = 10000;
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futs;
  futs.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futs.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), static_cast<long>(kTasks) * (kTasks - 1) / 2);
}

TEST(ThreadPoolTest, WorkersSurviveRacedBroadcastWakeups) {
  // Regression: a worker woken for a broadcast job whose chunks were all
  // claimed before its post-wait re-check used to fall through the
  // queue-empty check and retire with the pool still running. Hammer tiny
  // broadcasts so woken workers routinely lose the claim race, then prove
  // every worker is still alive by making them all rendezvous at once.
  ThreadPool pool(4);
  std::atomic<int> hits{0};
  for (int i = 0; i < 10000; ++i) {
    pool.run_chunks(2, [&hits](std::size_t) { hits.fetch_add(1); });
  }
  EXPECT_EQ(hits.load(), 20000);
  std::mutex m;
  std::condition_variable cv;
  std::size_t arrived = 0;
  std::vector<std::future<bool>> futs;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    futs.push_back(pool.submit([&] {
      std::unique_lock lock(m);
      ++arrived;
      cv.notify_all();
      return cv.wait_for(lock, std::chrono::seconds(10),
                         [&] { return arrived == pool.size(); });
    }));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get());
}

TEST(ThreadPoolTest, OnPoolThreadFlagTracksWorkerContext) {
  EXPECT_FALSE(ThreadPool::on_pool_thread());
  ThreadPool pool(1);
  auto fut = pool.submit([] { return ThreadPool::on_pool_thread(); });
  EXPECT_TRUE(fut.get());
  EXPECT_FALSE(ThreadPool::on_pool_thread());
}

TEST(ThreadPoolTest, WarmUpRunsOnCallerThenOnEachWorkerInTurn) {
  ThreadPool pool(4);
  std::vector<std::thread::id> order;  // unsynchronized: calls take turns
  pool.warm_up([&] { order.push_back(std::this_thread::get_id()); });
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order.front(), std::this_thread::get_id());
  const std::set<std::thread::id> workers(order.begin() + 1, order.end());
  EXPECT_EQ(workers.size(), 4u);
  EXPECT_EQ(workers.count(std::this_thread::get_id()), 0u);
}

TEST(ThreadPoolTest, WarmUpRunsEveryChunkOnEachThread) {
  // Whichever thread runs fn must also run all of its chunks: the caller
  // because every worker is held, the workers because they run inline.
  std::atomic<int> foreign{0};
  int runs = 0;
  shared_pool().warm_up([&] {
    ++runs;
    const auto self = std::this_thread::get_id();
    parallel_chunks(16, /*threads=*/0,
                    [&](std::size_t, std::size_t, std::size_t) {
                      if (std::this_thread::get_id() != self) ++foreign;
                    });
  });
  EXPECT_EQ(runs, static_cast<int>(shared_pool().size()) + 1);
  EXPECT_EQ(foreign.load(), 0);
}

TEST(ThreadPoolTest, WarmUpRethrowsAndRefusesWorkers) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  EXPECT_THROW(pool.warm_up([&] {
                 if (calls.fetch_add(1) == 1) throw std::runtime_error("x");
               }),
               std::runtime_error);
  EXPECT_EQ(calls.load(), 4);  // the throw did not cut the warm-up short
  auto nested = pool.submit([&pool] { pool.warm_up([] {}); });
  EXPECT_THROW(nested.get(), std::logic_error);
}

TEST(ParallelCallsTest, RunsEachCallOnceWithBoundedConcurrency) {
  constexpr std::size_t kCalls = 9;
  std::vector<std::atomic<int>> runs(kCalls);
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  bool alongside_ran = false;
  parallel_calls(
      kCalls, /*threads=*/2,
      [&](std::size_t i) {
        const int now = in_flight.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        runs[i].fetch_add(1);
        in_flight.fetch_sub(1);
      },
      [&] { alongside_ran = true; });
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
  EXPECT_TRUE(alongside_ran);
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), 2);  // the budget, not the call count
}

TEST(ParallelCallsTest, OneThreadRunsInIndexOrderOnTheCaller) {
  std::vector<std::size_t> order;
  const auto caller = std::this_thread::get_id();
  parallel_calls(
      4, /*threads=*/1,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
      },
      [&] { order.push_back(99); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 99}));
}

TEST(ParallelCallsTest, RethrowsLowestIndexOnlyAfterEverythingJoined) {
  constexpr std::size_t kCalls = 6;
  std::atomic<std::size_t> finished{0};
  std::atomic<bool> alongside_done{false};
  try {
    parallel_calls(
        kCalls, /*threads=*/0,
        [&](std::size_t i) {
          // Later calls are slower, so the failures land first.
          std::this_thread::sleep_for(std::chrono::milliseconds(2 * i));
          finished.fetch_add(1);
          if (i == 1 || i == 4) {
            throw std::runtime_error("call " + std::to_string(i));
          }
        },
        [&] {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          alongside_done = true;
          throw std::logic_error("alongside");
        });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "call 1");
  }
  EXPECT_EQ(finished.load(), kCalls);
  EXPECT_TRUE(alongside_done.load());

  // With every call clean, the alongside error surfaces.
  EXPECT_THROW(parallel_calls(
                   3, 0, [](std::size_t) {},
                   [] { throw std::logic_error("alongside"); }),
               std::logic_error);
}

TEST(ParallelChunksTest, PartitionRangeCoversEveryIndexOnce) {
  for (std::size_t n : {0u, 1u, 5u, 16u, 17u}) {
    for (std::size_t chunks : {1u, 2u, 3u, 7u, 32u}) {
      const auto parts = partition_range(n, chunks);
      std::size_t covered = 0;
      std::size_t expect_begin = 0;
      for (const auto& c : parts) {
        EXPECT_EQ(c.begin, expect_begin);
        EXPECT_LT(c.begin, c.end);
        covered += c.end - c.begin;
        expect_begin = c.end;
      }
      EXPECT_EQ(covered, n);
      EXPECT_LE(parts.size(), std::min<std::size_t>(std::max<std::size_t>(
                                  chunks, 1), std::max<std::size_t>(n, 1)));
    }
  }
}

TEST(ParallelChunksTest, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_chunks(kN, /*threads=*/7,
                            [&hits](std::size_t, std::size_t b,
                                    std::size_t e) {
                              for (std::size_t i = b; i < e; ++i) {
                                hits[i].fetch_add(1);
                              }
                            });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelChunksTest, PropagatesWorkerException) {
  EXPECT_THROW(
      parallel_chunks(100, /*threads=*/4,
                                [](std::size_t c, std::size_t, std::size_t) {
                                  if (c != 0) {
                                    throw std::runtime_error("chunk");
                                  }
                                }),
      std::runtime_error);
  // And from the caller-executed chunk 0 as well.
  EXPECT_THROW(
      parallel_chunks(100, /*threads=*/4,
                                [](std::size_t c, std::size_t, std::size_t) {
                                  if (c == 0) {
                                    throw std::runtime_error("chunk0");
                                  }
                                }),
      std::runtime_error);
}

TEST(ParallelChunksTest, NestedCallsRunInlineWithoutDeadlock) {
  // Saturate the shared pool with outer chunks that each open an inner
  // parallel region; on_pool_thread() must force the inner regions inline,
  // otherwise the inner submits would wait on workers that never free up.
  std::atomic<long> total{0};
  parallel_chunks(
      64, /*threads=*/0, [&total](std::size_t, std::size_t b, std::size_t e) {
        parallel_chunks(
            e - b, /*threads=*/0,
            [&total, b](std::size_t, std::size_t ib, std::size_t ie) {
              for (std::size_t i = ib; i < ie; ++i) {
                total.fetch_add(static_cast<long>(b + i));
              }
            });
      });
  EXPECT_EQ(total.load(), 64L * 63 / 2);
}

TEST(ParallelChunksTest, ResolveParallelismConvention) {
  EXPECT_EQ(resolve_parallelism(1), 1u);
  EXPECT_EQ(resolve_parallelism(7), 7u);
  EXPECT_GE(resolve_parallelism(0), 1u);  // 0 = hardware
}

}  // namespace
}  // namespace ice
