// BufferPool behavior: capacity recycling, bounds (entry count and per-buffer
// size), hit/miss accounting, PooledBytes RAII, and Writer's lease round trip.
#include "net/buffer_pool.h"

#include <gtest/gtest.h>

#include <thread>

#include "net/serde.h"

namespace ice::net {
namespace {

// The pool is thread-local and shared with everything else on this thread
// (including Writer), so each test starts by draining it to a known state.
void drain_pool() {
  BufferPool& pool = BufferPool::local();
  for (;;) {
    Bytes b = pool.acquire();
    if (b.capacity() == 0) break;  // miss: the free list is empty
  }
  pool.reset_stats();
}

// Empties the process-wide large-frame list.
void drain_large() {
  BufferPool& pool = BufferPool::local();
  const std::uint64_t misses = pool.stats().misses;
  while (pool.stats().misses == misses) {
    (void)pool.acquire(BufferPool::kLargeFrame + 1);
  }
}

Bytes with_capacity(std::size_t n) {
  Bytes b;
  b.reserve(n);
  return b;
}

TEST(BufferPoolTest, AcquireReusesReleasedCapacity) {
  drain_pool();
  BufferPool& pool = BufferPool::local();

  Bytes b = pool.acquire();
  EXPECT_EQ(pool.stats().misses, 1u);
  b.resize(1000);
  const std::uint8_t* data = b.data();
  pool.release(std::move(b));

  Bytes again = pool.acquire();
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_TRUE(again.empty());          // recycled buffers come back cleared
  EXPECT_GE(again.capacity(), 1000u);  // ... with their capacity intact
  EXPECT_EQ(again.data(), data);       // same storage, no allocation
}

TEST(BufferPoolTest, ZeroCapacityAndOversizedBuffersAreDropped) {
  drain_pool();
  BufferPool& pool = BufferPool::local();

  pool.release(Bytes{});  // nothing to recycle
  Bytes b1 = pool.acquire();
  EXPECT_EQ(b1.capacity(), 0u);  // the empty release was not pooled

  Bytes huge;
  huge.reserve(BufferPool::kMaxPooledCapacity + 1);
  pool.release(std::move(huge));
  Bytes b2 = pool.acquire();
  EXPECT_LT(b2.capacity(), BufferPool::kMaxPooledCapacity + 1);
}

TEST(BufferPoolTest, PoolEntryCountIsBounded) {
  drain_pool();
  BufferPool& pool = BufferPool::local();

  // Release far more buffers than the pool keeps...
  for (std::size_t i = 0; i < 3 * BufferPool::kMaxPooled; ++i) {
    Bytes b;
    b.reserve(64);
    pool.release(std::move(b));
  }
  // ...then count how many come back as hits: at most kMaxPooled.
  pool.reset_stats();
  std::size_t recovered = 0;
  for (;;) {
    Bytes b = pool.acquire();
    if (b.capacity() == 0) break;
    ++recovered;
  }
  EXPECT_LE(recovered, BufferPool::kMaxPooled);
  EXPECT_EQ(recovered, BufferPool::kMaxPooled);
}

TEST(BufferPoolTest, LargeFramesAreSharedAcrossThreadsBestFit) {
  drain_large();
  constexpr std::size_t kSmallLarge = 2 * BufferPool::kLargeFrame;
  constexpr std::size_t kBigLarge = 5 * BufferPool::kLargeFrame;
  const std::uint8_t* small_data = nullptr;
  const std::uint8_t* big_data = nullptr;
  std::thread([&] {
    Bytes a = with_capacity(kSmallLarge);
    Bytes b = with_capacity(kBigLarge);
    small_data = a.data();
    big_data = b.data();
    BufferPool::local().release(std::move(b));
    BufferPool::local().release(std::move(a));
  }).join();
  // Released on another thread, found here; the smallest one that fits.
  BufferPool& pool = BufferPool::local();
  Bytes big = pool.acquire(3 * BufferPool::kLargeFrame);
  EXPECT_EQ(big.data(), big_data);
  Bytes small = pool.acquire(BufferPool::kLargeFrame + 1);
  EXPECT_EQ(small.data(), small_data);
  EXPECT_TRUE(small.empty());
  // Large buffers never enter the thread's own list.
  drain_pool();
  pool.release(std::move(small));
  EXPECT_EQ(pool.acquire().capacity(), 0u);
  drain_large();
}

TEST(BufferPoolTest, WriterGrowsIntoASharedLargeFrame) {
  drain_large();
  Bytes large = with_capacity(4 * BufferPool::kLargeFrame);
  const std::uint8_t* data = large.data();
  BufferPool::local().release(std::move(large));
  Writer w;
  const Bytes chunk(BufferPool::kLargeFrame, 0x5a);
  w.bytes(chunk);
  w.bytes(chunk);
  Bytes frame = w.take();
  EXPECT_EQ(frame.data(), data);
  EXPECT_EQ(frame.size(), 2 * (chunk.size() + 3));  // 3-byte varint each
  std::uint8_t* slot = nullptr;
  {
    Writer x;
    x.u8(1);
    slot = x.extend(4);
    EXPECT_EQ(x.size(), 5u);
    slot[3] = 7;
    EXPECT_EQ(x.take()[4], 7);
  }
  BufferPool::local().release(std::move(frame));
  drain_large();
}

TEST(BufferPoolTest, PooledBytesReturnsStorageAtScopeExit) {
  drain_pool();
  BufferPool& pool = BufferPool::local();

  const std::uint8_t* data = nullptr;
  {
    Bytes b;
    b.resize(256, 0x7f);
    data = b.data();
    PooledBytes holder(std::move(b));
    EXPECT_EQ(holder.get().size(), 256u);
    EXPECT_EQ(BytesView(holder).size(), 256u);
  }
  Bytes recycled = pool.acquire();
  EXPECT_EQ(recycled.data(), data);
}

TEST(BufferPoolTest, WriterLeasesAndReturnsItsFrame) {
  drain_pool();
  BufferPool& pool = BufferPool::local();

  {
    Writer w;
    for (int i = 0; i < 300; ++i) w.u8(static_cast<std::uint8_t>(i));
    Bytes frame = w.take();
    pool.release(std::move(frame));
  }
  // The released frame's capacity is back in the pool; the next Writer
  // leases it instead of allocating.
  pool.reset_stats();
  Writer w2;
  w2.u8(2);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 0u);
}

}  // namespace
}  // namespace ice::net
