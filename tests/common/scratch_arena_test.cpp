// ScratchArena semantics: lease reuse, nesting, zeroing, and the hit/miss
// counters that the steady-state allocation tests pin against.
#include "common/scratch.h"

#include <gtest/gtest.h>

#include <cstring>

namespace ice {
namespace {

TEST(ScratchArenaTest, FirstTakeMissesThenReuses) {
  ScratchArena arena;
  EXPECT_EQ(arena.stats().hits, 0u);
  EXPECT_EQ(arena.stats().misses, 0u);

  { auto lease = arena.take(128); }
  EXPECT_EQ(arena.stats().misses, 1u);

  // Same-or-smaller request reuses the returned buffer: a hit.
  { auto lease = arena.take(64); }
  EXPECT_EQ(arena.stats().hits, 1u);
  EXPECT_EQ(arena.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(arena.stats().hit_rate(), 0.5);
}

TEST(ScratchArenaTest, GrowingRequestIsAMiss) {
  ScratchArena arena;
  { auto lease = arena.take(16); }
  { auto lease = arena.take(1024); }  // must grow: counts as a miss
  EXPECT_EQ(arena.stats().misses, 2u);

  { auto lease = arena.take(1024); }  // now sized: a hit
  EXPECT_EQ(arena.stats().hits, 1u);
}

TEST(ScratchArenaTest, NestedLeasesAreIndependent) {
  ScratchArena arena;
  auto outer = arena.take(32);
  std::memset(outer.data(), 0xab, 32 * sizeof(std::uint64_t));
  {
    auto inner = arena.take(32);
    ASSERT_NE(inner.data(), outer.data());
    std::memset(inner.data(), 0xcd, 32 * sizeof(std::uint64_t));
  }
  EXPECT_EQ(outer.data()[0], 0xababababababababULL);
}

TEST(ScratchArenaTest, TakeZeroedZeroesExactlyTheRequestedWords) {
  ScratchArena arena;
  {  // dirty the buffer first
    auto lease = arena.take(64);
    std::memset(lease.data(), 0xff, 64 * sizeof(std::uint64_t));
  }
  auto lease = arena.take_zeroed(64);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(lease.data()[i], 0u);
}

TEST(ScratchArenaTest, TakeIsSizeAwareAcrossNestingOrders) {
  ScratchArena arena;
  {  // An outer small lease around an inner large one...
    auto outer = arena.take(8);
    auto inner = arena.take(1024);
  }
  // ...returns the small buffer last. A large lease on its own must still
  // find the large buffer, and a small one the small buffer.
  arena.reset_stats();
  {
    auto large = arena.take(1024);
    auto small = arena.take(8);
  }
  EXPECT_EQ(arena.stats().hits, 2u);
  EXPECT_EQ(arena.stats().misses, 0u);
}

TEST(ScratchArenaTest, ResetStatsClearsCounters) {
  ScratchArena arena;
  { auto lease = arena.take(8); }
  arena.reset_stats();
  EXPECT_EQ(arena.stats().hits, 0u);
  EXPECT_EQ(arena.stats().misses, 0u);
}

}  // namespace
}  // namespace ice
