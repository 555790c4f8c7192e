// Tests for the edge cache: hit/miss accounting, eviction policies, and the
// delayed write-back rules.
#include "mec/edge_cache.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace ice::mec {
namespace {

TEST(EdgeCacheTest, RejectsZeroCapacity) {
  EXPECT_THROW(EdgeCache(0, EvictionPolicy::kLru), ParamError);
}

TEST(EdgeCacheTest, MissThenHit) {
  EdgeCache cache(2, EvictionPolicy::kLru);
  EXPECT_FALSE(cache.get(5).has_value());
  cache.admit(5, {1, 2});
  const auto got = cache.get(5);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (Bytes{1, 2}));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(EdgeCacheTest, LruEvictsLeastRecentlyUsed) {
  EdgeCache cache(2, EvictionPolicy::kLru);
  cache.admit(1, {1});
  cache.admit(2, {2});
  (void)cache.get(1);  // 2 is now LRU
  const auto evicted = cache.admit(3, {3});
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 2u);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(3));
}

TEST(EdgeCacheTest, LfuEvictsLeastFrequentlyUsed) {
  EdgeCache cache(2, EvictionPolicy::kLfu);
  cache.admit(1, {1});
  cache.admit(2, {2});
  (void)cache.get(1);
  (void)cache.get(1);
  (void)cache.get(2);
  const auto evicted = cache.admit(3, {3});
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 2u);
}

TEST(EdgeCacheTest, FifoEvictsOldestAdmission) {
  EdgeCache cache(2, EvictionPolicy::kFifo);
  cache.admit(1, {1});
  cache.admit(2, {2});
  (void)cache.get(1);  // touching must not matter for FIFO
  const auto evicted = cache.admit(3, {3});
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 1u);
}

TEST(EdgeCacheTest, ReadmissionRefreshesInsteadOfEvicting) {
  EdgeCache cache(1, EvictionPolicy::kLru);
  cache.admit(1, {1});
  const auto evicted = cache.admit(1, {9});
  EXPECT_FALSE(evicted.has_value());
  EXPECT_EQ(*cache.get(1), Bytes{9});
}

TEST(EdgeCacheTest, WriteMarksDirtyAndFlushClears) {
  EdgeCache cache(2, EvictionPolicy::kLru);
  cache.admit(1, {1});
  cache.write(1, {7});
  EXPECT_TRUE(cache.dirty(1));
  auto flushed = cache.flush();
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].first, 1u);
  EXPECT_EQ(flushed[0].second, Bytes{7});
  EXPECT_FALSE(cache.dirty(1));
  EXPECT_TRUE(cache.flush().empty());
}

TEST(EdgeCacheTest, WriteToUncachedBlockThrows) {
  EdgeCache cache(1, EvictionPolicy::kLru);
  EXPECT_THROW(cache.write(1, {1}), ParamError);
}

TEST(EdgeCacheTest, DirtyBlocksAreNotEvicted) {
  EdgeCache cache(2, EvictionPolicy::kLru);
  cache.admit(1, {1});
  cache.admit(2, {2});
  cache.write(1, {9});  // dirty and LRU-oldest
  const auto evicted = cache.admit(3, {3});
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 2u);  // clean block evicted instead
  EXPECT_TRUE(cache.contains(1));
}

TEST(EdgeCacheTest, AllDirtyRefusesAdmission) {
  EdgeCache cache(1, EvictionPolicy::kLru);
  cache.admit(1, {1});
  cache.write(1, {2});
  EXPECT_THROW(cache.admit(2, {2}), ProtocolError);
  cache.flush();
  EXPECT_NO_THROW(cache.admit(2, {2}));
}

TEST(EdgeCacheTest, ReadmitDirtyBlockThrows) {
  EdgeCache cache(2, EvictionPolicy::kLru);
  cache.admit(1, {1});
  cache.write(1, {2});
  EXPECT_THROW(cache.admit(1, {3}), ProtocolError);
}

TEST(EdgeCacheTest, CachedIndicesSorted) {
  EdgeCache cache(3, EvictionPolicy::kLru);
  cache.admit(5, {5});
  cache.admit(1, {1});
  cache.admit(3, {3});
  EXPECT_EQ(cache.cached_indices(), (std::vector<std::size_t>{1, 3, 5}));
}

TEST(EdgeCacheTest, RawBlockAllowsSilentCorruption) {
  EdgeCache cache(1, EvictionPolicy::kLru);
  cache.admit(1, {0xaa, 0xbb});
  cache.raw_block(1)[0] = 0x00;
  EXPECT_EQ(*cache.get(1), (Bytes{0x00, 0xbb}));
  EXPECT_FALSE(cache.dirty(1));  // corruption is silent
  EXPECT_THROW((void)cache.raw_block(2), ParamError);
}

}  // namespace
}  // namespace ice::mec
