#include "common/stats.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ice {
namespace {

TEST(StatsTest, EmptyThrows) {
  SampleStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW((void)s.mean(), std::logic_error);
  EXPECT_THROW((void)s.percentile(50), std::logic_error);
}

TEST(StatsTest, SingleSample) {
  SampleStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 42.0);
}

TEST(StatsTest, MeanMinMax) {
  SampleStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_EQ(s.count(), 4u);
}

TEST(StatsTest, PercentileInterpolates) {
  SampleStats s;
  for (double v : {10.0, 20.0, 30.0, 40.0, 50.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 30.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 20.0);
}

TEST(StatsTest, PercentileUnsortedInput) {
  SampleStats s;
  for (double v : {50.0, 10.0, 40.0, 20.0, 30.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(50), 30.0);
}

TEST(StatsTest, StddevKnownValue) {
  SampleStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  // Sample stddev of this classic set is ~2.138.
  EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);
}

}  // namespace
}  // namespace ice
