// Pins the benchmark's metric math: the median, the rule that a tail
// percentile needs kMinSamplesBeyond samples beyond it, and freshness
// attribution on synthetic open-loop schedules.
#include "metrics.h"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(TailPercentile, NearestRankWithEnoughSamplesBeyond) {
  // 1200 chunks (one live pass): p99 is rank 1188, 12 samples beyond.
  const auto p99 = TailPercentile(Ramp(1200), 99.0);
  ASSERT_TRUE(p99.has_value());
  EXPECT_DOUBLE_EQ(p99->value, 1188.0);
  EXPECT_EQ(p99->samples, 1200u);
  EXPECT_EQ(p99->beyond, 12u);
}

TEST(TailPercentile, ExactlyTenBeyondIsReportable) {
  const auto p99 = TailPercentile(Ramp(1000), 99.0);
  ASSERT_TRUE(p99.has_value());
  EXPECT_DOUBLE_EQ(p99->value, 990.0);
  EXPECT_EQ(p99->beyond, 10u);
}

TEST(TailPercentile, NineBeyondIsNotReportable) {
  // rank ceil(989.01) = 990 leaves 9 samples beyond.
  EXPECT_FALSE(TailPercentile(Ramp(999), 99.0).has_value());
  EXPECT_FALSE(TailPercentile(Ramp(12), 90.0).has_value());
  EXPECT_FALSE(TailPercentile({}, 50.0).has_value());
}

TEST(TailPercentile, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = Ramp(200);
  std::reverse(v.begin(), v.end());
  const auto p90 = TailPercentile(v, 90.0);
  ASSERT_TRUE(p90.has_value());
  EXPECT_DOUBLE_EQ(p90->value, 180.0);
  EXPECT_EQ(p90->beyond, 20u);
}

TEST(AttributeFreshness, FirstPollBeginningAfterPublish) {
  // Chunks due every 10 units, published 1 unit late.
  const std::vector<ChunkTimes> chunks = {{10, 11}, {20, 21}, {30, 31}};
  const std::vector<PollTimes> polls = {
      {5, 12},   // began before chunk 1 was published: serves nothing
      {11, 15},  // begins exactly at chunk 1's publish: serves it
      {22, 40},  // long poll: chunk 2 only
      {40, 41},  // chunk 3 was published mid-poll above, served here
  };
  const auto f = AttributeFreshness(chunks, polls, false);
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], 15 - 10);
  EXPECT_EQ(f[1], 40 - 20);
  EXPECT_EQ(f[2], 41 - 30);
}

TEST(AttributeFreshness, LateGeneratorDelayCountsFromDueTime) {
  // The writer stalled: chunk 2 was due at 20 but published at 35.  Its
  // freshness includes the 15 units the generator ran late.
  const std::vector<ChunkTimes> chunks = {{10, 10}, {20, 35}};
  const std::vector<PollTimes> polls = {{10, 12}, {35, 37}};
  const auto f = AttributeFreshness(chunks, polls, false);
  EXPECT_EQ(f[0], 2);
  EXPECT_EQ(f[1], 37 - 20);
}

TEST(AttributeFreshness, ChunkWithoutLaterPollIsUnserved) {
  const std::vector<ChunkTimes> chunks = {{10, 10}, {20, 20}};
  const std::vector<PollTimes> polls = {{10, 12}};
  const auto f = AttributeFreshness(chunks, polls, false);
  EXPECT_EQ(f[0], 2);
  EXPECT_FALSE(f[1].has_value());
}

TEST(AttributeFreshness, ChunksDuringTheCompletingPollAreServedAtItsEnd) {
  // A burst drain: the last poll began at 15 and ran past the final two
  // publishes, finishing the stream at 50.
  const std::vector<ChunkTimes> chunks = {{10, 10}, {20, 20}, {30, 30}};
  const std::vector<PollTimes> polls = {{10, 12}, {15, 50}};
  const auto f = AttributeFreshness(chunks, polls, true);
  EXPECT_EQ(f[0], 2);
  EXPECT_EQ(f[1], 50 - 20);
  EXPECT_EQ(f[2], 50 - 30);
}

}  // namespace
}  // namespace perfbench
