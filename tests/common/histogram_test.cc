#include "common/histogram.h"

#include <gtest/gtest.h>

namespace tokenmagic::common {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.CountOf(5), 0);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, AddAndCount) {
  Histogram h;
  h.Add(2);
  h.Add(2);
  h.Add(3);
  h.AddN(7, 4);
  EXPECT_EQ(h.count(), 7);
  EXPECT_EQ(h.CountOf(2), 2);
  EXPECT_EQ(h.CountOf(3), 1);
  EXPECT_EQ(h.CountOf(7), 4);
  EXPECT_EQ(h.CountOf(99), 0);
}

TEST(HistogramTest, AddNZeroIsNoOp) {
  Histogram h;
  h.AddN(5, 0);
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.CountOf(5), 0);
}

TEST(HistogramTest, MinMaxMean) {
  Histogram h;
  h.Add(-5);
  h.Add(0);
  h.Add(5);
  h.Add(10);
  EXPECT_EQ(h.Min(), -5);
  EXPECT_EQ(h.Max(), 10);
  EXPECT_DOUBLE_EQ(h.Mean(), 2.5);
}

TEST(HistogramTest, PercentileNearestRank) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.Percentile(50), 50);
  EXPECT_EQ(h.Percentile(90), 90);
  EXPECT_EQ(h.Percentile(100), 100);
  EXPECT_EQ(h.Percentile(0), 1);
  EXPECT_EQ(h.Percentile(1), 1);
}

TEST(HistogramTest, PercentileNearestRankExactBoundaries) {
  // ceil(p/100 * n) must use the exact rank at representable boundaries:
  // with 10 samples, p=10 is exactly rank 1, not rank 2 (the naive float
  // product 0.1 * 10 rounds up past 1.0).
  Histogram h;
  for (int i = 1; i <= 10; ++i) h.Add(i);
  EXPECT_EQ(h.Percentile(10), 1);
  EXPECT_EQ(h.Percentile(20), 2);
  EXPECT_EQ(h.Percentile(30), 3);
  EXPECT_EQ(h.Percentile(50), 5);
  EXPECT_EQ(h.Percentile(70), 7);
  EXPECT_EQ(h.Percentile(99), 10);
}

TEST(HistogramTest, PercentileInterpolatedMedian) {
  Histogram odd;
  for (int v : {1, 2, 3, 4, 5}) odd.Add(v);
  EXPECT_DOUBLE_EQ(odd.PercentileInterpolated(50), 3.0);

  Histogram even;
  for (int v : {1, 2, 3, 4}) even.Add(v);
  // Interpolated median of {1,2,3,4} is 2.5; nearest-rank reports 2.
  EXPECT_DOUBLE_EQ(even.PercentileInterpolated(50), 2.5);
  EXPECT_EQ(even.Percentile(50), 2);
}

TEST(HistogramTest, PercentileInterpolatedTails) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(i);
  // Type-7 on 1..1000: h = p/100 * 999 over 0-based order statistics.
  EXPECT_DOUBLE_EQ(h.PercentileInterpolated(0), 1.0);
  EXPECT_DOUBLE_EQ(h.PercentileInterpolated(100), 1000.0);
  EXPECT_NEAR(h.PercentileInterpolated(50), 500.5, 1e-9);
  EXPECT_NEAR(h.PercentileInterpolated(99), 1 + 0.99 * 999, 1e-9);
  EXPECT_NEAR(h.PercentileInterpolated(99.9), 1 + 0.999 * 999, 1e-9);
}

TEST(HistogramTest, PercentileInterpolatedSingleBucket) {
  Histogram h;
  h.AddN(42, 17);
  for (double p : {0.0, 50.0, 99.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(h.PercentileInterpolated(p), 42.0) << p;
    EXPECT_EQ(h.Percentile(p), 42) << p;
  }
}

TEST(HistogramTest, PercentileInterpolatedSingleSample) {
  Histogram h;
  h.Add(-7);
  EXPECT_DOUBLE_EQ(h.PercentileInterpolated(0), -7.0);
  EXPECT_DOUBLE_EQ(h.PercentileInterpolated(99.9), -7.0);
}

TEST(HistogramTest, PercentileInterpolatedHeavyBuckets) {
  // 90 observations of 1 and 10 of 2: p99 interpolates inside the gap.
  Histogram h;
  h.AddN(1, 90);
  h.AddN(2, 10);
  // h = 0.99 * 99 = 98.01 -> between the 99th (2) and 100th (2) samples.
  EXPECT_DOUBLE_EQ(h.PercentileInterpolated(99), 2.0);
  // h = 0.5 * 99 = 49.5 -> both straddling samples are 1.
  EXPECT_DOUBLE_EQ(h.PercentileInterpolated(50), 1.0);
  // h = 0.9 * 99 = 89.1 -> between the 90th sample (1) and 91st (2).
  EXPECT_NEAR(h.PercentileInterpolated(90), 1.0 + 0.1, 1e-9);
}

TEST(HistogramTest, MergeFromAggregates) {
  Histogram a;
  a.AddN(1, 3);
  a.Add(5);
  Histogram b;
  b.AddN(1, 2);
  b.Add(9);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 7);
  EXPECT_EQ(a.CountOf(1), 5);
  EXPECT_EQ(a.CountOf(5), 1);
  EXPECT_EQ(a.CountOf(9), 1);
  // Merging an empty histogram is a no-op.
  a.MergeFrom(Histogram());
  EXPECT_EQ(a.count(), 7);
}

TEST(HistogramTest, ValuesSortedAscending) {
  Histogram h;
  h.Add(9);
  h.Add(-1);
  h.Add(4);
  EXPECT_EQ(h.Values(), (std::vector<int64_t>{-1, 4, 9}));
}

TEST(HistogramTest, AsciiRenderingContainsEveryBucket) {
  Histogram h;
  h.AddN(1, 10);
  h.AddN(2, 5);
  std::string ascii = h.ToAscii(10);
  EXPECT_NE(ascii.find("1\t10"), std::string::npos);
  EXPECT_NE(ascii.find("2\t5"), std::string::npos);
  // The peak bucket gets the full bar.
  EXPECT_NE(ascii.find("##########"), std::string::npos);
}

}  // namespace
}  // namespace tokenmagic::common
