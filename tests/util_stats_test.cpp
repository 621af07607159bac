#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace corelocate::util {
namespace {

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, MeanBasic) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
}

TEST(Stats, VarianceAndStddev) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(variance(v), 4.0);
  EXPECT_DOUBLE_EQ(stddev(v), 2.0);
}

TEST(Stats, VarianceOfSingletonIsZero) {
  const std::vector<double> v{42.0};
  EXPECT_DOUBLE_EQ(variance(v), 0.0);
}

TEST(Stats, MedianOddEven) {
  const std::vector<double> odd{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 5.0);
}

TEST(Stats, PercentileClampsOutOfRangeQ) {
  const std::vector<double> v{1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 150.0), 2.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> v{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_of(v), -1.0);
  EXPECT_DOUBLE_EQ(max_of(v), 7.0);
}

TEST(Histogram, BinsAndBounds) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.0);
  h.add(1.9);
  h.add(9.99);
  h.add(10.0);   // past [lo, hi): the last bin
  h.add(-0.01);  // below lo: the first bin
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count_in(0), 3u);
  EXPECT_EQ(h.count_in(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_low(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_high(0), 2.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, MergeSumsBins) {
  Histogram a(0.0, 10.0, 5);
  Histogram b(0.0, 10.0, 5);
  a.add(1.0);
  b.add(1.5);
  b.add(9.0);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.count_in(0), 2u);
  EXPECT_EQ(a.count_in(4), 1u);
}

TEST(Histogram, MergeRejectsMismatchedShape) {
  Histogram a(0.0, 10.0, 5);
  Histogram b(0.0, 10.0, 10);
  Histogram c(0.0, 5.0, 5);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Histogram, PercentileFromBins) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 9; ++i) h.add(0.5);  // bin [0,1)
  h.add(9.5);                              // bin [9,10)
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.5);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 9.5);
  EXPECT_DOUBLE_EQ(Histogram(0.0, 1.0, 2).percentile(50.0), 0.0);  // empty
}

TEST(Histogram, PercentileEdgeCases) {
  // Empty histogram: every percentile is 0, including the extremes.
  const Histogram empty(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(empty.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(100.0), 0.0);

  // Single sample: p0 == p50 == p100 == that sample's bin midpoint.
  Histogram single(0.0, 10.0, 10);
  single.add(7.2);  // bin [7,8), midpoint 7.5
  EXPECT_DOUBLE_EQ(single.percentile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(single.percentile(50.0), 7.5);
  EXPECT_DOUBLE_EQ(single.percentile(100.0), 7.5);

  // p0 is the lowest *populated* bin, not bin 0: with samples only in
  // [7,8) and [9,10), p0 must skip the empty low bins.
  Histogram sparse(0.0, 10.0, 10);
  sparse.add(7.2);
  sparse.add(9.9);
  EXPECT_DOUBLE_EQ(sparse.percentile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(sparse.percentile(100.0), 9.5);

  // Out-of-range q is clamped to [0, 100].
  EXPECT_DOUBLE_EQ(sparse.percentile(-10.0), sparse.percentile(0.0));
  EXPECT_DOUBLE_EQ(sparse.percentile(250.0), sparse.percentile(100.0));
}

TEST(Histogram, OutOfRangeSamplesClampIntoEdgeBins) {
  // A slow request past the range is the tail a p99 exists to show: it
  // must count, in the last bin, and an early one in the first.
  Histogram ranged(0.0, 10.0, 10);
  ranged.add(3.5);
  ranged.add(-5.0);
  ranged.add(50.0);
  EXPECT_EQ(ranged.total(), 3u);
  EXPECT_EQ(ranged.count_in(0), 1u);
  EXPECT_EQ(ranged.count_in(9), 1u);
  EXPECT_DOUBLE_EQ(ranged.percentile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(ranged.percentile(100.0), 9.5);

  ranged.add(std::numeric_limits<double>::infinity());
  ranged.add(std::numeric_limits<double>::quiet_NaN());  // not a sample
  EXPECT_EQ(ranged.total(), 4u);
  EXPECT_EQ(ranged.count_in(9), 2u);
}

}  // namespace
}  // namespace corelocate::util
