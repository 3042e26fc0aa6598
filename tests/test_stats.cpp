// Tests for util::OnlineStats / Sample / helper statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time_series.hpp"

namespace caem::util {
namespace {

TEST(OnlineStats, MatchesDirectComputation) {
  OnlineStats stats;
  const std::vector<double> values{1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0.0;
  for (const double v : values) {
    stats.add(v);
    sum += v;
  }
  const double mean = sum / 5.0;
  double sq = 0.0;
  for (const double v : values) sq += (v - mean) * (v - mean);
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_DOUBLE_EQ(stats.mean(), mean);
  EXPECT_NEAR(stats.variance(), sq / 5.0, 1e-12);
  EXPECT_NEAR(stats.sample_variance(), sq / 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 16.0);
  EXPECT_NEAR(stats.sum(), 31.0, 1e-12);
}

TEST(OnlineStats, EmptyAndSingle) {
  OnlineStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.variance(), 0.0);
  stats.add(3.0);
  EXPECT_EQ(stats.mean(), 3.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
}

TEST(OnlineStats, MergeEqualsConcatenation) {
  OnlineStats left, right, all;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i * 0.7) * 10.0;
    (i % 2 ? left : right).add(v);
    all.add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-10);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), mean);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.mean(), mean);
}

TEST(Sample, QuantilesOnKnownData) {
  Sample sample;
  for (int i = 1; i <= 100; ++i) sample.add(i);
  EXPECT_DOUBLE_EQ(sample.min(), 1.0);
  EXPECT_DOUBLE_EQ(sample.max(), 100.0);
  EXPECT_NEAR(sample.median(), 50.5, 1e-9);
  EXPECT_NEAR(sample.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(sample.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(sample.quantile(0.25), 25.75, 1e-9);
  EXPECT_NEAR(sample.mean(), 50.5, 1e-9);
}

TEST(Sample, EmptyIsSafe) {
  Sample sample;
  EXPECT_EQ(sample.mean(), 0.0);
  EXPECT_EQ(sample.quantile(0.5), 0.0);
  EXPECT_EQ(sample.quantile_in_place(0.5), 0.0);
}

// The quantile code before selection: sort a copy, interpolate.
double sorted_copy_quantile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

// Selection (on a copy, and in place) against the sort-a-copy oracle,
// bit for bit, on samples with many ties; the mean is the insertion-order
// sum whatever the selection did to the storage order.
TEST(Sample, SelectionMatchesSortedCopyBitForBit) {
  Rng rng(2005, "sample-oracle");
  for (const std::size_t n : {1u, 2u, 3u, 1000u}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> values;
      for (std::size_t i = 0; i < n; ++i) {
        // A coarse grid makes ties common; the exponential tail does not.
        values.push_back(rng.bernoulli(0.5) ? std::floor(rng.uniform(0.0, 8.0)) * 0.125
                                            : rng.exponential_mean(0.3));
      }
      double insertion_sum = 0.0;
      for (const double v : values) insertion_sum += v;
      for (const double q : {0.0, 0.5, 0.95, 1.0}) {
        Sample sample;
        for (const double v : values) sample.add(v);
        const double expected = sorted_copy_quantile(values, q);
        EXPECT_EQ(bits(sample.quantile(q)), bits(expected)) << "n " << n << " q " << q;
        EXPECT_EQ(bits(sample.quantile_in_place(q)), bits(expected)) << "n " << n << " q " << q;
        EXPECT_EQ(bits(sample.quantile_in_place(q)), bits(expected)) << "again, n " << n;
        EXPECT_EQ(bits(sample.mean()), bits(insertion_sum / static_cast<double>(n)));
        EXPECT_EQ(sample.count(), n);
      }
    }
  }
}

TEST(PopulationStddev, MatchesHandComputation) {
  EXPECT_DOUBLE_EQ(population_stddev({2.0, 2.0, 2.0}), 0.0);
  // {1, 3}: mean 2, var ((1)^2+(1)^2)/2 = 1
  EXPECT_DOUBLE_EQ(population_stddev({1.0, 3.0}), 1.0);
  EXPECT_EQ(population_stddev({}), 0.0);
}

TEST(Correlation, PerfectAndNone) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 6, 8, 10};
  const std::vector<double> z{5, 5, 5, 5, 5};
  EXPECT_NEAR(correlation(x, y), 1.0, 1e-12);
  std::vector<double> neg = y;
  for (double& v : neg) v = -v;
  EXPECT_NEAR(correlation(x, neg), -1.0, 1e-12);
  EXPECT_EQ(correlation(x, z), 0.0);  // constant side -> defined as 0
}

TEST(Histogram, BinningAndOverflow) {
  Histogram hist(0.0, 10.0, 10);
  hist.add(-1.0);
  hist.add(0.0);
  hist.add(5.5);
  hist.add(9.999);
  hist.add(10.0);
  hist.add(42.0);
  EXPECT_DOUBLE_EQ(hist.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(hist.overflow(), 2.0);
  EXPECT_DOUBLE_EQ(hist.count(0), 1.0);
  EXPECT_DOUBLE_EQ(hist.count(5), 1.0);
  EXPECT_DOUBLE_EQ(hist.count(9), 1.0);
  EXPECT_DOUBLE_EQ(hist.total(), 6.0);
  EXPECT_NEAR(hist.density(0), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(hist.bin_center(0), 0.5);
}

TEST(Histogram, WeightsAndValidation) {
  Histogram hist(0.0, 1.0, 4);
  hist.add(0.1, 2.5);
  EXPECT_DOUBLE_EQ(hist.count(0), 2.5);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(TimeSeries, InterpolationAndClamping) {
  TimeSeries series;
  series.add(0.0, 10.0);
  series.add(10.0, 0.0);
  EXPECT_DOUBLE_EQ(series.value_at(-5.0), 10.0);
  EXPECT_DOUBLE_EQ(series.value_at(5.0), 5.0);
  EXPECT_DOUBLE_EQ(series.value_at(20.0), 0.0);
}

TEST(TimeSeries, StepSemantics) {
  TimeSeries series;
  series.add(0.0, 100.0);
  series.add(5.0, 90.0);
  series.add(7.0, 80.0);
  EXPECT_DOUBLE_EQ(series.step_value_at(4.999), 100.0);
  EXPECT_DOUBLE_EQ(series.step_value_at(5.0), 90.0);
  EXPECT_DOUBLE_EQ(series.step_value_at(100.0), 80.0);
}

TEST(TimeSeries, FirstTimeBelowInterpolates) {
  TimeSeries series;
  series.add(0.0, 10.0);
  series.add(10.0, 0.0);
  EXPECT_NEAR(series.first_time_below(5.0), 5.0, 1e-12);
  EXPECT_NEAR(series.first_time_below(10.0), 0.0, 1e-12);
  EXPECT_LT(series.first_time_below(-1.0), 0.0);  // never crossed
}

TEST(TimeSeries, RejectsTimeRegression) {
  TimeSeries series;
  series.add(5.0, 1.0);
  EXPECT_THROW(series.add(4.0, 1.0), std::invalid_argument);
  EXPECT_NO_THROW(series.add(5.0, 2.0));  // equal times allowed (step drop)
}

TEST(TimeSeries, IntegralTrapezoid) {
  TimeSeries series;
  series.add(0.0, 0.0);
  series.add(2.0, 4.0);  // triangle area 4
  series.add(4.0, 0.0);  // another 4
  EXPECT_NEAR(series.integral(), 8.0, 1e-12);
}

TEST(TimeSeries, Resample) {
  TimeSeries series;
  series.add(0.0, 0.0);
  series.add(10.0, 10.0);
  const TimeSeries grid = series.resample(0.0, 10.0, 11);
  ASSERT_EQ(grid.size(), 11u);
  EXPECT_DOUBLE_EQ(grid.points()[3].time_s, 3.0);
  EXPECT_NEAR(grid.points()[3].value, 3.0, 1e-12);
}

}  // namespace
}  // namespace caem::util
