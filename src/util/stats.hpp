// stats.hpp — online and batch statistics.
//
// OnlineStats implements Welford's numerically stable single-pass
// mean/variance; Sample collects values for quantiles and exact moments.
// Both are used pervasively by the metrics module and by property tests
// that verify distributional invariants of the channel substrate.
#pragma once

#include <cstddef>
#include <vector>

#include "util/chunked_array.hpp"

namespace caem::util {

/// Single-pass mean / variance / min / max accumulator (Welford).
class OnlineStats {
 public:
  /// Incorporate one observation.
  void add(double value) noexcept;

  /// Merge another accumulator (parallel reduction; Chan et al. update).
  void merge(const OnlineStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Population variance (n denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const noexcept;
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double sample_variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  void reset() noexcept { *this = OnlineStats{}; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Value collector with exact quantiles.  Stores every observation, 8 B
/// each, in a ChunkedArray: growth never copies what is stored, so a
/// long run's sample costs its size and no transient doubling.  The sum
/// is kept as values arrive (the same additions, in the same order, as
/// summing the stored values), so the mean does not depend on storage
/// order and survives an in-place quantile.
class Sample {
 public:
  void add(double value) {
    values_.push_back(value);
    sum_ += value;
  }

  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  /// Linear-interpolated quantile, q in [0,1]: the value a full sort
  /// would give, bit for bit.  Selects on a copy.
  [[nodiscard]] double quantile(double q) const;
  /// quantile(q) selected in place, with no copy: reorders the stored
  /// values (count, mean, min and max are unaffected).
  [[nodiscard]] double quantile_in_place(double q);
  [[nodiscard]] double median() const { return quantile(0.5); }

  /// The stored values, in insertion order until quantile_in_place.
  [[nodiscard]] const ChunkedArray<double>& values() const noexcept { return values_; }
  void clear() noexcept {
    values_.clear();
    sum_ = 0.0;
  }

 private:
  ChunkedArray<double> values_;
  double sum_ = 0.0;
};

/// Population standard deviation of an arbitrary range of doubles.
/// Used directly by the paper's Fig 12 fairness metric (Equation 3):
/// sigma = sqrt( (1/N) * sum (q_i - q_bar)^2 ).
[[nodiscard]] double population_stddev(const std::vector<double>& values) noexcept;

/// Pearson correlation of two equally sized vectors (NaN-free: returns 0
/// when either side is constant).  Used by channel property tests.
[[nodiscard]] double correlation(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace caem::util
