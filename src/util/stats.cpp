#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace caem::util {

void OnlineStats::add(double value) noexcept {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
}

double OnlineStats::sample_variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double Sample::mean() const noexcept {
  return values_.empty() ? 0.0 : sum_ / static_cast<double>(values_.size());
}

double Sample::min() const noexcept {
  return values_.empty() ? 0.0 : *std::min_element(values_.begin(), values_.end());
}

double Sample::max() const noexcept {
  return values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
}

namespace {

// The interpolation reads ranks lo and lo + 1 of the sorted range.
// nth_element puts rank lo in place with every larger rank after it, so
// rank lo + 1 is the minimum of that tail: an exact O(n) selection that
// returns the very values a full sort would.
template <class It>
double select_quantile(It first, It last, double q) {
  const auto n = static_cast<std::size_t>(last - first);
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const It at_lo = first + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(first, at_lo, last);
  const double below = *at_lo;
  const double above = lo + 1 < n ? *std::min_element(at_lo + 1, last) : below;
  return below * (1.0 - frac) + above * frac;
}

}  // namespace

double Sample::quantile(double q) const {
  std::vector<double> copy(values_.begin(), values_.end());
  return select_quantile(copy.begin(), copy.end(), q);
}

double Sample::quantile_in_place(double q) {
  return select_quantile(values_.begin(), values_.end(), q);
}

double population_stddev(const std::vector<double>& values) noexcept {
  if (values.size() < 1) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  const double mean = sum / static_cast<double>(values.size());
  double sq = 0.0;
  for (const double v : values) sq += (v - mean) * (v - mean);
  return std::sqrt(sq / static_cast<double>(values.size()));
}

double correlation(const std::vector<double>& a, const std::vector<double>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  if (n < 2) return 0.0;
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va <= 0.0 || vb <= 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

}  // namespace caem::util
