// Exact integer frequency histogram used by benchmarks and dataset analysis.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tokenmagic::common {

/// Integer-valued frequency histogram (exact buckets, sparse storage).
class Histogram {
 public:
  /// Adds one observation of `value`.
  void Add(int64_t value);
  /// Adds `n` observations of `value`.
  void AddN(int64_t value, int64_t n);

  int64_t count() const { return total_; }
  /// Frequency of exactly `value`.
  int64_t CountOf(int64_t value) const;
  double Mean() const;
  int64_t Min() const;
  int64_t Max() const;
  /// p in [0, 100]; nearest-rank percentile. Requires count() > 0.
  int64_t Percentile(double p) const;

  /// p in [0, 100]; linearly interpolated percentile over the sorted
  /// sample (the R type-7 / numpy default: rank h = p/100 * (n-1) over
  /// 0-indexed order statistics, interpolating between the two values
  /// h falls between). Requires count() > 0. With a single distinct
  /// value every percentile is that value.
  double PercentileInterpolated(double p) const;

  /// Folds every observation of `other` into this histogram (used to
  /// aggregate per-thread latency histograms).
  void MergeFrom(const Histogram& other);

  /// Distinct observed values in ascending order.
  std::vector<int64_t> Values() const;
  /// (value, frequency) pairs in ascending value order.
  const std::map<int64_t, int64_t>& buckets() const { return buckets_; }

  /// Multi-line "value count bar" rendering for terminal output.
  std::string ToAscii(int bar_width = 40) const;

 private:
  std::map<int64_t, int64_t> buckets_;
  int64_t total_ = 0;
};

}  // namespace tokenmagic::common
