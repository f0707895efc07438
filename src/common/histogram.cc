#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/macros.h"

namespace tokenmagic::common {

void Histogram::Add(int64_t value) { AddN(value, 1); }

void Histogram::AddN(int64_t value, int64_t n) {
  TM_CHECK(n >= 0);
  if (n == 0) return;
  buckets_[value] += n;
  total_ += n;
}

int64_t Histogram::CountOf(int64_t value) const {
  auto it = buckets_.find(value);
  return it == buckets_.end() ? 0 : it->second;
}

double Histogram::Mean() const {
  if (total_ == 0) return 0.0;
  double sum = 0.0;
  for (const auto& [value, freq] : buckets_) {
    sum += static_cast<double>(value) * static_cast<double>(freq);
  }
  return sum / static_cast<double>(total_);
}

int64_t Histogram::Min() const {
  TM_CHECK(total_ > 0);
  return buckets_.begin()->first;
}

int64_t Histogram::Max() const {
  TM_CHECK(total_ > 0);
  return buckets_.rbegin()->first;
}

int64_t Histogram::Percentile(double p) const {
  TM_CHECK(total_ > 0);
  TM_CHECK(p >= 0.0 && p <= 100.0);
  // Nearest-rank: the smallest value whose cumulative count reaches rank
  // ceil(p/100 * n). p/100 is not exact in binary (0.1 * 10 rounds up to
  // 1.0000000000000002, whose ceil is 2), so the product is nudged below
  // the nearest representable boundary before taking ceil — otherwise
  // Percentile(10) of 10 samples reports the 2nd order statistic instead
  // of the 1st.
  long double exact = static_cast<long double>(p) *
                      static_cast<long double>(total_) / 100.0L;
  int64_t rank = static_cast<int64_t>(
      std::ceil(exact - 1e-9L * std::max<long double>(exact, 1.0L)));
  rank = std::min(std::max<int64_t>(rank, 1), total_);
  int64_t cumulative = 0;
  for (const auto& [value, freq] : buckets_) {
    cumulative += freq;
    if (cumulative >= rank) return value;
  }
  return buckets_.rbegin()->first;
}

double Histogram::PercentileInterpolated(double p) const {
  TM_CHECK(total_ > 0);
  TM_CHECK(p >= 0.0 && p <= 100.0);
  // Type-7 quantile: h indexes the 0-based sorted sample; interpolate
  // between order statistics floor(h) and floor(h)+1.
  double h = p / 100.0 * static_cast<double>(total_ - 1);
  int64_t lo_rank = static_cast<int64_t>(std::floor(h));  // 0-based
  double frac = h - static_cast<double>(lo_rank);
  int64_t lo_value = 0;
  bool have_lo = false;
  int64_t cumulative = 0;
  for (const auto& [value, freq] : buckets_) {
    cumulative += freq;
    if (!have_lo && cumulative >= lo_rank + 1) {
      lo_value = value;
      have_lo = true;
      // The (lo_rank+1)-th order statistic sits in this bucket; if the
      // next one does too, no interpolation gap exists.
      if (frac == 0.0 || cumulative >= lo_rank + 2) {
        return static_cast<double>(value);
      }
      continue;
    }
    if (have_lo) {
      return static_cast<double>(lo_value) +
             frac * static_cast<double>(value - lo_value);
    }
  }
  return static_cast<double>(have_lo ? lo_value
                                     : buckets_.rbegin()->first);
}

void Histogram::MergeFrom(const Histogram& other) {
  for (const auto& [value, freq] : other.buckets_) {
    buckets_[value] += freq;
  }
  total_ += other.total_;
}

std::vector<int64_t> Histogram::Values() const {
  std::vector<int64_t> out;
  out.reserve(buckets_.size());
  for (const auto& [value, freq] : buckets_) out.push_back(value);
  return out;
}

std::string Histogram::ToAscii(int bar_width) const {
  std::ostringstream os;
  int64_t peak = 0;
  for (const auto& [value, freq] : buckets_) peak = std::max(peak, freq);
  for (const auto& [value, freq] : buckets_) {
    int bar = peak == 0 ? 0
                        : static_cast<int>(static_cast<double>(freq) /
                                           static_cast<double>(peak) *
                                           bar_width);
    os << value << "\t" << freq << "\t" << std::string(bar, '#') << "\n";
  }
  return os.str();
}

}  // namespace tokenmagic::common
