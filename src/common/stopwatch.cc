#include "common/stopwatch.h"

namespace tokenmagic::common {

void StopWatch::Restart() { start_ = std::chrono::steady_clock::now(); }

int64_t StopWatch::ElapsedNanos() const {
  auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_)
      .count();
}

double StopWatch::ElapsedMillis() const {
  return static_cast<double>(ElapsedNanos()) / 1e6;
}

double StopWatch::ElapsedSeconds() const {
  return static_cast<double>(ElapsedNanos()) / 1e9;
}

}  // namespace tokenmagic::common
