// Wall-clock timing helper for benchmarks and experiment harnesses.
#pragma once

#include <chrono>
#include <cstdint>

namespace tokenmagic::common {

/// High-resolution stopwatch. Starts running on construction.
class StopWatch {
 public:
  StopWatch() { Restart(); }

  /// Resets the start point to now.
  void Restart();

  /// Elapsed time since construction/Restart, in nanoseconds.
  int64_t ElapsedNanos() const;
  double ElapsedMillis() const;
  double ElapsedSeconds() const;

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace tokenmagic::common
