// Test helpers for the serving layer: a bounded predicate poll and a
// clock that pins Selects mid-run, shared by the server and shutdown
// suites.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "common/deadline.h"

namespace tokenmagic::rpc {

/// Spins (bounded) until `pred` holds. Tests synchronize on observable
/// server counters instead of fixed sleeps, so they cannot flake on a
/// slow machine — the predicate either becomes true or the test fails
/// loudly after the cap.
template <typename Pred>
[[nodiscard]] bool WaitUntil(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    // tm-lint: allow(test-sleep, bounded poll interval under a predicate)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// A steady clock that pins a Select until the test releases it. Once
/// armed, the second reading blocks. With one Select in flight the first
/// reading is its admission stamp and the second its selection start —
/// on the reader when it runs inline, on a worker when it was queued —
/// so the Select holds its execution slot exactly as long as the test
/// needs. Arm again to pin one more; Release frees every pinned Select.
class PinClock final : public common::Clock {
 public:
  void Arm() {
    readings_.store(0);
    armed_.store(true);
  }
  void Release() { released_.store(true); }
  /// Number of Selects pinned so far.
  int holding() const { return holding_.load(); }

  int64_t NowNanos() const override {
    if (armed_.load() && readings_.fetch_add(1) == 1 &&
        armed_.exchange(false)) {
      holding_.fetch_add(1);
      (void)WaitUntil([this] { return released_.load(); });
    }
    return common::SteadyClock::Instance()->NowNanos();
  }

 private:
  mutable std::atomic<bool> armed_{false};
  mutable std::atomic<int> readings_{0};
  mutable std::atomic<int> holding_{0};
  std::atomic<bool> released_{false};
};

}  // namespace tokenmagic::rpc
