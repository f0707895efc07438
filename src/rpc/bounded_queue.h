// Bounded admission queue with execution slots and typed shedding.
//
// The serving layer admits each Select one of three ways (DESIGN.md
// decisions 11 and 20):
//   * run now — one of the `slots` execution slots is free and nothing is
//     queued: the caller takes the slot and runs the item itself;
//   * queue   — otherwise, if fewer than `capacity` items wait, the item
//     is queued and a consumer runs it once a slot frees up;
//   * shed    — otherwise the caller answers Overloaded instead of
//     buffering without bound and converting overload into unbounded
//     latency and memory.
// One mutex guards both the items and the free slots, and a consumer
// takes a slot only together with the queue head, so a released slot
// goes to the oldest queued item before any new arrival: nothing queued
// is overtaken or stranded. TryAdmit never blocks; only consumers (Pop)
// and the shutdown barrier (AwaitIdle) wait. Closing the queue wakes
// every consumer; items still queued keep coming out of Pop, without a
// slot, so shutdown can answer each of them with a typed Cancelled —
// nothing is silently dropped.
//
// This header and worker_pool.h are the only files in src/rpc/ allowed to
// hold raw synchronization/thread primitives (tm_lint check 9 bans
// std::queue/std::thread elsewhere in the module). The queue uses
// std::mutex + std::condition_variable directly rather than the annotated
// common::Mutex: condition_variable needs the standard BasicLockable
// surface, which the capability wrappers deliberately do not expose, and
// no member here is shared outside this class.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace tokenmagic::rpc {

template <typename T>
class BoundedQueue {
 public:
  enum class Admit {
    kRun = 0,  ///< slot taken: the caller runs the item now
    kQueued,   ///< item queued for a consumer
    kFull,     ///< shed: capacity reached, item NOT queued
    kClosed,   ///< shutting down, item NOT queued
  };

  /// Slot of an item drained after Close(): it must not run.
  static constexpr size_t kNoSlot = SIZE_MAX;

  /// A queued item and the slot it runs in.
  struct Popped {
    T item;
    size_t slot;
  };

  BoundedQueue(size_t capacity, size_t slots)
      : capacity_(capacity), slots_(slots) {
    TM_CHECK(capacity_ > 0);
    TM_CHECK(slots_ > 0);
    // A stack with the lowest slot on top, so a closed loop keeps
    // running in slot 0.
    for (size_t s = slots_; s > 0; --s) free_.push_back(s - 1);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking three-way admission. kRun stores the slot the caller
  /// now holds (and must Release) in `*slot`; kQueued moves `*item` into
  /// the queue; kFull and kClosed leave it untouched.
  [[nodiscard]] Admit TryAdmit(T* item, size_t* slot) {
    bool runnable = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return Admit::kClosed;
      if (items_.empty() && !free_.empty()) {
        *slot = free_.back();
        free_.pop_back();
        return Admit::kRun;
      }
      if (items_.size() >= capacity_) return Admit::kFull;
      items_.push_back(std::move(*item));
      runnable = !free_.empty();
    }
    if (runnable) cv_.notify_one();
    return Admit::kQueued;
  }

  /// Blocks until the queue head and a free slot are both available, and
  /// takes both. Once closed, queued items keep coming out with kNoSlot
  /// (drain semantics); then nullopt.
  std::optional<Popped> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return closed_ || (!items_.empty() && !free_.empty());
    });
    if (items_.empty()) return std::nullopt;
    Popped popped{std::move(items_.front()), kNoSlot};
    items_.pop_front();
    if (!closed_) {
      popped.slot = free_.back();
      free_.pop_back();
    }
    return popped;
  }

  /// Returns a slot taken by TryAdmit or Pop; it goes to the queue head
  /// first.
  void Release(size_t slot) {
    TM_DCHECK(slot < slots_);
    bool wake_consumer = false;
    bool idle = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      free_.push_back(slot);
      wake_consumer = !items_.empty();
      idle = closed_ && free_.size() == slots_;
    }
    if (wake_consumer) cv_.notify_one();
    if (idle) idle_cv_.notify_all();
  }

  /// Rejects further admissions and wakes every blocked consumer.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// After Close(): blocks until every slot is released. No slot can be
  /// taken once closed, so this waits out exactly the runs in flight.
  void AwaitIdle() {
    std::unique_lock<std::mutex> lock(mu_);
    TM_CHECK(closed_);
    idle_cv_.wait(lock, [this] { return free_.size() == slots_; });
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  const size_t slots_;
  mutable std::mutex mu_;
  std::condition_variable cv_;       ///< consumers: head + free slot
  std::condition_variable idle_cv_;  ///< AwaitIdle: every slot free
  std::deque<T> items_;
  std::vector<size_t> free_;
  bool closed_ = false;
};

}  // namespace tokenmagic::rpc
