// TryAdmit/Close race pinned under the race detector: producers hammer
// the queue while Close() lands mid-stream. The drain invariant must
// hold exactly — every admission acknowledged kRun is run once by its
// producer and every one acknowledged kQueued comes out of Pop exactly
// once (nothing admitted is dropped at shutdown), admissions after
// close answer kClosed, every consumer wakes, and AwaitIdle returns
// once the last slot is released. Runs in the
// `concurrency` ctest label so the TSan lane exercises it.
#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "rpc/bounded_queue.h"

namespace tokenmagic::rpc {
namespace {

TEST(BoundedQueueRaceTest, TryPushCloseRaceDrainsExactlyTheAdmitted) {
  constexpr int kRounds = 25;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 2;
  constexpr int kCloseAfter = 200;  ///< admitted items before Close lands

  for (int round = 0; round < kRounds; ++round) {
    BoundedQueue<int> queue(16, 2);
    std::atomic<bool> go{false};
    std::atomic<int> admitted{0};
    std::atomic<int> ran{0};

    // Producers push until the queue closes on them — kFull is a shed,
    // not an exit, so the close threshold below is always reached.
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0;; ++i) {
          size_t slot = 0;
          switch (queue.TryAdmit(&i, &slot)) {
            case BoundedQueue<int>::Admit::kRun:
              admitted.fetch_add(1);
              ran.fetch_add(1);
              queue.Release(slot);
              break;
            case BoundedQueue<int>::Admit::kQueued:
              admitted.fetch_add(1);
              break;
            case BoundedQueue<int>::Admit::kFull:
              std::this_thread::yield();  // shed; let a consumer drain
              break;
            case BoundedQueue<int>::Admit::kClosed:
              return;  // close is terminal for this producer
          }
        }
      });
    }

    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
      consumers.emplace_back([&] {
        while (auto popped = queue.Pop()) {
          ran.fetch_add(1);
          if (popped->slot != BoundedQueue<int>::kNoSlot) {
            queue.Release(popped->slot);
          }
        }
      });
    }

    std::thread closer([&] {
      // Land the close somewhere inside the producer burst.
      while (admitted.load() < kCloseAfter) std::this_thread::yield();
      queue.Close();
    });

    go.store(true);
    for (auto& t : producers) t.join();
    closer.join();
    for (auto& t : consumers) t.join();
    queue.AwaitIdle();

    // Exact conservation: acknowledged == run or drained.
    EXPECT_EQ(admitted.load(), ran.load()) << "round " << round;
    EXPECT_GE(admitted.load(), kCloseAfter);
    // Close is sticky.
    int late = 0;
    size_t slot = 0;
    EXPECT_EQ(queue.TryAdmit(&late, &slot),
              BoundedQueue<int>::Admit::kClosed);
    EXPECT_FALSE(queue.Pop().has_value());
  }
}

}  // namespace
}  // namespace tokenmagic::rpc
