// BoundedQueue semantics: three-way admission (run now / queue / shed),
// released slots going to the queue head first, drain-after-close,
// blocking consumers woken by Close, and multi-producer/consumer
// accounting.
#include "rpc/bounded_queue.h"

#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace tokenmagic::rpc {
namespace {

using Queue = BoundedQueue<int>;
using Admit = Queue::Admit;

/// Admits `value`, discarding the slot of a kRun.
Admit Push(Queue* queue, int value) {
  size_t slot = 0;
  return queue->TryAdmit(&value, &slot);
}

TEST(BoundedQueueTest, RunsNowWhileASlotIsFreeAndNothingQueued) {
  Queue queue(4, 2);
  int item = 1;
  size_t first = Queue::kNoSlot;
  size_t second = Queue::kNoSlot;
  EXPECT_EQ(queue.TryAdmit(&item, &first), Admit::kRun);
  EXPECT_EQ(queue.TryAdmit(&item, &second), Admit::kRun);
  EXPECT_EQ(first, 0u);  // lowest free slot first
  EXPECT_EQ(second, 1u);
  EXPECT_EQ(queue.size(), 0u);
  // Both slots busy: the next admission queues instead.
  EXPECT_EQ(Push(&queue, 2), Admit::kQueued);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(BoundedQueueTest, ReleasedSlotGoesToTheQueueHeadFirst) {
  Queue queue(4, 1);
  int item = 0;
  size_t slot = Queue::kNoSlot;
  ASSERT_EQ(queue.TryAdmit(&item, &slot), Admit::kRun);
  ASSERT_EQ(Push(&queue, 10), Admit::kQueued);
  queue.Release(slot);
  // The slot is free but an item is queued: a new arrival must queue
  // behind it, not overtake it.
  EXPECT_EQ(Push(&queue, 11), Admit::kQueued);
  auto head = queue.Pop();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->item, 10);
  EXPECT_EQ(head->slot, slot);
  queue.Release(head->slot);
  auto next = queue.Pop();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->item, 11);
  queue.Release(next->slot);
  // Queue empty, slot free: run now again.
  EXPECT_EQ(queue.TryAdmit(&item, &slot), Admit::kRun);
}

TEST(BoundedQueueTest, ShedsWhenFullInsteadOfBlocking) {
  Queue queue(2, 1);
  int item = 0;
  size_t slot = Queue::kNoSlot;
  ASSERT_EQ(queue.TryAdmit(&item, &slot), Admit::kRun);
  EXPECT_EQ(Push(&queue, 1), Admit::kQueued);
  EXPECT_EQ(Push(&queue, 2), Admit::kQueued);
  EXPECT_EQ(Push(&queue, 3), Admit::kFull);
  EXPECT_EQ(queue.size(), 2u);
  // Popping frees a queue place; admission resumes.
  queue.Release(slot);
  EXPECT_EQ(queue.Pop().value().item, 1);
  EXPECT_EQ(Push(&queue, 4), Admit::kQueued);
}

TEST(BoundedQueueTest, ClosedQueueRefusesPushesTyped) {
  Queue queue(4, 1);
  ASSERT_EQ(Push(&queue, 1), Admit::kRun);
  queue.Close();
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(Push(&queue, 2), Admit::kClosed);
}

TEST(BoundedQueueTest, DrainsQueuedItemsAfterClose) {
  // Shutdown semantics: items admitted before Close keep coming out so
  // every one of them can be answered (with Cancelled) — only then does
  // Pop return nullopt. Nothing is silently dropped, and a drained item
  // carries no slot even though the slot is held elsewhere.
  Queue queue(4, 1);
  int item = 0;
  size_t slot = Queue::kNoSlot;
  ASSERT_EQ(queue.TryAdmit(&item, &slot), Admit::kRun);
  ASSERT_EQ(Push(&queue, 10), Admit::kQueued);
  ASSERT_EQ(Push(&queue, 11), Admit::kQueued);
  queue.Close();
  auto first = queue.Pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->item, 10);
  EXPECT_EQ(first->slot, Queue::kNoSlot);
  EXPECT_EQ(queue.Pop().value().item, 11);
  EXPECT_FALSE(queue.Pop().has_value());
  EXPECT_FALSE(queue.Pop().has_value());  // stays empty, never blocks
  queue.Release(slot);
  queue.AwaitIdle();  // every slot free: returns at once
}

TEST(BoundedQueueTest, AwaitIdleWaitsForTheRunsInFlight) {
  Queue queue(4, 2);
  int item = 0;
  size_t slot = Queue::kNoSlot;
  ASSERT_EQ(queue.TryAdmit(&item, &slot), Admit::kRun);
  queue.Close();
  std::atomic<bool> idle{false};
  std::thread waiter([&] {
    queue.AwaitIdle();
    idle.store(true);
  });
  EXPECT_FALSE(idle.load());
  queue.Release(slot);
  waiter.join();
  EXPECT_TRUE(idle.load());
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumers) {
  Queue queue(4, 1);
  std::atomic<int> woke{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&] {
      while (queue.Pop().has_value()) {
      }
      woke.fetch_add(1);
    });
  }
  queue.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(woke.load(), 3);
}

TEST(BoundedQueueTest, ConcurrentProducersConsumersLoseNothing) {
  // Every admitted item runs exactly once: inline by its producer
  // (kRun) or popped by a consumer (kQueued); sheds are accounted by the
  // producers. admitted == ran at quiescence.
  Queue queue(8, 2);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<int> admitted{0};
  std::atomic<int> shed{0};
  std::atomic<long long> admitted_sum{0};
  std::atomic<long long> ran_sum{0};
  std::atomic<int> ran{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (auto popped = queue.Pop()) {
        ran_sum.fetch_add(popped->item);
        ran.fetch_add(1);
        if (popped->slot != Queue::kNoSlot) queue.Release(popped->slot);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int value = p * kPerProducer + i;
        size_t slot = Queue::kNoSlot;
        switch (queue.TryAdmit(&value, &slot)) {
          case Admit::kRun:
            ran_sum.fetch_add(value);
            ran.fetch_add(1);
            queue.Release(slot);
            [[fallthrough]];
          case Admit::kQueued:
            admitted.fetch_add(1);
            admitted_sum.fetch_add(p * kPerProducer + i);
            break;
          case Admit::kFull:
          case Admit::kClosed:
            shed.fetch_add(1);
            break;
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.Close();
  for (auto& t : consumers) t.join();
  queue.AwaitIdle();

  EXPECT_EQ(admitted.load() + shed.load(), kProducers * kPerProducer);
  EXPECT_EQ(ran.load(), admitted.load());
  EXPECT_EQ(ran_sum.load(), admitted_sum.load());
}

}  // namespace
}  // namespace tokenmagic::rpc
