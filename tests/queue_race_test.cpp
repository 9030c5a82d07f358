// Race tests for BoundedQueue's shutdown contract, written to run under
// TSan (the tsan preset builds this suite with -fsanitize=thread): N
// producers and M consumers hammer a small queue while another thread
// closes it mid-flight. The invariant under test: every item is either
// popped exactly once or rejected-with-preservation (PushResult::Closed /
// Full keeps the item in the caller's hands) — nothing is lost, nothing is
// duplicated, and no waiter survives close().
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "util/queue.hpp"

namespace ldp {
namespace {

TEST(QueueRaceT, CloseWhileProducersAndConsumersRace) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 2000;
  BoundedQueue<int> q(8);  // tiny: maximizes full-queue blocking

  std::atomic<uint64_t> accepted{0}, rejected{0};
  std::vector<uint64_t> popped_flags(kProducers * kPerProducer, 0);
  std::mutex popped_mu;  // flags written by several consumers

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int item = p * kPerProducer + i;
        // Bounded grace so producers survive the close; Full loops retry
        // (the queue may still drain), Closed gives up with the item
        // preserved — which is the rejection path under test.
        PushResult pr;
        while ((pr = q.push_for(item, kMilli)) == PushResult::Full) {
          if (q.closed()) {
            pr = PushResult::Closed;
            break;
          }
        }
        if (pr == PushResult::Ok) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Rejected with preservation: the item is still ours to account.
          EXPECT_EQ(pr, PushResult::Closed);
          EXPECT_EQ(item, p * kPerProducer + i);
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::vector<std::thread> consumers;
  std::atomic<uint64_t> consumed{0};
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (true) {
        auto item = q.pop();
        if (!item.has_value()) {
          // nullopt only once closed AND drained — never a spurious miss.
          EXPECT_TRUE(q.closed_and_empty());
          return;
        }
        {
          std::lock_guard lock(popped_mu);
          ++popped_flags[static_cast<size_t>(*item)];
        }
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Let the pipeline run hot, then slam the door mid-flight.
  while (consumed.load(std::memory_order_relaxed) < kPerProducer) {
    std::this_thread::yield();
  }
  q.close();

  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();

  // Conservation: accepted items were popped exactly once; rejected items
  // never appear on the consumer side.
  uint64_t popped_once = 0;
  for (uint64_t f : popped_flags) {
    ASSERT_LE(f, 1u) << "an item was popped twice";
    popped_once += f;
  }
  EXPECT_EQ(popped_once, accepted.load());
  EXPECT_EQ(accepted.load() + rejected.load(),
            static_cast<uint64_t>(kProducers) * kPerProducer);
  EXPECT_GT(rejected.load(), 0u);  // the close really did land mid-flight
}

TEST(QueueRaceT, CloseIsIdempotentAcrossThreads) {
  BoundedQueue<int> q(4);
  std::vector<std::thread> closers;
  for (int i = 0; i < 8; ++i) closers.emplace_back([&] { q.close(); });
  for (auto& t : closers) t.join();
  EXPECT_TRUE(q.closed_and_empty());
  int item = 7;
  EXPECT_EQ(q.push_for(item, 0), PushResult::Closed);
  EXPECT_EQ(item, 7);  // preserved
}

TEST(QueueRaceT, CloseWakesBlockedProducerWithItemPreserved) {
  BoundedQueue<int> q(1);
  int filler = 0;
  ASSERT_EQ(q.push_for(filler, 0), PushResult::Ok);

  std::atomic<bool> returned{false};
  int stuck = 42;
  std::thread producer([&] {
    // Unbounded grace: only close() can release this thread.
    PushResult pr = q.push_for(stuck, -1);
    EXPECT_EQ(pr, PushResult::Closed);
    returned.store(true, std::memory_order_release);
  });
  // Nobody pops: only close() can release the producer.
  q.close();
  producer.join();
  EXPECT_TRUE(returned.load(std::memory_order_acquire));
  EXPECT_EQ(stuck, 42);  // rejected with the item intact
  // The filler item still drains after close.
  EXPECT_EQ(q.pop(), std::optional<int>(0));  // closed: never blocks
  EXPECT_TRUE(q.closed_and_empty());
}

TEST(QueueRaceT, EvictPushRacesConsumersWithoutLoss) {
  constexpr int kItems = 4000;
  BoundedQueue<int> q(4);
  std::atomic<uint64_t> evicted_count{0};
  std::atomic<uint64_t> popped_count{0};

  std::thread consumer([&] {
    while (true) {
      auto item = q.pop();
      if (!item.has_value()) return;
      popped_count.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      int item = i;
      std::optional<int> evicted;
      PushResult pr = q.evict_push(item, evicted);
      ASSERT_EQ(pr, PushResult::Ok);  // queue is open for the whole loop
      if (evicted.has_value()) evicted_count.fetch_add(1, std::memory_order_relaxed);
    }
    q.close();
  });

  producer.join();
  consumer.join();
  // Every item either reached the consumer or was evicted for accounting.
  EXPECT_EQ(popped_count.load() + evicted_count.load(),
            static_cast<uint64_t>(kItems));
}

}  // namespace
}  // namespace ldp
