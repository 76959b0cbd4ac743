// Batch ring: FIFO order, move-only payloads, the three sleeping waits
// (Push on a full ring, Pop on an empty one, WaitDrained until every item
// is Done), the Close protocol, and a two-thread ordering stress.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>

#include <gtest/gtest.h>

#include "engine/ring_buffer.h"

namespace gps {
namespace {

constexpr size_t kCapacity = BatchRing<int>::kCapacity;

/// Returns once a thread blocked in the ring has had time to misbehave:
/// after `waits` reaches `n` (the waiter counts its wait under the ring's
/// mutex and holds the mutex until it sleeps), then 50 ms more, in which a
/// waiter that should not wake would have returned. GPS_METRICS=0 builds
/// count nothing and rely on the 50 ms alone.
void AwaitWaiter(const Counter& waits, uint64_t n) {
  while (MetricsEnabled() && waits.Value() < n) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

TEST(BatchRingTest, FifoOrder) {
  BatchRing<int> ring;
  for (int i = 0; i < 5; ++i) ring.Push(int(i));
  for (int i = 0; i < 5; ++i) {
    const std::optional<int> out = ring.Pop();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, i);
    ring.Done();
  }
  ring.WaitDrained();  // nothing unfinished: returns at once
}

TEST(BatchRingTest, MoveOnlyPayload) {
  BatchRing<std::unique_ptr<int>> ring;
  ring.Push(std::make_unique<int>(42));
  std::optional<std::unique_ptr<int>> out = ring.Pop();
  ASSERT_TRUE(out.has_value());
  ASSERT_NE(*out, nullptr);
  EXPECT_EQ(**out, 42);
}

TEST(BatchRingTest, FullRingPushWaitsForPop) {
  BatchRing<int> ring;
  for (size_t i = 0; i < kCapacity; ++i) ring.Push(static_cast<int>(i));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ring.Push(-1);
    pushed = true;
  });
  AwaitWaiter(ring.metrics().push_fail, 1);
  EXPECT_FALSE(pushed) << "Push returned while the ring was full";
  EXPECT_EQ(ring.Pop(), 0);  // frees one slot
  producer.join();
  EXPECT_TRUE(pushed);
  for (size_t i = 1; i < kCapacity; ++i) {
    ASSERT_EQ(ring.Pop(), static_cast<int>(i));
  }
  EXPECT_EQ(ring.Pop(), -1);
  if (MetricsEnabled()) {
    EXPECT_EQ(ring.metrics().push_fail.Value(), 1u);
    EXPECT_EQ(ring.metrics().occupancy_hwm.Value(),
              static_cast<double>(kCapacity));
  }
}

TEST(BatchRingTest, EmptyRingPopWaitsForPushOrClose) {
  BatchRing<int> ring;
  std::atomic<int> popped{0};
  std::optional<int> first, second;
  std::thread consumer([&] {
    first = ring.Pop();
    ++popped;
    second = ring.Pop();
    ++popped;
  });
  AwaitWaiter(ring.metrics().pop_empty, 1);
  EXPECT_EQ(popped, 0) << "Pop returned from an empty open ring";
  ring.Push(7);
  while (popped < 1) std::this_thread::yield();
  AwaitWaiter(ring.metrics().pop_empty, 2);
  EXPECT_EQ(popped, 1) << "Pop returned from an empty open ring";
  ring.Close();
  consumer.join();
  EXPECT_EQ(first, 7);
  EXPECT_FALSE(second.has_value());
  if (MetricsEnabled()) {
    EXPECT_EQ(ring.metrics().pop_empty.Value(), 2u);
    EXPECT_GT(ring.metrics().pop_wait_ns.Value(), 0u);
  }
}

TEST(BatchRingTest, CloseDrainsQueuedItemsThenEndsConsumer) {
  BatchRing<int> ring;
  ring.Push(7);
  ring.Push(8);
  ring.Close();
  EXPECT_EQ(ring.Pop(), 7);
  EXPECT_EQ(ring.Pop(), 8);
  EXPECT_FALSE(ring.Pop().has_value());
  EXPECT_FALSE(ring.Pop().has_value());
}

TEST(BatchRingTest, WaitDrainedReleasesOnlyAfterEveryItemIsDone) {
  BatchRing<int> ring;
  for (int i = 0; i < 3; ++i) ring.Push(int(i));
  std::atomic<bool> drained{false};
  std::thread waiter([&] {
    ring.WaitDrained();
    drained = true;
  });
  // A popped item is not finished: the waiter sleeps until the third Done.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(ring.Pop(), i);
  ring.Done();
  ring.Done();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(drained) << "WaitDrained returned with an item unfinished";
  ring.Done();
  waiter.join();
  EXPECT_TRUE(drained);
}

TEST(BatchRingTest, TwoThreadOrderingStress) {
  constexpr uint64_t kItems = 200000;
  BatchRing<uint64_t> ring;
  uint64_t consumed = 0;  // consumer-written; read after WaitDrained
  bool in_order = true;
  std::thread consumer([&] {
    while (std::optional<uint64_t> item = ring.Pop()) {
      in_order = in_order && *item == consumed;
      ++consumed;
      ring.Done();
    }
  });
  for (uint64_t i = 0; i < kItems; ++i) {
    ring.Push(uint64_t{i});
    if (i % 50000 == 49999) {
      ring.WaitDrained();
      EXPECT_EQ(consumed, i + 1);
    }
  }
  ring.Close();
  consumer.join();
  EXPECT_EQ(consumed, kItems);
  EXPECT_TRUE(in_order);
}

}  // namespace
}  // namespace gps
