// Bounded batch ring from the engine's producer to one shard worker.
//
// The engine hands edges off in batches (1,024 by default), so a shard
// sees one hand-off per batch and a mutex acquisition there is noise
// beside the GPS work the batch carries. Every wait sleeps on a condition
// variable instead of polling: Push while the ring is full, Pop while it
// is empty, and WaitDrained until the consumer has finished every item
// pushed so far. An idle worker therefore holds no CPU while the producer
// parses, merges or writes a checkpoint.
//
// The slots are a fixed array, so a push allocates nothing; items move in
// and out. Close() ends the stream: Pop hands out what is still queued,
// then returns nullopt. A side is woken only by the change it can be
// asleep on (an empty ring filling, a full one freeing a slot, the last
// unfinished item finishing), so a producer held back by a full ring is
// not woken again when a batch finishes.

#ifndef GPS_ENGINE_RING_BUFFER_H_
#define GPS_ENGINE_RING_BUFFER_H_

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>

#include "util/metrics.h"

namespace gps {

/// Per-ring backpressure counters (no-ops under GPS_METRICS=0). The
/// producer writes push_fail and occupancy_hwm, the consumer pop_empty and
/// pop_wait_ns.
struct RingMetrics {
  /// Push calls that found the ring full and slept for room.
  Counter push_fail;
  /// Pop calls that found the ring empty and slept for an item.
  Counter pop_empty;
  /// Wall-clock nanoseconds the consumer slept inside Pop.
  Counter pop_wait_ns;
  /// Most items ever queued at once; reaching BatchRing::kCapacity is the
  /// backpressure signal that matters.
  Gauge occupancy_hwm;
};

/// One producer, one consumer.
template <typename T>
class BatchRing {
 public:
  /// Slots per ring: Push sleeps once this many items are queued.
  static constexpr size_t kCapacity = 64;

  BatchRing() = default;
  BatchRing(const BatchRing&) = delete;
  BatchRing& operator=(const BatchRing&) = delete;

  /// Producer side. Moves `item` into the ring, sleeping while it is full.
  void Push(T&& item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (count_ == kCapacity) {
      metrics_.push_fail.Increment();
      producer_cv_.wait(lock, [this] { return count_ < kCapacity; });
    }
    slots_[(head_ + count_) % kCapacity] = std::move(item);
    const bool was_empty = count_++ == 0;
    ++unfinished_;
    metrics_.occupancy_hwm.SetMax(static_cast<double>(count_));
    lock.unlock();
    if (was_empty) consumer_cv_.notify_one();
  }

  /// Consumer side. Moves the oldest item out, sleeping while the ring is
  /// empty; nullopt once the ring is closed and drained. Call Done() when
  /// the item is finished.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (count_ == 0 && !closed_) {
      metrics_.pop_empty.Increment();
      const uint64_t start = MetricsNowNs();
      consumer_cv_.wait(lock, [this] { return count_ > 0 || closed_; });
      metrics_.pop_wait_ns.Add(MetricsNowNs() - start);
    }
    if (count_ == 0) return std::nullopt;
    std::optional<T> item(std::move(slots_[head_]));
    head_ = (head_ + 1) % kCapacity;
    const bool was_full = count_-- == kCapacity;
    lock.unlock();
    if (was_full) producer_cv_.notify_one();
    return item;
  }

  /// Consumer side: the item of the last Pop is finished.
  void Done() {
    std::unique_lock<std::mutex> lock(mu_);
    if (--unfinished_ > 0) return;
    lock.unlock();
    producer_cv_.notify_one();
  }

  /// Producer side. Sleeps until every item pushed so far is Done. The
  /// mutex orders the consumer's work on those items before the return.
  void WaitDrained() {
    std::unique_lock<std::mutex> lock(mu_);
    producer_cv_.wait(lock, [this] { return unfinished_ == 0; });
  }

  /// Producer side: end of stream.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    consumer_cv_.notify_one();
  }

  const RingMetrics& metrics() const { return metrics_; }

 private:
  std::mutex mu_;
  std::condition_variable producer_cv_;  // Push (room), WaitDrained
  std::condition_variable consumer_cv_;  // Pop (an item or Close)
  std::array<T, kCapacity> slots_{};
  size_t head_ = 0;        // oldest queued item
  size_t count_ = 0;       // queued items
  size_t unfinished_ = 0;  // pushed items not yet Done
  bool closed_ = false;
  RingMetrics metrics_;
};

}  // namespace gps

#endif  // GPS_ENGINE_RING_BUFFER_H_
