// Lock-free metrics primitives and a process-wide registry.
//
// Design constraints (see src/engine/README.md "Observability"):
//  - Hot-path updates are single relaxed atomic ops on instances owned by
//    the instrumented object (per-shard), so shards never contend on a
//    shared cache line. Aggregation across instances happens only at
//    Snapshot() time.
//  - Everything is observation-only: no metric feeds back into sampling
//    decisions, so the determinism contract (fixed stream/seed/K =>
//    byte-identical estimates) holds with instrumentation on or off.
//  - Compiling with -DGPS_METRICS=0 replaces every type below with an
//    empty no-op stub of identical shape, so call sites stay unchanged
//    and the compiler deletes the instrumentation entirely.
//
// Copy semantics: the metric types wrap std::atomic but define value-copy
// constructors/assignment (relaxed load + store). Copies are NOT atomic as
// a whole; they exist so that owning objects (GpsReservoir and the
// sampled graph it owns) keep their move/copy semantics. Only copy metrics
// from quiescent or single-threaded contexts.

#ifndef GPS_UTIL_METRICS_H_
#define GPS_UTIL_METRICS_H_

#ifndef GPS_METRICS
#define GPS_METRICS 1
#endif

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#if GPS_METRICS
#include <atomic>
#include <chrono>
#include <mutex>
#endif

namespace gps {

/// Aggregated point-in-time view of a MetricsRegistry. Always a real type
/// (even with GPS_METRICS=0) so surfaces like MonitorRecord keep a stable
/// shape; it is simply empty when instrumentation is compiled out.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    uint64_t count = 0;
    uint64_t sum_ns = 0;
    /// bucket[i] counts samples with value in [2^i, 2^(i+1)) ns (bucket 0
    /// additionally holds 0ns samples). Fixed layout, see kNumBuckets.
    std::vector<uint64_t> buckets;
  };

  std::vector<CounterValue> counters;    // sorted by name
  std::vector<GaugeValue> gauges;        // sorted by name
  std::vector<HistogramValue> histograms;  // sorted by name

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Returns the counter value for `name`, or 0 if absent.
  uint64_t CounterOr0(const std::string& name) const;
  /// Returns the gauge value for `name`, or 0.0 if absent.
  double GaugeOr0(const std::string& name) const;
  /// Returns true iff a histogram named `name` is present; fills *out.
  bool FindHistogram(const std::string& name, HistogramValue* out) const;

  /// Renders the snapshot as a stable, pretty-printed JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson(int indent = 0) const;
};

#if GPS_METRICS

/// Monotonic event counter. Relaxed increments; no ordering guarantees
/// relative to other memory operations.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other)
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  Counter& operator=(const Counter& other) {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  void Increment() { Add(1); }
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins scalar with an additional monotonic-max update mode
/// (used for high-water marks).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge& other)
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  Gauge& operator=(const Gauge& other) {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if `v` is larger (relaxed CAS loop).
  void SetMax(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed,
                          std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket latency histogram over nanosecond durations. Buckets are
/// powers of two: bucket i counts samples in [2^i, 2^(i+1)) ns, with
/// bucket 0 also absorbing 0ns and the last bucket absorbing overflow.
/// 40 buckets cover [1ns, ~18 minutes).
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 40;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram& other) { CopyFrom(other); }
  LatencyHistogram& operator=(const LatencyHistogram& other) {
    CopyFrom(other);
    return *this;
  }

  void Record(uint64_t ns) {
    buckets_[BucketFor(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t SumNs() const { return sum_ns_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Maps a duration to its bucket index: floor(log2(ns)), clamped.
  static size_t BucketFor(uint64_t ns) {
    if (ns == 0) return 0;
    size_t bit = 63 - static_cast<size_t>(__builtin_clzll(ns));
    return bit < kNumBuckets ? bit : kNumBuckets - 1;
  }

 private:
  void CopyFrom(const LatencyHistogram& other) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      buckets_[i].store(other.buckets_[i].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    }
    count_.store(other.count_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    sum_ns_.store(other.sum_ns_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  }

  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
};

/// Registry of named metric instances. Registration takes a mutex (cold
/// path, engine construction); the registry does not own the instances and
/// never touches them outside Snapshot(). Multiple instances may share a
/// name — Snapshot() aggregates them: counters and histogram buckets are
/// summed, gauges take the max (every same-name gauge in this code base is
/// a high-water mark or a per-shard value whose cross-shard max is the
/// interesting scalar).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void AddCounter(std::string name, const Counter* counter);
  void AddGauge(std::string name, const Gauge* gauge);
  void AddHistogram(std::string name, const LatencyHistogram* histogram);

  /// Aggregates all registered instances into a stable, name-sorted
  /// snapshot. Safe to call while writers are active (values are torn
  /// only across metrics, never within one atomic).
  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, const Counter*>> counters_;
  std::vector<std::pair<std::string, const Gauge*>> gauges_;
  std::vector<std::pair<std::string, const LatencyHistogram*>> histograms_;
};

/// Monotonic wall-clock in nanoseconds, for idle-time accounting and
/// scoped latency measurement. Compiled out with GPS_METRICS=0.
inline uint64_t MetricsNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII: records the enclosing scope's wall duration into a histogram.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(LatencyHistogram* histogram)
      : histogram_(histogram), start_ns_(MetricsNowNs()) {}
  ~ScopedLatencyTimer() { histogram_->Record(MetricsNowNs() - start_ns_); }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  LatencyHistogram* histogram_;
  uint64_t start_ns_;
};

#else  // !GPS_METRICS — no-op stubs with identical call shapes.

class Counter {
 public:
  void Increment() {}
  void Add(uint64_t) {}
  uint64_t Value() const { return 0; }
  void Reset() {}
};

class Gauge {
 public:
  void Set(double) {}
  void SetMax(double) {}
  double Value() const { return 0.0; }
  void Reset() {}
};

class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 40;
  void Record(uint64_t) {}
  uint64_t Count() const { return 0; }
  uint64_t SumNs() const { return 0; }
  uint64_t BucketCount(size_t) const { return 0; }
  static size_t BucketFor(uint64_t) { return 0; }
};

class MetricsRegistry {
 public:
  void AddCounter(std::string, const Counter*) {}
  void AddGauge(std::string, const Gauge*) {}
  void AddHistogram(std::string, const LatencyHistogram*) {}
  MetricsSnapshot Snapshot() const { return MetricsSnapshot{}; }
};

inline uint64_t MetricsNowNs() { return 0; }

class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(LatencyHistogram*) {}
};

#endif  // GPS_METRICS

/// True when the build carries live instrumentation (GPS_METRICS != 0).
constexpr bool MetricsEnabled() { return GPS_METRICS != 0; }

}  // namespace gps

#endif  // GPS_UTIL_METRICS_H_
