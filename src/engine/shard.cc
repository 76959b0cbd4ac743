#include "engine/shard.h"

#include <cassert>
#include <chrono>
#include <ctime>
#include <utility>

#include "util/affinity.h"

namespace gps {

uint64_t ThreadCpuNowNs() {
#ifdef CLOCK_THREAD_CPUTIME_ID
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

namespace {

/// Charges the enclosing scope's duration to a worker's busy clock (batch
/// granularity, so the clock reads are amortized) on the per-thread CPU
/// clock.
class BusyScope {
 public:
  explicit BusyScope(std::atomic<uint64_t>* counter)
      : counter_(counter), start_(ThreadCpuNowNs()) {}
  ~BusyScope() {
    counter_->fetch_add(ThreadCpuNowNs() - start_,
                        std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t>* counter_;
  uint64_t start_;
};

// Backoff for full/empty ring waits: spin briefly (the partner is usually
// one batch away), then yield so single-core hosts make progress.
class Backoff {
 public:
  void Pause() {
    if (++spins_ < kSpinLimit) return;
    std::this_thread::yield();
  }
  void Reset() { spins_ = 0; }

 private:
  static constexpr int kSpinLimit = 64;
  int spins_ = 0;
};

}  // namespace

ShardWorker::ShardWorker(const ShardOptions& options)
    : options_(options),
      motifs_(options.motifs),
      ring_(options.ring_capacity),
      recycle_(options.ring_capacity) {
  if (options_.estimator == ShardEstimatorKind::kInStream) {
    in_stream_ = std::make_unique<InStreamEstimator>(options_.sampler);
  } else {
    assert(options_.motifs.empty() &&
           "motif suites need in-stream shard estimators");
    sampler_ = std::make_unique<GpsSampler>(options_.sampler);
  }
}

ShardWorker::ShardWorker(const ShardOptions& options,
                         std::unique_ptr<InStreamEstimator> restored,
                         std::span<const MotifAccumulator> restored_motifs)
    : options_(options),
      in_stream_(std::move(restored)),
      motifs_(options.motifs),
      ring_(options.ring_capacity),
      recycle_(options.ring_capacity) {
  assert(options_.estimator == ShardEstimatorKind::kInStream);
  assert(in_stream_ != nullptr);
  assert(in_stream_->reservoir().options().seed == options_.sampler.seed);
  assert(in_stream_->reservoir().options().capacity ==
         options_.sampler.capacity);
  assert(restored_motifs.size() == motifs_.size());
  motifs_.RestoreAccumulators(restored_motifs);
}

ShardWorker::~ShardWorker() { Join(); }

void ShardWorker::SetTrace(TraceEventSink* sink, TraceBuffer* buffer) {
  assert(!thread_.joinable() && "trace must be attached before Start");
  assert((sink == nullptr) == (buffer == nullptr));
  trace_sink_ = sink;
  trace_buf_ = buffer;
}

void ShardWorker::Start() {
  assert(!thread_.joinable());
  thread_ = std::thread([this] { RunWorker(); });
  // Pin from the starting thread via the handle (synchronous, so the
  // engine can warn once right after construction) rather than from the
  // worker itself. A failure leaves the inherited mask: pinning is a
  // placement hint, never a correctness requirement.
  if (options_.cpu_affinity >= 0) {
    pin_status_ = PinThreadToCpu(thread_, options_.cpu_affinity);
  }
}

void ShardWorker::Submit(EdgeBatch&& batch) {
  if (batch.empty()) return;
  assert(thread_.joinable() && !joined_);
  submitted_edges_ += batch.size();
  Backoff backoff;
  while (!ring_.TryPush(std::move(batch))) backoff.Pause();
}

void ShardWorker::WaitDrained() const {
  Backoff backoff;
  while (consumed_edges_.load(std::memory_order_acquire) !=
         submitted_edges_) {
    backoff.Pause();
  }
}

void ShardWorker::Join() {
  if (joined_ || !thread_.joinable()) return;
  ring_.Close();
  thread_.join();
  joined_ = true;
}

const GpsReservoir& ShardWorker::reservoir() const {
  return in_stream_ ? in_stream_->reservoir() : sampler_->reservoir();
}

GraphEstimates ShardWorker::InStreamEstimates() const {
  assert(in_stream_ && "shard was configured for post-stream estimation");
  return in_stream_->Estimates();
}

const InStreamEstimator& ShardWorker::in_stream_estimator() const {
  assert(in_stream_ && "shard was configured for post-stream estimation");
  return *in_stream_;
}

void ShardWorker::RunInline(const EdgeBatch& batch) {
  assert(!thread_.joinable() && "a started worker is fed through Submit");
  submitted_edges_ += batch.size();
  RunBatch(batch);
  consumed_edges_.store(submitted_edges_, std::memory_order_release);
}

void ShardWorker::RunBatch(const EdgeBatch& batch) {
  const size_t n = batch.size();
  const BusyScope busy(&busy_ns_);
  const ScopedLatencyTimer latency(&worker_metrics_.batch_latency);
  TraceSpan span(trace_sink_, trace_buf_, "batch");
  span.SetArg("edges", static_cast<int64_t>(n));
  if (in_stream_) {
    if (!motifs_.empty()) {
      // Motif snapshots freeze at the stopping time BEFORE the arriving
      // edge's own sampling step, so the suite observes first; it only
      // reads the reservoir, leaving the sample path untouched.
      for (size_t i = 0; i < n; ++i) {
        const Edge e = batch.edge(i);
        motifs_.Observe(e, in_stream_->reservoir());
        in_stream_->Process(e);
      }
    } else {
      for (size_t i = 0; i < n; ++i) in_stream_->Process(batch.edge(i));
    }
  } else {
    for (size_t i = 0; i < n; ++i) sampler_->Process(batch.edge(i));
  }
  worker_metrics_.batches_processed.Increment();
}

void ShardWorker::RunWorker() {
  EdgeBatch batch;
  Backoff backoff;
  uint64_t idle_start = 0;  // wall-clock mark of the first fruitless probe
  for (;;) {
    if (!ring_.TryPop(&batch)) {
      // Close() is store-released after the producer's final push, so
      // observing closed() here means the ring already holds everything
      // it ever will: one more pop distinguishes drained from racing.
      if (ring_.closed()) {
        if (!ring_.TryPop(&batch)) break;
      } else {
        if (MetricsEnabled() && idle_start == 0) idle_start = MetricsNowNs();
        backoff.Pause();
        continue;
      }
    }
    backoff.Reset();
    if (MetricsEnabled() && idle_start != 0) {
      idle_ns_.fetch_add(MetricsNowNs() - idle_start,
                         std::memory_order_relaxed);
      idle_start = 0;
    }
    const size_t n = batch.size();
    RunBatch(batch);
    // Release so a producer observing the new count also observes the
    // estimator state those edges produced.
    consumed_edges_.fetch_add(n, std::memory_order_release);
    // Return the emptied buffer so the producer reuses its capacity
    // instead of allocating per batch; best effort — a full recycle ring
    // just drops the buffer.
    batch.clear();
    if (ring_.closed() || recycle_.TryPush(std::move(batch))) {
      batch = EdgeBatch();
    }
  }
  if (MetricsEnabled() && idle_start != 0) {
    idle_ns_.fetch_add(MetricsNowNs() - idle_start,
                       std::memory_order_relaxed);
  }
}

}  // namespace gps
