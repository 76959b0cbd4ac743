#include "engine/shard.h"

#include <pthread.h>
#include <sched.h>

#include <cassert>
#include <chrono>
#include <ctime>
#include <optional>
#include <system_error>
#include <utility>

#include "util/cpus.h"

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

}  // namespace

ShardWorker::ShardWorker(const ShardOptions& options)
    : options_(options), motifs_(options.motifs) {
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
      motifs_(options.motifs) {
  assert(options_.estimator == ShardEstimatorKind::kInStream);
  assert(in_stream_ != nullptr);
  assert(in_stream_->reservoir().options().seed == options_.sampler.seed);
  assert(in_stream_->reservoir().options().capacity ==
         options_.sampler.capacity);
  assert(restored_motifs.size() == motifs_.size());
  motifs_.RestoreAccumulators(restored_motifs);
}

ShardWorker::~ShardWorker() {
  StopEstimationHelper();
  Join();
}

void ShardWorker::SetTrace(TraceEventSink* sink, TraceBuffer* buffer) {
  assert(!thread_.joinable() && "trace must be attached before Start");
  assert((sink == nullptr) == (buffer == nullptr));
  trace_sink_ = sink;
  trace_buf_ = buffer;
}

void ShardWorker::Start() {
  assert(!thread_.joinable());
  thread_ = std::thread([this] { RunWorker(); });
}

void ShardWorker::Submit(std::vector<Edge>&& batch) {
  if (batch.empty()) return;
  assert(thread_.joinable() && !joined_);
  submitted_edges_ += batch.size();
  ring_.Push(std::move(batch));
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

void ShardWorker::RunInline(std::span<const Edge> batch) {
  assert(!thread_.joinable() && "a started worker is fed through Submit");
  submitted_edges_ += batch.size();
  RunBatch(batch);
}

bool ShardWorker::StartEstimationHelper() {
  assert(!thread_.joinable() && "a started worker runs both stages");
  assert(!helper_.joinable());
  if (!in_stream_) return false;
  // Keep the helper off the producer's CPU. Both sides spin while they
  // wait, and a helper the scheduler placed beside the producer ran the
  // two stages in turn, no faster than one thread.
  cpu_set_t others;
  CPU_ZERO(&others);
  bool pin = false;
  if (sched_getaffinity(0, sizeof(others), &others) == 0) {
    if (CPU_COUNT(&others) < 2) return false;
    const int here = sched_getcpu();
    if (here >= 0 && CPU_ISSET(here, &others)) {
      CPU_CLR(here, &others);
      pin = true;
    }
  } else if (UsableCpus() < 2) {
    return false;
  }
  log_ = std::make_unique<SlotLog>();
  try {
    helper_ = std::thread([this, others, pin] {
      if (pin) pthread_setaffinity_np(pthread_self(), sizeof(others), &others);
      const uint64_t start = ThreadCpuNowNs();
      in_stream_->Estimate(*log_);
      estimation_ns_ += ThreadCpuNowNs() - start;
    });
  } catch (const std::system_error&) {
    return false;
  }
  return true;
}

void ShardWorker::StopEstimationHelper() {
  if (!helper_.joinable()) return;
  log_->Close();
  helper_.join();
}

void ShardWorker::RunBatch(std::span<const Edge> batch) {
  const BusyScope busy(&busy_ns_);
  const ScopedLatencyTimer latency(&worker_metrics_.batch_latency);
  TraceSpan span(trace_sink_, trace_buf_, "batch");
  span.SetArg("edges", static_cast<int64_t>(batch.size()));
  if (in_stream_) {
    // With a helper, this thread runs the sampling stage and the helper
    // the snapshot updates.
    SlotLog* const log = helper_.joinable() ? log_.get() : nullptr;
    for (const Edge& e : batch) {
      // Motif snapshots freeze at the stopping time BEFORE the arriving
      // edge's own sampling step, so the suite observes first; it only
      // reads the reservoir, leaving the sample path untouched.
      if (!motifs_.empty()) motifs_.Observe(e, in_stream_->reservoir());
      if (log != nullptr) {
        in_stream_->Sample(e, *log);
      } else {
        in_stream_->Process(e);
      }
    }
  } else {
    for (const Edge& e : batch) sampler_->Process(e);
  }
  worker_metrics_.batches_processed.Increment();
}

void ShardWorker::RunWorker() {
  while (std::optional<std::vector<Edge>> batch = ring_.Pop()) {
    RunBatch(*batch);
    ring_.Done();
  }
}

}  // namespace gps
