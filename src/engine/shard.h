// One shard of the sharded streaming engine: a GPS estimator running on
// its own worker thread, fed batches of edges through a bounded batch
// ring (engine/ring_buffer.h) — or, when the worker is never started, on
// the producer thread itself (RunInline; the engine's K=1 layout). An
// unstarted in-stream worker can also hand Algorithm 3's estimation
// stage to a helper thread for a while (StartEstimationHelper): the
// producer then runs the sampling stage and the helper the snapshot
// updates, over a SlotLog (core/in_stream.h).
//
// Threading contract:
//   * exactly one producer thread calls Submit/RunInline/WaitDrained/Join
//     and Start/StopEstimationHelper (the engine's ingestion thread);
//   * the worker thread, or the producer for an unstarted worker, is the
//     only mutator of the estimator state — except that while a helper
//     runs, the helper alone mutates the estimation-stage state (the
//     per-slot records and snapshot sums) and the producer the rest;
//   * after WaitDrained() or Join() returns, the producer may read the
//     estimator (the ring's mutex orders the worker's writes before
//     either return); with a helper, after StopEstimationHelper() (the
//     join orders the helper's writes before it).
//
// Determinism: the worker consumes its substream in submission order
// with a private, deterministically seeded RNG, so the reservoir state
// after t submitted edges is a pure function of (substream prefix,
// options) — independent of thread scheduling and batch boundaries.

#ifndef GPS_ENGINE_SHARD_H_
#define GPS_ENGINE_SHARD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/gps.h"
#include "core/in_stream.h"
#include "core/motifs.h"
#include "core/slot_log.h"
#include "engine/ring_buffer.h"
#include "graph/types.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace gps {

/// Per-thread CPU clock in ns (CLOCK_THREAD_CPUTIME_ID; the steady clock
/// where the platform lacks it). The workers' busy clocks and the
/// producer's route clock both read it: on an oversubscribed host, wall
/// time inside a scope also counts time spent descheduled while other
/// threads ran.
uint64_t ThreadCpuNowNs();

/// Per-worker counters. Owned by the worker, updated only by the worker
/// thread, summed across shards by ShardedEngine::SnapshotMetrics.
struct WorkerMetrics {
  /// Batches this worker executed.
  Counter batches_processed;
  /// Wall-clock duration of each batch execution.
  LatencyHistogram batch_latency;
};

/// Which estimator a shard runs. kInStream maintains Algorithm 3 snapshot
/// accumulators while sampling (lower-variance estimates, more work per
/// edge); kPostStream runs the bare Algorithm 1 sampler and defers all
/// estimation to merge time.
enum class ShardEstimatorKind {
  kInStream,
  kPostStream,
};

struct ShardOptions {
  /// Per-shard sampler configuration; `seed` must already be the derived
  /// per-shard seed (core/seeding.h).
  GpsSamplerOptions sampler;
  ShardEstimatorKind estimator = ShardEstimatorKind::kInStream;
  /// Motif statistics (core/motifs.h registry names, validated by the
  /// caller) estimated alongside the tri/wedge estimator on the SAME
  /// reservoir sample path. The suite only reads the reservoir, so the
  /// sample path — and thus the K=1 byte-identity and scheduling
  /// invariance contracts — is unchanged. Requires kInStream when
  /// non-empty.
  std::vector<std::string> motifs;
};

class ShardWorker {
 public:
  explicit ShardWorker(const ShardOptions& options);

  /// Resume construction: adopts a checkpoint-restored in-stream estimator
  /// (reservoir, RNG state, and snapshot accumulators mid-stream) instead
  /// of building a fresh one, plus the restored motif accumulators (one
  /// per options.motifs entry, same order; empty iff no suite). The
  /// estimator's reservoir options must match `options.sampler` (callers
  /// validate against the manifest layout); requires
  /// ShardEstimatorKind::kInStream.
  ShardWorker(const ShardOptions& options,
              std::unique_ptr<InStreamEstimator> restored,
              std::span<const MotifAccumulator> restored_motifs = {});

  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Attaches a trace buffer for this worker's "batch" spans. Call before
  /// Start; null disables tracing (the default). The sink must outlive the
  /// worker thread.
  void SetTrace(TraceEventSink* sink, TraceBuffer* buffer);

  /// Launches the worker thread. Call once before the first Submit.
  void Start();

  /// Runs one batch on the calling thread through the worker loop's batch
  /// body. For a worker that is never started: the engine's K=1 layout
  /// feeds its one shard this way, with no ring hand-off.
  void RunInline(std::span<const Edge> batch);

  /// For an unstarted in-stream worker: runs the estimation stage of the
  /// following RunInline batches on a helper thread, until
  /// StopEstimationHelper. The helper may run on any CPU the process may
  /// use but the producer's current one. Returns false, changing nothing,
  /// where both stages stay on the calling thread: a post-stream shard,
  /// one usable CPU (UsableCpus), or a helper thread that cannot start.
  bool StartEstimationHelper();

  /// Waits until the helper has applied every record of the batches run
  /// since StartEstimationHelper, then joins it: the estimator is then
  /// exactly as RunInline without a helper would have left it. A no-op
  /// without a helper.
  void StopEstimationHelper();

  /// Hands a batch to the worker; sleeps while the ring is full.
  /// Producer thread only. Empty batches are ignored.
  void Submit(std::vector<Edge>&& batch);

  /// Sleeps until the worker has run every submitted edge. On return the
  /// estimator state is safely readable until the next Submit. Producer
  /// thread only; returns at once for an unstarted worker.
  void WaitDrained() { ring_.WaitDrained(); }

  /// Signals end of stream and joins the worker thread. Idempotent; a
  /// no-op for an unstarted worker.
  void Join();

  /// Edges handed to this shard, by Submit or RunInline.
  uint64_t edges_submitted() const { return submitted_edges_; }

  /// Seconds this worker spent executing batches (per-thread CPU time).
  /// The maximum over workers is the ingest critical path: on a host with
  /// enough cores it bounds the ingestion wall-clock. While a helper runs
  /// the estimation stage, it counts the producer's sampling stage,
  /// including its waits for a free log chunk.
  double busy_seconds() const {
    return static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

  /// CPU seconds helper threads spent in the estimation stage, including
  /// their waits for a log chunk (0 if none ran). Read after
  /// StopEstimationHelper.
  double estimation_seconds() const {
    return static_cast<double>(estimation_ns_) * 1e-9;
  }

  /// Wall-clock seconds this worker slept on an empty ring.
  /// Complements busy_seconds(): a large idle share on a loaded engine
  /// means the shard layout, not the worker, is the bottleneck.
  double idle_seconds() const {
    return static_cast<double>(ring_.metrics().pop_wait_ns.Value()) * 1e-9;
  }

  /// Worker counters (batches processed, batch latency).
  const WorkerMetrics& worker_metrics() const { return worker_metrics_; }

  /// Backpressure counters of the ring feeding this worker.
  const RingMetrics& ring_metrics() const { return ring_.metrics(); }

  /// The shard's reservoir; caller must hold the drained/joined guarantee.
  const GpsReservoir& reservoir() const;

  /// In-stream estimates of the shard's substream (triangles and wedges
  /// entirely inside this shard). Requires kInStream.
  GraphEstimates InStreamEstimates() const;

  /// The shard's in-stream estimator, for checkpointing. Requires
  /// kInStream; caller must hold the drained/joined guarantee.
  const InStreamEstimator& in_stream_estimator() const;

  /// The shard's motif suite (empty when no motifs are configured);
  /// caller must hold the drained/joined guarantee.
  const MotifSuite& motif_suite() const { return motifs_; }

  /// Per-slot sub-stratum table for the cross-stratum union pass
  /// (engine/merge.h ShardSampleRef). Always empty: every edge of a shard
  /// belongs to the shard's one stratum.
  std::span<const uint32_t> slot_strata() const { return {}; }

 private:
  void RunWorker();

  /// The batch body of RunWorker and RunInline: the shard's estimator (and
  /// motif suite) over the batch in arrival order, clocked and traced.
  void RunBatch(std::span<const Edge> batch);

  ShardOptions options_;

  // Exactly one of the two is live, per options_.estimator.
  std::unique_ptr<InStreamEstimator> in_stream_;
  std::unique_ptr<GpsSampler> sampler_;
  // Worker-owned alongside in_stream_ (reads its reservoir, never writes).
  MotifSuite motifs_;

  BatchRing<std::vector<Edge>> ring_;
  std::thread thread_;
  bool joined_ = false;

  // The estimation-stage helper (StartEstimationHelper) and its log. The
  // thread is declared after what it uses.
  std::unique_ptr<SlotLog> log_;
  uint64_t estimation_ns_ = 0;  // helper-written, read after its join
  std::thread helper_;

  uint64_t submitted_edges_ = 0;       // producer-owned
  std::atomic<uint64_t> busy_ns_{0};   // executed-work clock
  WorkerMetrics worker_metrics_;       // worker-thread writes
  TraceEventSink* trace_sink_ = nullptr;  // set before Start, then const
  TraceBuffer* trace_buf_ = nullptr;      // worker-thread writes
};

}  // namespace gps

#endif  // GPS_ENGINE_SHARD_H_
