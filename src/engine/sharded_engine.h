// ShardedEngine: parallel GPS ingestion over K hash-partitioned shards
// with merged stratified estimates.
//
// Architecture (core -> engine -> tools layering):
//
//   Process(e)  --hash(EdgeKey)-->  pending batch per shard
//        |                                |  (batch_size edges)
//        |                                v
//        |                     batch ring (engine/ring_buffer.h)
//        |                                |
//        v                                v
//   producer thread            K worker threads, one InStreamEstimator
//                              (or GpsSampler) per shard — engine/shard.h
//
// At K=1 there is no worker thread and no ring: each full batch runs on
// the producer through the same batch body (ShardWorker::RunInline). For
// the length of a ProcessEdges span of at least kMinHelperSpan edges, a
// helper thread runs Algorithm 3's estimation stage beside it
// (ShardWorker::StartEstimationHelper), so a K=1 ingest keeps two cores
// busy.
//
//   MergedEstimates() = sum of per-shard in-stream estimates (within-shard
//   stratum) + cross-shard Horvitz-Thompson correction over the union
//   sample (engine/merge.h).
//
// Partitioning is by canonical-edge hash: shard(e) is a deterministic
// function of {u, v}, so re-arrivals of an edge and both "sides" of any
// adjacency land in one shard's substream, and the partition is stable
// across runs and thread schedules.
//
// Determinism contract:
//   * fixed (stream, options) => byte-identical per-shard reservoirs
//     regardless of thread scheduling or batch size;
//   * num_shards == 1 reproduces the serial InStreamEstimator /
//     GpsSampler sample path exactly, byte for byte.
//
// Threading contract: Process/Drain/Finish/MergedEstimates must all be
// called from one thread (the producer). Estimator state is readable
// only between Drain() (or Finish()) and the next Process().

#ifndef GPS_ENGINE_SHARDED_ENGINE_H_
#define GPS_ENGINE_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/estimates.h"
#include "core/gps.h"
#include "engine/merge.h"
#include "engine/shard.h"
#include "graph/types.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace gps {

/// Shortest ProcessEdges span whose K=1 estimation stage runs on a helper
/// thread. Each span pays for the thread's start and join and for the
/// chunks the two stages cannot overlap at its ends. Feeding soc-orkut-sim
/// (capacity 100000) to a K=1 engine in spans of s edges, with the helper
/// against one thread (8 interleaved runs on a 4-vCPU VM, median time
/// ratio and the runs the helper won): s = 128, 1.12 and 1/8; 512, 0.82
/// and 6/8; 1024, 0.81 and 5/8; 2048, 0.66 and 7/8; 4096 and 8192, 0.66
/// and 8/8. Below 4096 the helper's gain is not reliable.
inline constexpr size_t kMinHelperSpan = 4096;

/// File name SerializeShards gives the manifest inside a checkpoint
/// directory.
inline constexpr const char* kShardManifestFilename = "manifest.gpsm";

/// File name of shard s's GPS-INSTREAM file inside a checkpoint directory,
/// from its index and the digest of its bytes
/// ("shard-0003-00c0ffee12345678.gps"). Each checkpoint names its own
/// files, so writing one never replaces a file an older manifest names
/// with other bytes; readers derive the name from the shard index and
/// the manifest's digest for it.
std::string ShardFileName(uint32_t shard, uint64_t digest);

struct ShardedEngineOptions {
  /// Base sampler configuration. `capacity` is the TOTAL memory budget:
  /// each shard's reservoir gets ceil(capacity / K) slots, so the
  /// engine's total memory matches the serial sampler's; `seed` is the
  /// base seed each shard's seed is derived from (core/seeding.h).
  GpsSamplerOptions sampler;
  /// Number of shards K (>= 1).
  uint32_t num_shards = 1;
  /// Edges per hand-off batch. gps_cli always runs the default: from 64
  /// to 4096, K=4 wall time moved only within host noise and the
  /// estimates never changed. The field stays settable for the tests that
  /// vary it to check that batching never reaches the sample path, and
  /// for perfbench/replay.cc, which sets gps_cli's value explicitly.
  size_t batch_size = 1024;
  /// Estimation strategy; see engine/merge.h.
  MergeMode merge_mode = MergeMode::kInStreamPlusCross;
  /// Motif statistics (core/motifs.h registry names, validated by the
  /// caller) each shard estimates alongside tri/wedge on the same
  /// reservoir sample path; merged via per-motif shard sums plus the
  /// cross-shard union correction (MergedMotifEstimates). Requires
  /// MergeMode::kInStreamPlusCross when non-empty. Estimation consumes no
  /// randomness, so enabling motifs never changes reservoirs or tri/wedge
  /// estimates.
  std::vector<std::string> motifs;
  /// Optional Chrome-trace recorder (util/trace.h). When set, every worker
  /// gets a per-thread span buffer ("batch" spans) and the producer
  /// thread records "estimate" and "checkpoint" spans; the sink must
  /// outlive the engine, and the caller writes the JSON after Finish().
  /// Null (default) disables tracing entirely. Observation-only: tracing
  /// never changes the sample path.
  TraceEventSink* trace = nullptr;
};

/// One merged-estimate sample of a monitored stream (MergedRecord).
struct MonitorRecord {
  /// Stream position the sample was taken at (total edges ingested,
  /// including any checkpointed prefix a resumed engine started from).
  uint64_t edges_processed = 0;
  GraphEstimates estimates;
  /// Merged motif estimates in suite order; empty when the engine runs
  /// without a motif suite.
  std::vector<MotifEstimate> motifs;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options);
  ~ShardedEngine();  // implies Finish()

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Routes one arriving edge to its shard (batched; the edge is handed
  /// off once the shard's pending batch fills).
  void Process(const Edge& e);

  /// Process() over a span of edges of any size: a whole parsed stream,
  /// a piece of one cut at a monitor tick, or a GPS-STREAM reader's
  /// Block() span into its read buffer. Byte-identical to calling
  /// Process(e) for each edge in order (same routing, same batch
  /// boundaries); how a stream is cut into spans is never part of the
  /// sample path. The edges are copied into pending batches before the
  /// call returns, so the span need not outlive it. At K=1 a span of at
  /// least kMinHelperSpan edges runs the estimation stage on a helper
  /// thread that exits before the call returns.
  void ProcessEdges(std::span<const Edge> edges);

  /// Hands every partly filled batch to its shard and waits until the
  /// shards have run every edge routed so far. Afterwards (and until the
  /// next Process) shard state is safely readable, so streaming
  /// applications can take mid-stream estimates.
  void Drain();

  /// Hands off the partly filled batches, then stops and joins all
  /// workers. Idempotent; further Process calls are invalid.
  void Finish();

  /// Merged whole-graph estimates per the configured MergeMode. Drains
  /// first if needed.
  GraphEstimates MergedEstimates();

  /// Post-stream estimates of ALL subgraphs from the union sample: the
  /// MergeMode::kPostStreamMerged estimate, available in either mode.
  /// With one shard it is EstimatePostStream of the lone reservoir, bit
  /// for bit. Drains first if needed.
  GraphEstimates MergedPostStreamEstimates();

  /// Merged motif estimates in suite order (empty without a motif suite):
  /// per-motif sums of the shard suites' in-stream accumulators plus the
  /// cross-shard post-stream correction over the union sample
  /// (engine/merge.h). Drains first if needed.
  std::vector<MotifEstimate> MergedMotifEstimates();

  /// Merged unbiased estimate of the number of distinct edges that have
  /// arrived (engine/merge.h EstimateMergedEdgeCount). Drains first if
  /// needed.
  double MergedEdgeCountEstimate();

  /// Merged unbiased estimate of v's degree in the arrived graph. Drains
  /// first if needed.
  double MergedDegreeEstimate(NodeId v);

  /// One monitoring tick at the current stream position: drains, patches
  /// the union the engine keeps across ticks once for both the tri/wedge
  /// and motif passes (engine/README.md "Continuous monitoring"), and
  /// returns the merged estimates MergedEstimates() and
  /// MergedMotifEstimates() would, bit for bit, at edges_processed().
  /// Records the producer's "estimate" trace span. The caller picks the
  /// positions — gps_cli monitor cuts the stream at every absolute
  /// multiple of its --every — and reading never touches estimator
  /// state, so the sample path is the same however often it is called.
  MonitorRecord MergedRecord();

  /// Drains and serializes every shard into `dir` (created if missing):
  /// one GPS-INSTREAM file per shard (ShardFileName) holding its whole
  /// state — in-stream estimator and motif accumulators — plus a
  /// GPS-MANIFEST file (kShardManifestFilename) recording the layout,
  /// weight configuration, motif set and the K file digests. The files
  /// are published before the manifest, and the shard files of earlier
  /// checkpoints are removed only after it, so a run killed or failing at
  /// any point leaves `dir` holding the previous checkpoint or the new
  /// one. The engine stays usable afterwards, so checkpoints can be taken
  /// mid-stream. Requires in-stream shard estimators
  /// (MergeMode::kInStreamPlusCross).
  Status SerializeShards(const std::string& dir);

  /// Rebuilds a RUNNING engine from the manifest SerializeShards wrote, so
  /// the stream can continue where the interrupted run left off, or
  /// (after Finish) the merged estimates of the checkpointed prefix can
  /// be read without re-streaming. Per-shard reservoirs, snapshot and
  /// motif accumulators, and RNG states are restored from the K shard
  /// files beside the manifest (exact round trip), workers are started
  /// (none at K=1), and edges_processed() resumes at the manifest's
  /// stream offset. Feeding the suffix of the original stream yields
  /// per-shard reservoirs and merged estimates byte-identical to an
  /// uninterrupted run. Every shard file must match its digest, and its
  /// seed, capacity, weight configuration and motif set must match the
  /// manifest's layout (InvalidArgument otherwise); the shards' arrival
  /// counts must sum to the stream offset (FailedPrecondition). A
  /// directory passed as the manifest path is refused by name. The
  /// resumed engine runs the default batch size and no trace: neither
  /// reaches the sample path.
  static Result<std::unique_ptr<ShardedEngine>> ResumeFromCheckpoints(
      const std::string& manifest_path);

  /// Deterministic shard assignment: SplitMix64 avalanche of the
  /// canonical edge key, reduced to [0, num_shards) by Lemire's
  /// multiply-shift. Both orientations of an edge hash alike.
  static uint32_t ShardOfEdge(const Edge& e, uint32_t num_shards);

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  /// Total edges routed (submitted + still pending in batches).
  uint64_t edges_processed() const { return edges_processed_; }

  /// The ingest critical path: the busiest worker's executed-work seconds
  /// (ShardWorker::busy_seconds). On a host with >= K+1 cores this bounds
  /// ingestion wall-clock.
  double MaxWorkerBusySeconds() const;

  /// Producer CPU seconds spent routing in ProcessEdges. Hand-offs are
  /// excluded (ring traffic, and at K=1 the inline batch runs, not routing
  /// work); the per-edge Process path is not clocked.
  double ProducerRouteSeconds() const {
    return static_cast<double>(producer_route_ns_) * 1e-9;
  }

  /// Aggregated engine metrics, assembled in one pass over the shards:
  /// counters and the worker.batch_latency buckets are summed, per-shard
  /// gauges take their maximum, and the derived values (sample sizes,
  /// store health, z*, busy/idle seconds) are computed from drained shard
  /// state. Each section is sorted by name. Drains first if needed, so
  /// the snapshot is consistent with every edge ingested so far; like
  /// every drain, it is invisible to the sample path.
  MetricsSnapshot SnapshotMetrics();

  /// Per-shard worker access (reservoirs, in-stream estimates). Caller
  /// must hold the Drain()/Finish() guarantee.
  const ShardWorker& shard(uint32_t i) const { return *shards_[i]; }

  const ShardedEngineOptions& options() const { return options_; }

 private:
  /// Resume construction: wraps checkpoint-restored estimators (one per
  /// shard, indexed 0..K-1) with their motif accumulators (one vector per
  /// shard, matching options.motifs) and starts the workers.
  ShardedEngine(ShardedEngineOptions options,
                std::vector<std::unique_ptr<InStreamEstimator>> restored,
                std::vector<std::vector<MotifAccumulator>> restored_motifs,
                uint64_t stream_offset);

  /// Gives every shard and the producer a trace buffer when a sink is
  /// configured (both ctors call it once shards_ is built).
  void AttachTraceBuffers();

  /// Per-shard reservoir pointers; caller must hold the drained/finished
  /// guarantee.
  std::vector<const GpsReservoir*> CollectReservoirs() const;

  /// Per-shard union-sample inputs; caller must hold the drained/finished
  /// guarantee.
  std::vector<ShardSampleRef> CollectSampleRefs() const;

  /// The ONE route-and-batch step shared by Process and the ProcessEdges
  /// loop: route the edge, append to its shard's pending batch, hand off
  /// at batch_size. Inlined; any drift between the two callers would
  /// break the span-feed byte-identity contract.
  void RouteOne(const Edge& e);

  /// Hands shard s's pending batch over and readies the next one: onto
  /// the worker's ring, or at K=1 through the shard's batch body right
  /// here on the producer (StartWorkers).
  void HandOff(uint32_t s);

  /// HandOff of shard s's full pending batch, charged to the submit clock
  /// so producer_route_ns_ measures routing, not the hand-off or the
  /// inline batch run.
  void SubmitPending(uint32_t s);

  /// Hands every partly filled pending batch off (Drain and Finish).
  void Flush();

  /// Starts the K worker threads — none at K=1, whose one shard runs on
  /// the producer thread. Both constructors call it.
  void StartWorkers();

  /// Patches union_ to the drained shard state and returns it.
  const UnionSample& SyncUnion();

  /// In-stream-mode merged estimates over the synced union sample, which
  /// MergedRecord shares between the tri/wedge AND motif passes.
  /// Drained state required.
  GraphEstimates MergedGraphEstimatesOver(const UnionSample& sample);
  std::vector<MotifEstimate> MergedMotifEstimatesOver(
      const UnionSample& sample);

  ShardedEngineOptions options_;
  std::vector<std::unique_ptr<ShardWorker>> shards_;
  std::vector<std::vector<Edge>> pending_;
  uint64_t producer_route_ns_ = 0;   // ProcessEdges routing CPU time
  uint64_t producer_submit_ns_ = 0;  // hand-off CPU time
  uint64_t edges_processed_ = 0;
  bool finished_ = false;

  /// The union of the shard reservoirs, kept across merges: SyncUnion
  /// patches it with the admissions and evictions since the last merge
  /// instead of rebuilding it.
  UnionSample union_;

  /// Edges in the union sample of the last merge pass
  /// (merge.union_sample_size); observation-only.
  size_t last_union_sample_size_ = 0;
  TraceBuffer* producer_trace_buf_ = nullptr;  // producer-thread spans
};

}  // namespace gps

#endif  // GPS_ENGINE_SHARDED_ENGINE_H_
