#include "engine/sharded_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/in_stream.h"
#include "core/motifs.h"
#include "core/post_stream.h"
#include "core/seeding.h"
#include "core/serialize.h"
#include "util/digest.h"
#include "util/input_file.h"
#include "util/parallel_chunks.h"
#include "util/random.h"
#include "util/staged_file.h"

namespace gps {

std::string ShardFileName(uint32_t shard) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04u.gps", shard);
  return name;
}

namespace {

/// Per-shard reservoir capacity: each of the k shards gets ceil(total /
/// k) slots, so the layout's memory matches the serial sampler's.
size_t PerShardCapacity(size_t total, uint32_t k) {
  return (total + k - 1) / k;
}

bool SameWeightConfig(const WeightOptions& a, const WeightOptions& b) {
  return a.kind == b.kind && a.coefficient == b.coefficient &&
         a.adjacency_coefficient == b.adjacency_coefficient &&
         a.default_weight == b.default_weight;
}

/// Derives shard s's worker configuration from the engine options — the
/// ONE place the per-shard capacity split and seed derivation live, so
/// fresh construction and checkpoint resume cannot drift apart (drift
/// would silently break the resume byte-identity contract).
ShardOptions MakeShardOptions(const ShardedEngineOptions& options,
                              uint32_t s, ShardEstimatorKind kind) {
  ShardOptions shard_options;
  shard_options.sampler = options.sampler;
  shard_options.sampler.capacity =
      PerShardCapacity(options.sampler.capacity, options.num_shards);
  shard_options.sampler.seed =
      DeriveShardSeed(options.sampler.seed, s, options.num_shards);
  shard_options.estimator = kind;
  shard_options.motifs = options.motifs;
  return shard_options;
}

/// Layout compatibility between manifests that should describe shards of
/// one logical run. Field-by-field so errors name what disagrees.
Status CheckManifestsCompatible(const ShardManifest& base,
                                const ShardManifest& other,
                                const std::string& path) {
  if (other.num_shards != base.num_shards) {
    return Status::FailedPrecondition(
        "manifest " + path + ": shard count " +
        std::to_string(other.num_shards) + " does not match " +
        std::to_string(base.num_shards));
  }
  if (other.base_seed != base.base_seed) {
    return Status::FailedPrecondition(
        "manifest " + path + ": base seed " +
        std::to_string(other.base_seed) + " does not match " +
        std::to_string(base.base_seed));
  }
  if (other.total_capacity != base.total_capacity) {
    return Status::FailedPrecondition(
        "manifest " + path + ": total capacity " +
        std::to_string(other.total_capacity) + " does not match " +
        std::to_string(base.total_capacity));
  }
  if (!SameWeightConfig(other.weight, base.weight)) {
    return Status::FailedPrecondition(
        "manifest " + path + ": weight configuration does not match");
  }
  if (other.motif_names != base.motif_names) {
    return Status::FailedPrecondition(
        "manifest " + path +
        ": motif set does not match (shards of one run share one ordered "
        "motif suite)");
  }
  if (other.stream_offset != base.stream_offset) {
    return Status::FailedPrecondition(
        "manifest " + path + ": stream offset " +
        std::to_string(other.stream_offset) + " does not match " +
        std::to_string(base.stream_offset) +
        " (checkpoints taken at different stream positions cannot be "
        "combined)");
  }
  return Status::Ok();
}

/// Reads a whole checkpoint file (`what` names it in the refusals) through
/// InputFile, which refuses a FIFO or any other non-regular file by name
/// at once instead of waiting for a writer.
Result<std::string> ReadFileBytes(const std::string& path,
                                  const std::string& what) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return Status::NotFound("cannot open " + what + " " + path);
  }
  Result<InputFile> file = InputFile::Open(path);
  if (!file.ok()) return file.status().WithContext(what);
  std::string bytes(file->size(), '\0');
  if (Status st = file->ReadAt(0, bytes.data(), bytes.size()); !st.ok()) {
    return st.WithContext(what);
  }
  return bytes;
}

/// A fully validated checkpoint set: the shared layout (with the stream
/// position the run was interrupted at) and the restored per-shard
/// estimators in shard order. ResumeFromCheckpoints builds its engine on
/// it.
struct LoadedCheckpoints {
  ShardManifest layout;  // entries cleared; motif_names retained
  std::vector<std::unique_ptr<InStreamEstimator>> estimators;
  /// Restored motif accumulators, one vector per shard in shard order;
  /// every inner vector matches layout.motif_names (possibly empty).
  std::vector<std::vector<MotifAccumulator>> motif_accumulators;
};

Result<LoadedCheckpoints> LoadCheckpoints(
    std::span<const std::string> manifest_paths) {
  if (manifest_paths.empty()) {
    return Status::InvalidArgument("no manifests to merge");
  }

  struct LocatedEntry {
    ShardManifestEntry entry;
    std::filesystem::path dir;
  };
  ShardManifest base;
  std::vector<LocatedEntry> located;
  bool first = true;
  for (const std::string& path : manifest_paths) {
    // Every checkpoint is a directory, so passing the directory itself is
    // the likely slip: name the file inside it.
    if (std::filesystem::is_directory(path)) {
      return Status::InvalidArgument(
          "manifest " + path + " is a checkpoint directory; pass " +
          (std::filesystem::path(path) / kShardManifestFilename).string());
    }
    Result<std::string> bytes = ReadFileBytes(path, "manifest");
    if (!bytes.ok()) return bytes.status();
    std::istringstream in(*bytes);
    Result<ShardManifest> manifest = DeserializeManifest(in);
    if (!manifest.ok()) {
      return manifest.status().WithContext("manifest " + path);
    }
    if (first) {
      base = *manifest;
      first = false;
    } else if (Status st = CheckManifestsCompatible(base, *manifest, path);
               !st.ok()) {
      return st;
    }
    const std::filesystem::path dir =
        std::filesystem::path(path).parent_path();
    for (const ShardManifestEntry& entry : manifest->entries) {
      located.push_back({entry, dir});
    }
  }

  const uint32_t k = base.num_shards;
  std::vector<const LocatedEntry*> by_index(k, nullptr);
  for (const LocatedEntry& le : located) {
    if (by_index[le.entry.shard_index] != nullptr) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(le.entry.shard_index) +
          " appears in multiple manifests");
    }
    by_index[le.entry.shard_index] = &le;
  }
  for (uint32_t s = 0; s < k; ++s) {
    if (by_index[s] == nullptr) {
      return Status::FailedPrecondition(
          "manifests cover " + std::to_string(located.size()) + " of " +
          std::to_string(k) + " shards (shard " + std::to_string(s) +
          " missing)");
    }
  }

  const size_t per_shard_capacity = PerShardCapacity(base.total_capacity, k);
  LoadedCheckpoints loaded;
  loaded.estimators.reserve(k);
  uint64_t arrival_sum = 0;
  // Shard order matters: summation in the merge must match the live
  // engine's 0..K-1 iteration for bit-identical merged estimates.
  for (uint32_t s = 0; s < k; ++s) {
    const LocatedEntry& le = *by_index[s];
    const std::filesystem::path file = le.dir / ShardFileName(s);
    Result<std::string> bytes = ReadFileBytes(file.string(), "shard file");
    if (!bytes.ok()) return bytes.status();
    if (ChecksumBytes(*bytes) != le.entry.digest) {
      return Status::InvalidArgument(
          "digest mismatch for shard file " + file.string() +
          " (corrupt or mismatched checkpoint)");
    }
    // The digest vouches for the bytes; the layout checks below vouch
    // that they belong to this shard of this layout.
    std::istringstream in(*bytes);
    Result<InStreamCheckpoint> shard = DeserializeInStreamEstimator(in);
    if (!shard.ok()) {
      return shard.status().WithContext("shard file " + file.string());
    }
    const InStreamEstimator& est = shard->estimator;
    if (est.reservoir().options().seed !=
        DeriveShardSeed(base.base_seed, s, k)) {
      return Status::InvalidArgument(
          "shard file " + file.string() +
          " seed does not match the layout derivation from base seed " +
          std::to_string(base.base_seed));
    }
    if (est.reservoir().options().capacity != per_shard_capacity) {
      return Status::InvalidArgument(
          "shard file " + file.string() +
          " capacity disagrees with the manifest layout");
    }
    if (!SameWeightConfig(est.weight_function().options(), base.weight)) {
      return Status::InvalidArgument(
          "shard file " + file.string() +
          " weight configuration disagrees with the manifest");
    }
    if (shard->motif_names != base.motif_names) {
      return Status::InvalidArgument(
          "shard file " + file.string() +
          " motif set disagrees with the manifest");
    }
    // Shard files are untrusted: a wrapped sum must not masquerade as a
    // consistent stream offset.
    if (arrival_sum + est.edges_processed() < arrival_sum) {
      return Status::InvalidArgument(
          "shard arrival counts overflow across the checkpoint set");
    }
    arrival_sum += est.edges_processed();
    loaded.estimators.push_back(
        std::make_unique<InStreamEstimator>(std::move(shard->estimator)));
    loaded.motif_accumulators.push_back(
        std::move(shard->motif_accumulators));
  }

  // A fully covered layout accounts for every routed edge: each one is
  // consumed by exactly one shard.
  if (base.stream_offset != arrival_sum) {
    return Status::FailedPrecondition(
        "manifest stream offset " + std::to_string(base.stream_offset) +
        " disagrees with the shards' arrival counts (" +
        std::to_string(arrival_sum) + ")");
  }
  loaded.layout = std::move(base);
  loaded.layout.entries.clear();  // superseded by the restored estimators
  return loaded;
}

}  // namespace

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : options_(std::move(options)) {
  assert(options_.num_shards >= 1);
  assert(options_.batch_size >= 1);
  assert((options_.motifs.empty() ||
          options_.merge_mode == MergeMode::kInStreamPlusCross) &&
         "motif suites need in-stream shard estimators");
  assert(ValidateMotifNames(options_.motifs).ok() &&
         "unvalidated motif names");
  const uint32_t k = options_.num_shards;
  const ShardEstimatorKind kind =
      options_.merge_mode == MergeMode::kPostStreamMerged
          ? ShardEstimatorKind::kPostStream
          : ShardEstimatorKind::kInStream;
  shards_.reserve(k);
  pending_.resize(k);
  for (uint32_t s = 0; s < k; ++s) {
    shards_.push_back(
        std::make_unique<ShardWorker>(MakeShardOptions(options_, s, kind)));
    pending_[s].reserve(options_.batch_size);
  }
  AttachTraceBuffers();
  StartWorkers();
}

void ShardedEngine::StartWorkers() {
  // K=1 runs its one shard on the producer (HandOff). A worker thread
  // there buys no parallelism, yet its ring holds batches in flight and
  // the shard then allocates from the thread's own malloc arena, where
  // the post-stream pass cannot reuse the pages ingest freed: peak RSS of
  // a soc-orkut-sim estimate (capacity 100000) rose from 25.9 to 29.6 MB.
  // The K=1 estimation helper (ProcessEdges) allocates nothing.
  if (num_shards() == 1) return;
  for (auto& shard : shards_) shard->Start();
}

ShardedEngine::~ShardedEngine() { Finish(); }

uint32_t ShardedEngine::ShardOfEdge(const Edge& e, uint32_t num_shards) {
  if (num_shards <= 1) return 0;
  // SplitMix64 over the canonical 64-bit edge key: both orientations of
  // an edge — and thus every re-observation — hash identically.
  uint64_t state = EdgeKey(e);
  const uint64_t h = SplitMix64Next(&state);
  // Lemire multiply-shift reduction: unbiased enough for partitioning and
  // cheaper than modulo.
  return static_cast<uint32_t>(
      (static_cast<unsigned __int128>(h) * num_shards) >> 64);
}

void ShardedEngine::RouteOne(const Edge& e) {
  const uint32_t s = ShardOfEdge(e, num_shards());
  std::vector<Edge>& batch = pending_[s];
  batch.push_back(e);
  if (batch.size() >= options_.batch_size) SubmitPending(s);
}

void ShardedEngine::HandOff(uint32_t s) {
  std::vector<Edge>& batch = pending_[s];
  if (num_shards() == 1) {
    shards_[s]->RunInline(batch);
    batch.clear();  // keeps its capacity for the next batch
    return;
  }
  shards_[s]->Submit(std::exchange(batch, {}));
  batch.reserve(options_.batch_size);
}

void ShardedEngine::SubmitPending(uint32_t s) {
  const uint64_t t0 = ThreadCpuNowNs();
  HandOff(s);
  producer_submit_ns_ += ThreadCpuNowNs() - t0;
}

void ShardedEngine::Process(const Edge& e) {
  assert(!finished_);
  ++edges_processed_;
  RouteOne(e);
}

void ShardedEngine::ProcessEdges(std::span<const Edge> edges) {
  assert(!finished_);
  // At K=1 the shard's estimation stage runs on a helper thread for the
  // length of a long span; shorter spans, and hosts with one usable CPU,
  // keep both stages on this thread.
  const bool helper = num_shards() == 1 && edges.size() >= kMinHelperSpan &&
                      shards_[0]->StartEstimationHelper();
  // The same RouteOne step as Process, clocked for the route stage
  // (hand-offs excluded via the submit clock).
  const uint64_t t0 = ThreadCpuNowNs();
  const uint64_t submit0 = producer_submit_ns_;
  for (const Edge& e : edges) {
    ++edges_processed_;
    RouteOne(e);
  }
  producer_route_ns_ +=
      (ThreadCpuNowNs() - t0) - (producer_submit_ns_ - submit0);
  // Returns once the helper has applied every handed-off arrival, so the
  // shard is exactly as the one-thread path would have left it.
  if (helper) shards_[0]->StopEstimationHelper();
}

void ShardedEngine::Flush() {
  for (uint32_t s = 0; s < num_shards(); ++s) {
    if (!pending_[s].empty()) HandOff(s);
  }
}

void ShardedEngine::Drain() {
  Flush();
  for (auto& shard : shards_) shard->WaitDrained();
}

void ShardedEngine::Finish() {
  if (finished_) return;
  Flush();
  for (auto& shard : shards_) shard->Join();
  finished_ = true;
}

std::vector<const GpsReservoir*> ShardedEngine::CollectReservoirs() const {
  std::vector<const GpsReservoir*> reservoirs;
  reservoirs.reserve(shards_.size());
  for (const auto& shard : shards_) {
    reservoirs.push_back(&shard->reservoir());
  }
  return reservoirs;
}

std::vector<ShardSampleRef> ShardedEngine::CollectSampleRefs() const {
  std::vector<ShardSampleRef> refs;
  refs.reserve(shards_.size());
  for (const auto& shard : shards_) {
    refs.push_back({&shard->reservoir(), shard->slot_strata()});
  }
  return refs;
}

double ShardedEngine::MaxWorkerBusySeconds() const {
  double max_busy = 0.0;
  for (const auto& shard : shards_) {
    max_busy = std::max(max_busy, shard->busy_seconds());
  }
  return max_busy;
}

void ShardedEngine::AttachTraceBuffers() {
  if (options_.trace == nullptr) return;
  const uint32_t k = num_shards();
  for (uint32_t s = 0; s < k; ++s) {
    shards_[s]->SetTrace(
        options_.trace,
        options_.trace->MakeBuffer(static_cast<int>(s),
                                   "shard-" + std::to_string(s)));
  }
  producer_trace_buf_ =
      options_.trace->MakeBuffer(static_cast<int>(k), "producer");
}

MetricsSnapshot ShardedEngine::SnapshotMetrics() {
  if (!finished_) Drain();
  // Counters and the latency histogram sum over the shards; per-shard
  // gauges take their maximum, except the totals summed below. The maps
  // keep each section in byte order of its names (shard10 before shard2).
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  const auto max_into = [&gauges](const std::string& name, double value) {
    double& gauge = gauges[name];
    gauge = std::max(gauge, value);
  };
  MetricsSnapshot::HistogramValue latency;
  latency.name = "worker.batch_latency";
  latency.buckets.assign(LatencyHistogram::kNumBuckets, 0);
  std::vector<size_t> probes;  // reused across shards
  for (uint32_t s = 0; s < num_shards(); ++s) {
    const ShardWorker& shard = *shards_[s];
    const RingMetrics& ring = shard.ring_metrics();
    counters["ring.push_fail"] += ring.push_fail.Value();
    counters["ring.pop_empty"] += ring.pop_empty.Value();
    max_into("ring.occupancy_hwm", ring.occupancy_hwm.Value());
    const WorkerMetrics& worker = shard.worker_metrics();
    counters["worker.batches_processed"] += worker.batches_processed.Value();
    latency.count += worker.batch_latency.Count();
    latency.sum_ns += worker.batch_latency.SumNs();
    for (size_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
      latency.buckets[b] += worker.batch_latency.BucketCount(b);
    }
    max_into("worker.busy_seconds", shard.busy_seconds());
    max_into("worker.estimation_seconds", shard.estimation_seconds());
    max_into("worker.idle_seconds", shard.idle_seconds());

    const GpsReservoir& res = shard.reservoir();
    counters["reservoir.precheck_rejects"] +=
        res.metrics().precheck_rejects.Value();
    counters["reservoir.admissions"] += res.metrics().admissions.Value();
    counters["reservoir.evictions"] += res.metrics().evictions.Value();
    max_into("reservoir.zstar", res.threshold());
    gauges["reservoir.sample_size"] += static_cast<double>(res.size());
    gauges["merge.sample_size.shard" + std::to_string(s)] =
        static_cast<double>(res.size());

    const SampledGraph& graph = res.graph();
    const IntersectMetrics& im = *graph.intersect_metrics();
    counters["intersect.merge"] += im.merge_calls.Value();
    counters["intersect.gallop"] += im.gallop_calls.Value();
    counters["intersect.simd"] += im.simd_calls.Value();
    gauges["intersect.comparisons_saved"] +=
        static_cast<double>(im.comparisons_saved.Value());
    // Packed-store memory introspection: snapshot-time only (drained
    // state required), never a hot-path instrument.
    gauges["store.arena_bytes"] += static_cast<double>(graph.arena_bytes());
    max_into("store.load_factor", graph.node_load_factor());
    probes.clear();
    graph.ForEachNodeProbeLength([&](size_t len) { probes.push_back(len); });
    double probe_p99 = 0.0;
    if (!probes.empty()) {
      const size_t rank = (probes.size() * 99) / 100;
      std::nth_element(probes.begin(), probes.begin() + rank, probes.end());
      probe_p99 = static_cast<double>(probes[rank]);
    }
    max_into("store.probe_len_p99", probe_p99);
  }
  gauges["engine.edges_ingested"] = static_cast<double>(edges_processed_);
  gauges["merge.union_sample_size"] =
      static_cast<double>(last_union_sample_size_);

  MetricsSnapshot snap;
  for (const auto& [name, value] : counters) {
    snap.counters.push_back({name, value});
  }
  for (const auto& [name, value] : gauges) snap.gauges.push_back({name, value});
  snap.histograms.push_back(std::move(latency));
  return snap;
}

GraphEstimates ShardedEngine::MergedGraphEstimatesOver(
    const UnionSample& sample) {
  last_union_sample_size_ = sample.num_edges();
  std::vector<GraphEstimates> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    per_shard.push_back(shard->InStreamEstimates());
  }
  return AddEstimates(SumShardEstimates(per_shard),
                      EstimateCrossShard(sample));
}

std::vector<MotifEstimate> ShardedEngine::MergedMotifEstimatesOver(
    const UnionSample& sample) {
  if (options_.motifs.empty()) return {};
  std::vector<std::vector<MotifAccumulator>> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    per_shard.push_back(shard->motif_suite().Accumulators());
  }
  return MakeMotifEstimates(
      options_.motifs, SumShardMotifAccumulators(per_shard),
      EstimateCrossShardMotifs(sample, options_.motifs));
}

const UnionSample& ShardedEngine::SyncUnion() {
  union_.Update(std::span<const ShardSampleRef>(CollectSampleRefs()));
  return union_;
}

GraphEstimates ShardedEngine::MergedEstimates() {
  if (!finished_) Drain();
  if (options_.merge_mode == MergeMode::kPostStreamMerged) {
    return MergedPostStreamEstimates();
  }
  return MergedGraphEstimatesOver(SyncUnion());
}

GraphEstimates ShardedEngine::MergedPostStreamEstimates() {
  if (!finished_) Drain();
  if (num_shards() == 1) {
    return EstimatePostStreamParallel(shards_[0]->reservoir(), MergeThreads());
  }
  return EstimateMergedPostStream(SyncUnion());
}

std::vector<MotifEstimate> ShardedEngine::MergedMotifEstimates() {
  // Post-stream shards run no suites (guarded by the constructor assert;
  // double-checked here so a release build degrades to "no motifs"
  // instead of indexing mismatched suite vectors).
  if (options_.motifs.empty() ||
      options_.merge_mode != MergeMode::kInStreamPlusCross) {
    return {};
  }
  if (!finished_) Drain();
  return MergedMotifEstimatesOver(SyncUnion());
}

double ShardedEngine::MergedEdgeCountEstimate() {
  if (!finished_) Drain();
  return EstimateMergedEdgeCount(CollectReservoirs());
}

double ShardedEngine::MergedDegreeEstimate(NodeId v) {
  if (!finished_) Drain();
  return EstimateMergedDegree(CollectReservoirs(), v);
}

MonitorRecord ShardedEngine::MergedRecord() {
  TraceSpan span(options_.trace, producer_trace_buf_, "estimate");
  span.SetArg("edges", static_cast<int64_t>(edges_processed_));
  MonitorRecord record;
  record.edges_processed = edges_processed_;
  if (options_.merge_mode == MergeMode::kPostStreamMerged) {
    record.estimates = MergedEstimates();  // drains
  } else {
    // One drain and one union patch serve both passes.
    if (!finished_) Drain();
    const UnionSample& sample = SyncUnion();
    record.estimates = MergedGraphEstimatesOver(sample);
    record.motifs = MergedMotifEstimatesOver(sample);
  }
#if defined(__GLIBC__)
  // The union and its pass buffers outlive each tick, so glibc can no
  // longer hand the freed pages of a tick's transient allocations back
  // by trimming the heap top. Without this call a 4-shard soc-orkut-sim
  // monitor run (capacity 100000, a tick every 20000 edges) peaked at
  // 47.4-48.0 MB resident instead of 38.5-38.9.
  malloc_trim(0);
#endif
  return record;
}

Status ShardedEngine::SerializeShards(const std::string& dir) {
  if (options_.merge_mode != MergeMode::kInStreamPlusCross) {
    return Status::FailedPrecondition(
        "sharded checkpoints require in-stream shard estimators");
  }
  ShardManifest manifest;
  manifest.num_shards = num_shards();
  manifest.base_seed = options_.sampler.seed;
  manifest.total_capacity = options_.sampler.capacity;
  manifest.stream_offset = edges_processed_;
  manifest.weight = options_.sampler.weight;
  manifest.motif_names = options_.motifs;
  // Reject un-serializable layouts (capacity out of range, custom weight)
  // BEFORE overwriting anything: a failed re-checkpoint must not destroy
  // a previous valid checkpoint in the same directory.
  if (Status st = ValidateManifest(manifest); !st.ok()) return st;

  TraceSpan span(options_.trace, producer_trace_buf_, "checkpoint");
  span.SetArg("edges", static_cast<int64_t>(edges_processed_));

  if (!finished_) Drain();

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint directory " + dir +
                           ": " + ec.message());
  }

  // Every file is staged beside its target and fsynced before any is
  // renamed (util/staged_file.h): a write failure (disk full, I/O error)
  // mid-checkpoint leaves the previous checkpoint in `dir` intact — a
  // monitor's periodic checkpoints rewrite the same directory, so a
  // destroyed checkpoint means a destroyed resume point. An unpublished
  // StagedFile removes its temp file, so every early return cleans up.
  //
  // The drained shards are read-only, as in the merge passes, so the K
  // shard files are written on the merge threads: each streams its shard
  // into its temp file and chains the digest over the same chunks. Which
  // thread writes which shard never changes a byte.
  const uint32_t k = num_shards();
  std::vector<std::optional<StagedFile>> staged(k);
  std::vector<uint64_t> digests(k, kFnv1a64Offset);
  std::vector<Status> written(k);
  ForEachChunk(k, MergeThreads(), [&](size_t s, unsigned) {
    Result<StagedFile> file = StagedFile::Create(
        (std::filesystem::path(dir) / ShardFileName(static_cast<uint32_t>(s)))
            .string());
    if (!file.ok()) {
      written[s] = file.status();
      return;
    }
    Status st = SerializeInStreamEstimator(
        shards_[s]->in_stream_estimator(), shards_[s]->motif_suite(),
        [&](std::string_view chunk) {
          digests[s] = Fnv1a64(chunk.data(), chunk.size(), digests[s]);
          return file->Write(chunk);
        });
    if (st.ok()) st = file->Sync();
    if (st.ok()) staged[s].emplace(std::move(*file));
    written[s] = std::move(st);
  });
  for (const Status& st : written) {
    if (!st.ok()) return st;
  }

  for (uint32_t s = 0; s < k; ++s) {
    manifest.entries.push_back({s, digests[s]});
  }
  Result<StagedFile> manifest_file = StagedFile::Create(
      (std::filesystem::path(dir) / kShardManifestFilename).string());
  if (!manifest_file.ok()) return manifest_file.status();
  if (Status st = SerializeManifest(manifest,
                                    [&](std::string_view chunk) {
                                      return manifest_file->Write(chunk);
                                    });
      !st.ok()) {
    return st;
  }
  if (Status st = manifest_file->Sync(); !st.ok()) return st;

  // Everything is durable under its temp name; publish. Shard files
  // first, manifest last, so an interrupted publish leaves at worst a mix
  // of generations the per-file digests detect — resume refuses it.
  for (std::optional<StagedFile>& file : staged) {
    if (Status st = file->Publish(); !st.ok()) return st;
  }
  if (Status st = manifest_file->Publish(); !st.ok()) return st;
  return SyncDirectory(dir);
}

ShardedEngine::ShardedEngine(
    ShardedEngineOptions options,
    std::vector<std::unique_ptr<InStreamEstimator>> restored,
    std::vector<std::vector<MotifAccumulator>> restored_motifs,
    uint64_t stream_offset)
    : options_(std::move(options)), edges_processed_(stream_offset) {
  assert(options_.num_shards == restored.size());
  assert(options_.num_shards == restored_motifs.size());
  assert(options_.batch_size >= 1);
  const uint32_t k = options_.num_shards;

  shards_.reserve(k);
  pending_.resize(k);
  for (uint32_t s = 0; s < k; ++s) {
    shards_.push_back(std::make_unique<ShardWorker>(
        MakeShardOptions(options_, s, ShardEstimatorKind::kInStream),
        std::move(restored[s]), restored_motifs[s]));
    pending_[s].reserve(options_.batch_size);
  }
  AttachTraceBuffers();
  StartWorkers();
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::ResumeFromCheckpoints(
    std::span<const std::string> manifest_paths) {
  Result<LoadedCheckpoints> loaded = LoadCheckpoints(manifest_paths);
  if (!loaded.ok()) return loaded.status();

  ShardedEngineOptions options;
  options.sampler.capacity = loaded->layout.total_capacity;
  options.sampler.seed = loaded->layout.base_seed;
  options.sampler.weight = loaded->layout.weight;
  options.num_shards = loaded->layout.num_shards;
  options.merge_mode = MergeMode::kInStreamPlusCross;
  options.motifs = loaded->layout.motif_names;
  return std::unique_ptr<ShardedEngine>(
      new ShardedEngine(std::move(options), std::move(loaded->estimators),
                        std::move(loaded->motif_accumulators),
                        loaded->layout.stream_offset));
}

}  // namespace gps
