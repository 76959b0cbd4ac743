#include "engine/sharded_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
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

std::string ShardFileName(uint32_t shard, uint64_t digest) {
  char name[48];
  std::snprintf(name, sizeof(name), "shard-%04u-%016llx.gps", shard,
                static_cast<unsigned long long>(digest));
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

/// Whether `name` is a shard file's: "shard-NNNN-<16 hex>.gps", or
/// "shard-NNNN.gps" as the previous format named them.
bool IsShardFileName(std::string_view name) {
  if (!name.starts_with("shard-") || !name.ends_with(".gps")) return false;
  const std::string_view stem = name.substr(6, name.size() - 10);
  const auto only = [](std::string_view text, std::string_view chars) {
    return text.find_first_not_of(chars) == std::string_view::npos;
  };
  return (stem.size() == 4 ||
          (stem.size() == 21 && stem[4] == '-' &&
           only(stem.substr(5), "0123456789abcdef"))) &&
         only(stem.substr(0, 4), "0123456789");
}

/// Removes every shard file in `dir` that the manifest with `digests`
/// does not name: a previous checkpoint's, or one a failed or killed
/// checkpoint published. Nothing else in `dir` is touched.
Status RemoveStaleShardFiles(const std::filesystem::path& dir,
                             const std::vector<uint64_t>& digests) {
  std::set<std::string> named;
  for (uint32_t s = 0; s < digests.size(); ++s) {
    named.insert(ShardFileName(s, digests[s]));
  }
  std::error_code ec;
  std::vector<std::filesystem::path> stale;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    std::error_code not_regular;
    if (IsShardFileName(name) && !named.contains(name) &&
        it->is_regular_file(not_regular)) {
      stale.push_back(it->path());
    }
  }
  if (ec) {
    return Status::IoError("cannot list checkpoint directory " +
                           dir.string() + ": " + ec.message());
  }
  for (const std::filesystem::path& path : stale) {
    if (!std::filesystem::remove(path, ec) && ec) {
      return Status::IoError("cannot remove stale shard file " +
                             path.string() + ": " + ec.message());
    }
  }
  return Status::Ok();
}

/// A fully validated checkpoint: its layout (with the stream position
/// the run was interrupted at) and the restored per-shard estimators in
/// shard order. ResumeFromCheckpoints builds its engine on it.
struct LoadedCheckpoints {
  ShardManifest layout;  // digests cleared; motif_names retained
  std::vector<std::unique_ptr<InStreamEstimator>> estimators;
  /// Restored motif accumulators, one vector per shard in shard order;
  /// every inner vector matches layout.motif_names (possibly empty).
  std::vector<std::vector<MotifAccumulator>> motif_accumulators;
};

Result<LoadedCheckpoints> LoadCheckpoints(const std::string& manifest_path) {
  // Every checkpoint is a directory, so passing the directory itself is
  // the likely slip: name the file inside it.
  if (std::filesystem::is_directory(manifest_path)) {
    return Status::InvalidArgument(
        "manifest " + manifest_path + " is a checkpoint directory; pass " +
        (std::filesystem::path(manifest_path) / kShardManifestFilename)
            .string());
  }
  Result<std::string> manifest_bytes =
      ReadFileBytes(manifest_path, "manifest");
  if (!manifest_bytes.ok()) return manifest_bytes.status();
  std::istringstream manifest_in(*manifest_bytes);
  Result<ShardManifest> manifest = DeserializeManifest(manifest_in);
  if (!manifest.ok()) {
    return manifest.status().WithContext("manifest " + manifest_path);
  }
  const ShardManifest& base = *manifest;
  const std::filesystem::path dir =
      std::filesystem::path(manifest_path).parent_path();

  const uint32_t k = base.num_shards;
  const size_t per_shard_capacity = PerShardCapacity(base.total_capacity, k);
  LoadedCheckpoints loaded;
  loaded.estimators.reserve(k);
  uint64_t arrival_sum = 0;
  // Shard order matters: summation in the merge must match the live
  // engine's 0..K-1 iteration for bit-identical merged estimates.
  for (uint32_t s = 0; s < k; ++s) {
    const std::filesystem::path file =
        dir / ShardFileName(s, base.digests[s]);
    Result<std::string> bytes = ReadFileBytes(file.string(), "shard file");
    if (!bytes.ok()) return bytes.status();
    if (ChecksumBytes(*bytes) != base.digests[s]) {
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
          "shard arrival counts overflow across the checkpoint");
    }
    arrival_sum += est.edges_processed();
    loaded.estimators.push_back(
        std::make_unique<InStreamEstimator>(std::move(shard->estimator)));
    loaded.motif_accumulators.push_back(
        std::move(shard->motif_accumulators));
  }

  // The shards account for every routed edge: each one is consumed by
  // exactly one shard.
  if (base.stream_offset != arrival_sum) {
    return Status::FailedPrecondition(
        "manifest stream offset " + std::to_string(base.stream_offset) +
        " disagrees with the shards' arrival counts (" +
        std::to_string(arrival_sum) + ")");
  }
  loaded.layout = std::move(*manifest);
  loaded.layout.digests.clear();  // superseded by the restored estimators
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
  const uint32_t k = num_shards();
  ShardManifest manifest;
  manifest.num_shards = k;
  manifest.base_seed = options_.sampler.seed;
  manifest.total_capacity = options_.sampler.capacity;
  manifest.stream_offset = edges_processed_;
  manifest.weight = options_.sampler.weight;
  manifest.motif_names = options_.motifs;
  // Each digest is chained over its shard file's chunks as they are
  // written.
  manifest.digests.assign(k, kFnv1a64Offset);
  // Reject un-serializable layouts (capacity out of range, custom weight)
  // BEFORE writing anything.
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
  // renamed (util/staged_file.h), and no file the previous manifest names
  // is replaced or removed before the new manifest is durable: a write
  // failure (disk full, I/O error) or a kill at any point leaves the
  // previous checkpoint in `dir` readable — a monitor's periodic
  // checkpoints rewrite the same directory, so a destroyed checkpoint
  // means a destroyed resume point. An unpublished StagedFile removes its
  // temp file, so every early return cleans up.
  //
  // The drained shards are read-only, as in the merge passes, so the K
  // shard files are written on the merge threads: each streams its shard
  // into its temp file (shard-NNNN.gps.tmp) and chains the digest over
  // the same chunks. Which thread writes which shard never changes a
  // byte.
  const std::filesystem::path root(dir);
  std::vector<std::optional<StagedFile>> staged(k);
  std::vector<Status> written(k);
  ForEachChunk(k, MergeThreads(), [&](size_t s, unsigned) {
    char staging_name[32];
    std::snprintf(staging_name, sizeof(staging_name), "shard-%04zu.gps", s);
    Result<StagedFile> file = StagedFile::Create((root / staging_name).string());
    if (!file.ok()) {
      written[s] = file.status();
      return;
    }
    uint64_t& digest = manifest.digests[s];
    Status st = SerializeInStreamEstimator(
        shards_[s]->in_stream_estimator(), shards_[s]->motif_suite(),
        [&](std::string_view chunk) {
          digest = Fnv1a64(chunk.data(), chunk.size(), digest);
          return file->Write(chunk);
        });
    if (st.ok()) st = file->Sync();
    if (st.ok()) staged[s].emplace(std::move(*file));
    written[s] = std::move(st);
  });
  for (const Status& st : written) {
    if (!st.ok()) return st;
  }

  Result<StagedFile> manifest_file =
      StagedFile::Create((root / kShardManifestFilename).string());
  if (!manifest_file.ok()) return manifest_file.status();
  if (Status st = SerializeManifest(manifest,
                                    [&](std::string_view chunk) {
                                      return manifest_file->Write(chunk);
                                    });
      !st.ok()) {
    return st;
  }
  if (Status st = manifest_file->Sync(); !st.ok()) return st;

  // Everything is durable under its temp name; publish. The shard files
  // go under their digest names, which the previous manifest's files
  // never share unless they hold the same bytes; then the manifest, each
  // step made durable before the next.
  for (uint32_t s = 0; s < k; ++s) {
    if (Status st = staged[s]->PublishAs(
            (root / ShardFileName(s, manifest.digests[s])).string());
        !st.ok()) {
      return st;
    }
  }
  if (Status st = SyncDirectory(dir); !st.ok()) return st;
  if (Status st = manifest_file->Publish(); !st.ok()) return st;
  if (Status st = SyncDirectory(dir); !st.ok()) return st;
  return RemoveStaleShardFiles(root, manifest.digests);
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
    const std::string& manifest_path) {
  Result<LoadedCheckpoints> loaded = LoadCheckpoints(manifest_path);
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
