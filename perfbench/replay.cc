// gps_replay: the traced half of the end-to-end benchmark (perfbench/run.py).
//
// Replays, in process, the public-call sequence `gps_cli estimate` and
// `gps_cli monitor` make for one benchmark workload, and records a span
// around every call into the graph, core and engine layers. Its stdout is
// byte-identical to gps_cli's for the same flags; run.py compares the two,
// so a replay that drifts from the CLI's code path fails the traced run.
//
//   gps_replay estimate --input F --capacity N --shards K --seed S
//              --spans-out OUT.json
//   gps_replay monitor  --input F --capacity N --shards K --seed S
//              --every N --checkpoint-every M --checkpoint DIR
//              --spans-out OUT.json
//   gps_replay baselines --input F --capacity N --seed S
//
// OUT.json holds every span (name, parent index, start/end seconds since
// the replay began) and the counters the layers expose after the run.
// `baselines` prints one JSON object: TRIEST-IMPR at equal capacity over
// the same permuted stream, and the exact oracle's time and counts.
//
// Differences from the CLI, by design: the monitor ticks are driven by an
// explicit loop (feed to the next tick, Drain, merge) instead of the
// engine's EstimateEvery/CheckpointEvery hooks, so the union build and
// cross pass of each tick can be timed from outside; and no per-tick
// metrics snapshot is taken. Both keep the sample path, so the printed
// rows stay byte-identical.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baselines/triest.h"
#include "core/in_stream.h"
#include "core/local_counts.h"
#include "core/post_stream.h"
#include "engine/merge.h"
#include "engine/sharded_engine.h"
#include "graph/binary_stream.h"
#include "graph/csr_graph.h"
#include "graph/edge_list.h"
#include "graph/exact.h"
#include "graph/stream.h"
#include "util/table.h"

namespace {

using namespace gps;  // NOLINT
using Clock = std::chrono::steady_clock;

// ---- Spans ------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  int parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// In-memory span log; spans nest by scope (the innermost open span is the
/// parent of the next one). Written out once, after the replay.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  int Open(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, parent, Now(), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void Close(int id) {
    spans_[id].end_s = Now();
    open_.pop_back();
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

SpanLog* g_spans = nullptr;

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name) : id_(g_spans->Open(name)) {}
  ~Span() { g_spans->Close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

// ---- Flags ------------------------------------------------------------------

struct Flags {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key) const {
    auto it = values.find(key);
    return it == values.end() ? "" : it->second;
  }
  uint64_t GetU64(const std::string& key, uint64_t fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::strtoull(it->second.c_str(),
                                                         nullptr, 10);
  }
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "error: bad argument '%s'\n", key.c_str());
      return false;
    }
    flags->values[key.substr(2)] = argv[i + 1];
  }
  return true;
}

// ---- Output, formatted exactly as tools/gps_cli.cc prints it -----------------

constexpr const char* kMergedInStreamLabel =
    "merged in-stream estimates (per-shard Algorithm 3 "
    "+ cross-shard correction)";
constexpr const char* kMergedPostStreamLabel =
    "merged post-stream estimates (union sample)";
constexpr const char* kMonitorCsvHeader =
    "edges,triangles,triangles_lo,triangles_hi,triangles_ci_width,"
    "wedges,wedges_lo,wedges_hi,wedges_ci_width,"
    "clustering,clustering_lo,clustering_hi";

void PrintEstimateBlock(const char* label, const GraphEstimates& graph,
                        double edge_count) {
  std::printf("%s:\n", label);
  TextTable t({"statistic", "estimate", "95% CI"});
  const auto add = [&t](const std::string& name, const Estimate& est,
                        int decimals) {
    t.AddRow({name, FormatDouble(est.value, decimals),
              "[" + FormatDouble(est.Lower(), decimals) + ", " +
                  FormatDouble(est.Upper(), decimals) + "]"});
  };
  add("triangles", graph.triangles, 0);
  add("wedges", graph.wedges, 0);
  add("clustering", graph.ClusteringCoefficient(), 4);
  if (edge_count >= 0.0) {
    t.AddRow({"edges", FormatDouble(edge_count, 0), "-"});
  }
  std::printf("%s", t.ToString().c_str());
}

void PrintMonitorCsvRow(uint64_t edges, const GraphEstimates& estimates) {
  const Estimate& tri = estimates.triangles;
  const Estimate& wed = estimates.wedges;
  const Estimate cc = estimates.ClusteringCoefficient();
  std::printf("%llu,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,"
              "%.17g,%.17g,%.17g\n",
              static_cast<unsigned long long>(edges), tri.value, tri.Lower(),
              tri.Upper(), tri.Upper() - tri.Lower(), wed.value, wed.Lower(),
              wed.Upper(), wed.Upper() - wed.Lower(), cc.value, cc.Lower(),
              cc.Upper());
}

// ---- The replayed layers ----------------------------------------------------

/// gps_cli's LoadStream: the edge list in file order (text or GPS-STREAM),
/// then the seeded permutation (which also simplifies).
bool LoadPermutedStream(const std::string& path, uint64_t seed,
                        EdgeList* list, std::vector<Edge>* stream) {
  {
    Span span("graph.load");
    if (LooksLikeBinaryStream(path)) {
      auto reader = BinaryStreamReader::Open(path);
      if (!reader.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     reader.status().ToString().c_str());
        return false;
      }
      list->Reserve(reader->edge_count());
      for (size_t b = 0; b < reader->num_blocks(); ++b) {
        auto block = reader->Block(b);
        if (!block.ok()) {
          std::fprintf(stderr, "error: %s\n",
                       block.status().ToString().c_str());
          return false;
        }
        for (const Edge& e : *block) list->Add(e);
      }
    } else {
      auto loaded = EdgeList::Load(path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     loaded.status().ToString().c_str());
        return false;
      }
      *list = std::move(*loaded);
    }
  }
  Span span("graph.permute");
  *stream = MakePermutedStream(*list, seed);
  return true;
}

GpsSamplerOptions SamplerOptions(const Flags& flags) {
  GpsSamplerOptions options;
  options.capacity = flags.GetU64("capacity", 0);
  options.seed = flags.GetU64("seed", 1);
  options.weight.kind = WeightKind::kTriangle;  // gps_cli's default weight
  return options;
}

ShardedEngineOptions EngineOptions(const Flags& flags) {
  ShardedEngineOptions options;
  options.sampler = SamplerOptions(flags);
  options.num_shards = static_cast<uint32_t>(flags.GetU64("shards", 1));
  options.batch_size = 1024;  // gps_cli's default --batch
  return options;
}

/// Counters read after the run, keyed by the per-layer metric name.
using Counters = std::map<std::string, double>;

/// Reservoir, store and intersection counters summed over the shards.
void ReadReservoirCounters(std::span<const GpsReservoir* const> reservoirs,
                           size_t arrivals, Counters* out) {
  double admissions = 0, rejects = 0, evictions = 0;
  double merge = 0, gallop = 0, simd = 0, saved = 0, probe_p99 = 0;
  std::vector<size_t> probes;
  for (const GpsReservoir* res : reservoirs) {
    admissions += static_cast<double>(res->metrics().admissions.Value());
    rejects += static_cast<double>(res->metrics().precheck_rejects.Value());
    evictions += static_cast<double>(res->metrics().evictions.Value());
    const IntersectMetrics* im = res->graph().intersect_metrics();
    merge += static_cast<double>(im->merge_calls.Value());
    gallop += static_cast<double>(im->gallop_calls.Value());
    simd += static_cast<double>(im->simd_calls.Value());
    saved += static_cast<double>(im->comparisons_saved.Value());
    // The engine's store.probe_len_p99 rule: rank 99% of the node table,
    // maximum over shards.
    probes.clear();
    res->graph().ForEachNodeProbeLength(
        [&](size_t len) { probes.push_back(len); });
    if (!probes.empty()) {
      const size_t rank = (probes.size() * 99) / 100;
      std::nth_element(probes.begin(), probes.begin() + rank, probes.end());
      probe_p99 = std::max(probe_p99, static_cast<double>(probes[rank]));
    }
  }
  const double calls = merge + gallop + simd;
  const double n = static_cast<double>(std::max<size_t>(arrivals, 1));
  (*out)["graph.intersect.calls"] = calls;
  (*out)["graph.intersect.gallop_share"] = calls > 0 ? gallop / calls : 0.0;
  (*out)["graph.intersect.simd_share"] = calls > 0 ? simd / calls : 0.0;
  (*out)["graph.intersect.comparisons_saved"] = saved;
  (*out)["core.reservoir.admit_ratio"] = admissions / n;
  (*out)["core.reservoir.precheck_reject_ratio"] = rejects / n;
  (*out)["core.reservoir.evictions"] = evictions;
  (*out)["core.store.probe_len_p99"] = probe_p99;
}

void ReadEngineCounters(const ShardedEngine& engine, Counters* out) {
  double busy = 0, idle = 0, push_fail = 0, batches = 0;
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    const ShardWorker& shard = engine.shard(s);
    busy += shard.busy_seconds();
    idle += shard.idle_seconds();
    push_fail += static_cast<double>(shard.ring_metrics().push_fail.Value());
    batches += static_cast<double>(
        shard.worker_metrics().batches_processed.Value());
  }
  (*out)["engine.worker_busy_max_s"] = engine.MaxWorkerBusySeconds();
  (*out)["engine.worker_idle_share"] =
      busy + idle > 0 ? idle / (busy + idle) : 0.0;
  (*out)["engine.ring.push_fail_per_batch"] =
      batches > 0 ? push_fail / batches : 0.0;
  (*out)["engine.route_s"] = engine.ProducerRouteSeconds();
}

std::vector<const GpsReservoir*> Reservoirs(const ShardedEngine& engine) {
  std::vector<const GpsReservoir*> reservoirs;
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    reservoirs.push_back(&engine.shard(s).reservoir());
  }
  return reservoirs;
}

/// ShardedEngine::MergedEstimates (in-stream + cross mode) split into its
/// public steps so each is timed: union build, per-shard sum, cross pass.
/// Requires the drained (or finished) guarantee.
GraphEstimates MergeShards(const ShardedEngine& engine, Counters* counters) {
  std::vector<ShardSampleRef> refs;
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    refs.push_back({&engine.shard(s).reservoir(), engine.shard(s).slot_strata()});
  }
  std::optional<UnionSample> sample;
  {
    Span span("engine.merge.union_build");
    sample.emplace(BuildUnionSample(std::span<const ShardSampleRef>(refs)));
  }
  GraphEstimates within;
  {
    Span span("engine.merge.shard_sum");
    std::vector<GraphEstimates> per_shard;
    for (uint32_t s = 0; s < engine.num_shards(); ++s) {
      per_shard.push_back(engine.shard(s).InStreamEstimates());
    }
    within = SumShardEstimates(per_shard);
  }
  GraphEstimates cross;
  {
    Span span("engine.merge.cross_pass");
    cross = EstimateCrossShard(*sample);
  }
  const GraphEstimates merged = AddEstimates(within, cross);
  (*counters)["engine.merge.union_sample_size"] =
      static_cast<double>(sample->num_edges());
  (*counters)["engine.merge.cross_var_share"] =
      merged.triangles.variance > 0
          ? cross.triangles.variance / merged.triangles.variance
          : 0.0;
  return merged;
}

void PrintShardedBanner(size_t stream_size, const ShardedEngineOptions& o) {
  std::printf("stream: %zu edges, reservoir: %zu edges, %u shards "
              "(batch %zu)\n",
              stream_size, o.sampler.capacity, o.num_shards, o.batch_size);
}

/// `gps_cli estimate` (estimator both, no checkpoint): the serial path for
/// one shard, the engine path otherwise.
int ReplayEstimate(const Flags& flags, Counters* counters) {
  EdgeList list;
  std::vector<Edge> stream;
  if (!LoadPermutedStream(flags.Get("input"), flags.GetU64("seed", 1), &list,
                          &stream)) {
    return 1;
  }
  const ShardedEngineOptions options = EngineOptions(flags);
  if (options.num_shards <= 1) {
    std::printf("stream: %zu edges, reservoir: %zu edges\n", stream.size(),
                options.sampler.capacity);
    std::optional<InStreamEstimator> in_stream;
    {
      Span span("core.setup");
      in_stream.emplace(options.sampler);
    }
    {
      Span span("core.ingest");
      for (const Edge& e : stream) in_stream->Process(e);
    }
    GraphEstimates estimates;
    double edge_count = 0.0;
    {
      Span span("core.estimates");
      estimates = in_stream->Estimates();
      edge_count = EstimateEdgeCount(in_stream->reservoir());
    }
    PrintEstimateBlock("in-stream estimates (Algorithm 3)", estimates,
                       edge_count);
    {
      Span span("core.post_stream");
      estimates = EstimatePostStreamParallel(in_stream->reservoir(), 1);
    }
    PrintEstimateBlock("post-stream estimates (Algorithm 2)", estimates,
                       -1.0);
    const GpsReservoir* reservoir = &in_stream->reservoir();
    ReadReservoirCounters(std::span<const GpsReservoir* const>(&reservoir, 1),
                          stream.size(), counters);
    return 0;
  }

  PrintShardedBanner(stream.size(), options);
  std::optional<ShardedEngine> engine;
  {
    Span span("engine.setup");
    engine.emplace(options);
  }
  {
    Span span("engine.ingest");
    engine->ProcessEdges(std::span<const Edge>(stream));
  }
  {
    Span span("engine.drain");
    engine->Finish();
  }
  const GraphEstimates merged = MergeShards(*engine, counters);
  double edge_count = 0.0;
  {
    Span span("engine.merge.edge_count");
    edge_count = engine->MergedEdgeCountEstimate();
  }
  PrintEstimateBlock(kMergedInStreamLabel, merged, edge_count);
  const std::vector<const GpsReservoir*> reservoirs = Reservoirs(*engine);
  GraphEstimates post;
  {
    Span span("engine.merge.post_stream");
    post = EstimateMergedPostStream(reservoirs);
  }
  PrintEstimateBlock(kMergedPostStreamLabel, post, -1.0);
  ReadReservoirCounters(reservoirs, stream.size(), counters);
  ReadEngineCounters(*engine, counters);
  return 0;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

/// `gps_cli monitor --output csv` with periodic checkpoints.
int ReplayMonitor(const Flags& flags, Counters* counters) {
  EdgeList list;
  std::vector<Edge> stream;
  if (!LoadPermutedStream(flags.Get("input"), flags.GetU64("seed", 1), &list,
                          &stream)) {
    return 1;
  }
  const uint64_t every = flags.GetU64("every", 0);
  const uint64_t checkpoint_every = flags.GetU64("checkpoint-every", 0);
  const std::string checkpoint_dir = flags.Get("checkpoint");
  if (every == 0 || (checkpoint_every != 0 && checkpoint_dir.empty())) {
    std::fprintf(stderr, "error: monitor needs --every, and --checkpoint "
                         "with --checkpoint-every\n");
    return 1;
  }
  std::optional<ShardedEngine> engine;
  {
    Span span("engine.setup");
    engine.emplace(EngineOptions(flags));
  }
  std::printf("%s\n", kMonitorCsvHeader);

  const auto checkpoint = [&]() {
    Span span("core.serialize.checkpoint");
    const Status s = engine->SerializeShards(checkpoint_dir);
    if (!s.ok()) {
      std::fprintf(stderr, "checkpoint error: %s\n", s.ToString().c_str());
    }
    return s.ok();
  };
  bool emitted_any = false;
  uint64_t last_emitted = 0;
  uint64_t pos = 0;
  while (pos < stream.size()) {
    uint64_t next = std::min<uint64_t>(stream.size(), (pos / every + 1) * every);
    if (checkpoint_every != 0) {
      next = std::min(next, (pos / checkpoint_every + 1) * checkpoint_every);
    }
    {
      Span span("engine.ingest");
      engine->ProcessEdges(
          std::span<const Edge>(stream).subspan(pos, next - pos));
    }
    pos = next;
    if (pos % every == 0) {
      GraphEstimates estimates;
      {
        Span tick("engine.merge.tick");
        {
          Span span("engine.drain");
          engine->Drain();
        }
        estimates = MergeShards(*engine, counters);
      }
      PrintMonitorCsvRow(pos, estimates);
      emitted_any = true;
      last_emitted = pos;
    }
    if (checkpoint_every != 0 && pos % checkpoint_every == 0 &&
        !checkpoint()) {
      return 1;
    }
  }
  {
    Span span("engine.drain");
    engine->Finish();
  }
  if (!emitted_any || last_emitted != engine->edges_processed()) {
    PrintMonitorCsvRow(engine->edges_processed(),
                       MergeShards(*engine, counters));
  }
  if (checkpoint_every != 0 &&
      (engine->edges_processed() == 0 ||
       engine->edges_processed() % checkpoint_every != 0) &&
      !checkpoint()) {
    return 1;
  }
  if (checkpoint_every != 0) {
    (*counters)["core.serialize.checkpoint_bytes"] =
        static_cast<double>(DirectoryBytes(checkpoint_dir));
  }
  ReadReservoirCounters(Reservoirs(*engine), stream.size(), counters);
  ReadEngineCounters(*engine, counters);
  return 0;
}

/// Reference points at equal memory: TRIEST-IMPR over the same permuted
/// stream, and the exact oracle.
int RunBaselines(const Flags& flags) {
  EdgeList list;
  std::vector<Edge> stream;
  const uint64_t seed = flags.GetU64("seed", 1);
  if (!LoadPermutedStream(flags.Get("input"), seed, &list, &stream)) return 1;

  const Clock::time_point triest_start = Clock::now();
  Triest triest(flags.GetU64("capacity", 0), seed, TriestVariant::kImproved);
  for (const Edge& e : stream) triest.Process(e);
  const double triest_s =
      std::chrono::duration<double>(Clock::now() - triest_start).count();

  const Clock::time_point exact_start = Clock::now();
  const ExactCounts exact = CountExact(CsrGraph::FromEdgeList(list));
  const double exact_s =
      std::chrono::duration<double>(Clock::now() - exact_start).count();

  const double estimate = triest.TriangleEstimate();
  std::printf("{\"baselines.triest.edges_per_s\": %.17g, "
              "\"baselines.triest.rel_err\": %.17g, "
              "\"graph.exact_s\": %.17g, \"exact_triangles\": %.17g}\n",
              static_cast<double>(stream.size()) / triest_s,
              exact.triangles > 0
                  ? std::fabs(estimate - exact.triangles) / exact.triangles
                  : 0.0,
              exact_s, exact.triangles);
  return 0;
}

bool WriteSpans(const std::string& path, const SpanLog& log,
                const Counters& counters) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out, "{\"spans\": [");
  const std::vector<SpanRecord>& spans = log.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(out,
                 "%s\n  {\"name\": \"%s\", \"parent\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f}",
                 i == 0 ? "" : ",", spans[i].name.c_str(), spans[i].parent,
                 spans[i].start_s, spans[i].end_s);
  }
  std::fprintf(out, "],\n\"counters\": {");
  bool first = true;
  for (const auto& [name, value] : counters) {
    std::fprintf(out, "%s\n  \"%s\": %.17g", first ? "" : ",", name.c_str(),
                 value);
    first = false;
  }
  std::fprintf(out, "}}\n");
  return std::fclose(out) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (argc < 2 || !ParseFlags(argc, argv, &flags) ||
      flags.Get("input").empty() || flags.GetU64("capacity", 0) == 0) {
    std::fprintf(stderr,
                 "usage: gps_replay estimate|monitor|baselines --input F "
                 "--capacity N [--shards K] [--seed S] [--every N "
                 "--checkpoint-every M --checkpoint DIR] "
                 "[--spans-out OUT.json]\n");
    return 2;
  }
  const std::string mode = argv[1];
  SpanLog log;
  g_spans = &log;
  if (mode == "baselines") return RunBaselines(flags);
  if (mode != "estimate" && mode != "monitor") {
    std::fprintf(stderr, "error: unknown mode '%s'\n", mode.c_str());
    return 2;
  }
  Counters counters;
  int rc = 0;
  {
    Span root("replay");
    rc = mode == "estimate" ? ReplayEstimate(flags, &counters)
                            : ReplayMonitor(flags, &counters);
    std::fflush(stdout);
  }
  if (rc != 0) return rc;
  const std::string spans_out = flags.Get("spans-out");
  if (!spans_out.empty() && !WriteSpans(spans_out, log, counters)) return 1;
  return 0;
}
