// Sharded-engine ingestion throughput: edges/sec vs. shard count on a
// Barabási–Albert stream, against the serial InStreamEstimator baseline.
//
//   build/bench_engine [--edges N] [--capacity M | --mem BYTES]
//                      [--no-exact] [--json FILE] [--baseline FILE]
//                      [--alloc-report FILE]
//
// Defaults reproduce the PR acceptance setup: a ~1M-edge BA stream
// (62.5K nodes × 16 edges/node, triad probability 0.5 for realistic
// clustering) with a 250K-edge total reservoir budget; the engine splits
// the budget across shards (ceil(M/K) each), so every row uses the same
// total memory. Timing covers ingestion + Finish() (workers joined);
// the merge column reports MergedEstimates() separately.
//
// Two effects stack on the uniform partition:
//   * partitioning: each shard's sampled adjacency holds ~1/K of any
//     node's sampled neighbors, so the per-edge neighborhood scans of
//     GPSESTIMATE and the weight function shrink by ~K even on one core;
//   * parallelism: shard workers run on their own threads.
//
// A fixed-envelope row re-runs the K=4 ingest under an explicit byte
// budget (--mem when given, otherwise the bytes the configured capacity
// needs) and reports the store-health gauges — load factor, probe-length
// p99 — plus whole-process peak RSS next to the budget, so memory
// regressions show up in the same artifact as throughput ones.
// --alloc-report FILE archives the store's allocation report (the same
// text `gps_cli --mem` prints at startup) next to the JSON.
//
// An ingest-only row times the stream's two on-disk decoders against
// each other over a warm page cache: the strict bulk text parser
// (EdgeList::Load) vs. the GPS-STREAM v1 block reader
// (graph/binary_stream.h), both reading through util/input_file.h.
// Binary must win by >= 3x — hard-gated here and relative-gated against
// the baseline.
//
// --json FILE emits every row plus the gated relative metrics
// (speedup_k4, fixed_envelope_ingest_speedup,
// binary_over_text_ingest_speedup, intersect_speedup) as machine-readable
// JSON — BENCH_engine.json in CI, archived per run so the perf trajectory
// is diffable. --baseline FILE compares those relative metrics against a
// checked-in reference (bench/BENCH_engine.baseline.json) and fails on a
// > 10% regression. Absolute edges/sec is reported but never gated
// cross-machine.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/in_stream.h"
#include "core/packed_store.h"
#include "engine/sharded_engine.h"
#include "gen/generators.h"
#include "graph/binary_stream.h"
#include "graph/csr_graph.h"
#include "graph/exact.h"
#include "graph/intersect.h"
#include "graph/stream.h"
#include "util/metrics.h"
#include "util/parse_bytes.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace gps;  // NOLINT

struct Row {
  std::string config;
  uint32_t shards = 0;  // 0 = serial
  double seconds = 0.0;
  double merge_seconds = 0.0;
  double edges_per_sec = 0.0;
  double speedup = 1.0;
  double critical_path = 0.0;  // busiest worker's executed seconds
  GraphEstimates estimates;
  MetricsSnapshot metrics;  // empty for the serial row
  // Fixed-envelope fields; zero for every other row.
  uint64_t mem_budget_bytes = 0;
  double load_factor = 0.0;
  double probe_len_p99 = 0.0;
  uint64_t peak_rss_bytes = 0;
};

/// Peak resident set size of this process, in bytes (Linux reports
/// ru_maxrss in KiB). High-water mark, so it covers everything the bench
/// allocated up to the call — report it right after the row it describes.
uint64_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

Row RunEngineRow(const std::vector<Edge>& stream, const GpsSamplerOptions& base,
                 uint32_t shards, double serial_seconds) {
  Row row;
  row.shards = shards;
  ShardedEngineOptions options;
  options.sampler = base;
  options.num_shards = shards;
  WallTimer timer;
  ShardedEngine engine(options);
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();
  row.seconds = timer.ElapsedSeconds();
  row.critical_path = engine.MaxWorkerBusySeconds();
  row.metrics = engine.SnapshotMetrics();  // after the timer: observation only
  WallTimer merge_timer;
  row.estimates = engine.MergedEstimates();
  row.merge_seconds = merge_timer.ElapsedSeconds();
  row.edges_per_sec = stream.size() / row.seconds;
  row.speedup = serial_seconds / row.seconds;
  return row;
}

/// Result of the ingest-only (format decode) comparison; see
/// RunIngestOnlyBench below.
struct IngestOnlyResult {
  double text_parse_eps = 0.0;
  double binary_ingest_eps = 0.0;
  double speedup = 0.0;
};

/// Result of the hub-heavy intersection row; see RunIntersectBench below.
struct IntersectBenchResult {
  double merge_eps = 0.0;     // forced scalar merge, pairs/sec
  double adaptive_eps = 0.0;  // adaptive dispatch, pairs/sec
  double speedup = 0.0;       // adaptive over forced merge
};

/// Minimal JSON writer for the bench artifact (flat schema, %.17g
/// numbers); hand-rolled so the bench stays dependency-free.
void WriteJson(const std::string& path, const std::vector<Row>& rows,
               uint64_t edges, size_t capacity, unsigned hw,
               double speedup_k4, uint64_t envelope_bytes,
               double env_speedup, const IngestOnlyResult& ingest,
               const IntersectBenchResult& intersect) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"bench\": \"bench_engine\",\n";
  out << "  \"edges\": " << edges << ",\n";
  out << "  \"capacity\": " << capacity << ",\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"config\": \"" << r.config << "\", \"shards\": "
        << r.shards << ", \"seconds\": "
        << Fmt("%.6g", r.seconds) << ", \"merge_seconds\": "
        << Fmt("%.6g", r.merge_seconds) << ", \"critical_path_seconds\": "
        << Fmt("%.6g", r.critical_path)
        << ", \"max_worker_busy_seconds\": " << Fmt("%.6g", r.critical_path)
        << ", \"edges_per_sec\": "
        << Fmt("%.17g", r.edges_per_sec) << ", \"speedup\": "
        << Fmt("%.17g", r.speedup) << ", \"triangles\": "
        << Fmt("%.17g", r.estimates.triangles.value)
        << ", \"mem_budget_bytes\": " << r.mem_budget_bytes
        << ", \"load_factor\": " << Fmt("%.6g", r.load_factor)
        << ", \"probe_len_p99\": " << Fmt("%.6g", r.probe_len_p99)
        << ", \"peak_rss_bytes\": " << r.peak_rss_bytes << ",\n"
        // The full engine metrics snapshot (src/util/metrics.h); empty
        // sections for the serial row, which has no engine.
        << "     \"metrics\": " << r.metrics.ToJson(2) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  // The gated, machine-independent relative metrics.
  out << "  \"speedup_k4\": " << Fmt("%.17g", speedup_k4) << ",\n";
  out << "  \"mem_budget_bytes\": " << envelope_bytes << ",\n";
  out << "  \"fixed_envelope_ingest_speedup\": " << Fmt("%.17g", env_speedup)
      << ",\n";
  // The ingest-only (format decode) row: absolute edges/sec reported for
  // trend-watching, the RELATIVE binary-over-text ratio gated.
  out << "  \"text_parse_eps\": " << Fmt("%.17g", ingest.text_parse_eps)
      << ",\n";
  out << "  \"binary_ingest_eps\": "
      << Fmt("%.17g", ingest.binary_ingest_eps) << ",\n";
  out << "  \"binary_over_text_ingest_speedup\": "
      << Fmt("%.17g", ingest.speedup) << ",\n";
  // The hub-heavy intersection row: absolute pairs/sec for trend-watching,
  // the RELATIVE adaptive-over-merge ratio gated.
  out << "  \"intersect_merge_pairs_per_sec\": "
      << Fmt("%.17g", intersect.merge_eps) << ",\n";
  out << "  \"intersect_adaptive_pairs_per_sec\": "
      << Fmt("%.17g", intersect.adaptive_eps) << ",\n";
  out << "  \"intersect_speedup\": " << Fmt("%.17g", intersect.speedup)
      << "\n";
  out << "}\n";
  if (!out) {
    std::fprintf(stderr, "cannot write JSON artifact %s\n", path.c_str());
    std::exit(2);
  }
  std::printf("JSON artifact written to %s\n", path.c_str());
}

/// Pulls `"key": <number>` out of a baseline file (the strict flat subset
/// WriteJson emits); returns NaN when absent so missing keys are skipped,
/// keeping old baselines readable by newer benches.
double ReadBaselineKey(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

/// Relative-metric regression gate: fresh must reach 90% of baseline
/// (> 10% regression fails). Returns false on failure.
bool GateAgainstBaseline(const std::string& path, double speedup_k4,
                         double env_speedup, double ingest_speedup,
                         double intersect_speedup) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  bool ok = true;
  const auto gate = [&](const char* key, double fresh) {
    const double base = ReadBaselineKey(text, key);
    if (std::isnan(base)) return;  // key not gated by this baseline
    const double floor = 0.9 * base;
    const bool pass = fresh >= floor;
    std::printf("baseline %-24s %.2f vs %.2f (floor %.2f): %s\n", key,
                fresh, base, floor, pass ? "PASS" : "FAIL");
    ok &= pass;
  };
  gate("speedup_k4", speedup_k4);
  gate("fixed_envelope_ingest_speedup", env_speedup);
  gate("binary_over_text_ingest_speedup", ingest_speedup);
  gate("intersect_speedup", intersect_speedup);
  return ok;
}

/// Front-end (format decode only) throughput: the same stream written as
/// a text edge list and as a GPS-STREAM v1 binary, read back through
/// each format's production path — EdgeList::Load (buffered reads +
/// strict bulk parse) vs. BinaryStreamReader block iteration (one read
/// per block into the reader's buffer + per-block digest; each span can
/// go straight into ShardedEngine::ProcessEdges). Best-of-N over a warm
/// page cache, so the ratio measures decode cost, not disk. Gated: the
/// binary format's reason to exist is outrunning the text parser.
IngestOnlyResult RunIngestOnlyBench(const std::vector<Edge>& stream) {
  namespace fs = std::filesystem;
  const std::string text_path =
      (fs::temp_directory_path() / "bench_engine_ingest.txt").string();
  const std::string binary_path =
      (fs::temp_directory_path() / "bench_engine_ingest.gps").string();
  IngestOnlyResult result;
  {
    EdgeList list;
    list.Reserve(stream.size());
    for (const Edge& e : stream) list.Add(e);
    if (Status s = list.Save(text_path); !s.ok()) {
      std::fprintf(stderr, "ingest bench: %s\n", s.ToString().c_str());
      return result;
    }
  }
  if (Status s = WriteBinaryStream(binary_path, stream); !s.ok()) {
    std::fprintf(stderr, "ingest bench: %s\n", s.ToString().c_str());
    return result;
  }

  constexpr int kTrials = 3;
  uint64_t text_edges = 0;
  uint64_t sink = 0;  // XOR-consumed so the block reads cannot be DCE'd
  for (int t = 0; t < kTrials; ++t) {
    WallTimer timer;
    auto list = EdgeList::Load(text_path);
    const double seconds = timer.ElapsedSeconds();
    if (!list.ok()) {
      std::fprintf(stderr, "ingest bench: %s\n",
                   list.status().ToString().c_str());
      return result;
    }
    text_edges = list->NumEdges();
    sink ^= (*list)[list->NumEdges() / 2].u;
    result.text_parse_eps =
        std::max(result.text_parse_eps, text_edges / seconds);
  }
  uint64_t binary_edges = 0;
  for (int t = 0; t < kTrials; ++t) {
    WallTimer timer;
    auto reader = BinaryStreamReader::Open(binary_path);
    if (!reader.ok()) {
      std::fprintf(stderr, "ingest bench: %s\n",
                   reader.status().ToString().c_str());
      return result;
    }
    uint64_t n = 0;
    for (size_t b = 0; b < reader->num_blocks(); ++b) {
      auto block = reader->Block(b);
      if (!block.ok()) {
        std::fprintf(stderr, "ingest bench: %s\n",
                     block.status().ToString().c_str());
        return result;
      }
      for (const Edge& e : *block) sink ^= e.u + e.v;
      n += block->size();
    }
    const double seconds = timer.ElapsedSeconds();
    binary_edges = n;
    result.binary_ingest_eps =
        std::max(result.binary_ingest_eps, binary_edges / seconds);
  }
  fs::remove(text_path);
  fs::remove(binary_path);
  if (text_edges != binary_edges || text_edges != stream.size()) {
    std::fprintf(stderr,
                 "ingest bench: edge-count mismatch (text %" PRIu64
                 ", binary %" PRIu64 ", stream %zu)\n",
                 text_edges, binary_edges, stream.size());
    return IngestOnlyResult{};
  }
  if (result.text_parse_eps > 0.0) {
    result.speedup = result.binary_ingest_eps / result.text_parse_eps;
  }
  // Consume the sink so neither read loop is dead code (value is
  // meaningless by design).
  std::printf("ingest-only: text parse %.0f edges/s, binary %.0f edges/s "
              "(%.2fx, sink %" PRIu64 ")\n",
              result.text_parse_eps, result.binary_ingest_eps,
              result.speedup, sink & 1);
  return result;
}

/// Intersection-bound hub-heavy row: fills a SampledGraph with the
/// stream's prefix (BA skew intact, so hub-vs-leaf block pairs dominate),
/// then replays |Γ̂(u) ∩ Γ̂(v)| over every stream edge — the exact query
/// the per-arrival estimator issues — under forced scalar merge vs.
/// adaptive kernel dispatch (graph/intersect.h). Best-of-3 each; the
/// RELATIVE intersect_speedup is gated against the baseline. Counts are
/// cross-checked between the two runs (kernel identity is a contract).
IntersectBenchResult RunIntersectBench(const std::vector<Edge>& stream,
                                       size_t capacity) {
  SampledGraph graph;
  SlotId slot = 0;
  for (const Edge& e : stream) {
    if (graph.NumEdges() >= capacity) break;
    graph.AddEdge(e.Canonical(), slot++);
  }
  // Hub-heavy subset: the arrivals whose per-edge cost the kernels exist
  // to cut are the ones touching a big adjacency block. Replaying only
  // edges incident to a >= 64-degree node keeps the row
  // intersection-bound (the node-table lookups stop dominating) without
  // fabricating pairs the estimator would never see. Falls back to the
  // whole stream if the sample is too small to have grown hubs.
  constexpr size_t kHubDegree = 64;
  std::vector<Edge> pairs;
  for (const Edge& e : stream) {
    if (graph.Degree(e.u) >= kHubDegree || graph.Degree(e.v) >= kHubDegree) {
      pairs.push_back(e);
    }
  }
  if (pairs.size() < 1000) pairs = stream;
  const auto time_pairs = [&](IntersectKernel kernel, uint64_t* checksum) {
    SetIntersectKernel(kernel);
    double best_eps = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      uint64_t total = 0;
      WallTimer timer;
      for (const Edge& e : pairs) {
        total += graph.CountCommonNeighbors(e.u, e.v);
      }
      best_eps = std::max(best_eps, pairs.size() / timer.ElapsedSeconds());
      *checksum = total;
    }
    SetIntersectKernel(IntersectKernel::kAuto);
    return best_eps;
  };
  IntersectBenchResult result;
  uint64_t merge_count = 0, adaptive_count = 0;
  result.merge_eps = time_pairs(IntersectKernel::kMerge, &merge_count);
  result.adaptive_eps = time_pairs(IntersectKernel::kAuto, &adaptive_count);
  if (merge_count != adaptive_count) {
    std::fprintf(stderr,
                 "FATAL: adaptive intersection count %" PRIu64
                 " != scalar merge count %" PRIu64 "\n",
                 adaptive_count, merge_count);
    std::exit(1);
  }
  result.speedup = result.adaptive_eps / result.merge_eps;
  std::printf(
      "hub-heavy intersect replay (%zu sampled edges, %zu hub pairs, "
      "%" PRIu64 " common neighbors, simd %s): merge %.0f pairs/s, "
      "adaptive %.0f pairs/s\n",
      graph.NumEdges(), pairs.size(), merge_count, IntersectSimdLevel(),
      result.merge_eps, result.adaptive_eps);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t target_edges = 1000000;
  size_t capacity = 250000;
  bool capacity_explicit = false;
  uint64_t mem_budget = 0;  // 0 = capacity path (explicit or default)
  bool run_exact = true;
  std::string json_path;
  std::string baseline_path;
  std::string alloc_report_path;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--edges") && i + 1 < argc) {
      target_edges = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--capacity") && i + 1 < argc) {
      capacity = std::strtoull(argv[++i], nullptr, 10);
      capacity_explicit = true;
    } else if (!std::strcmp(argv[i], "--mem") && i + 1 < argc) {
      Result<uint64_t> budget = ParseByteSize(argv[++i], "flag '--mem'");
      if (!budget.ok()) {
        std::fprintf(stderr, "error: %s\n", budget.status().ToString().c_str());
        return 2;
      }
      mem_budget = *budget;
    } else if (!std::strcmp(argv[i], "--alloc-report") && i + 1 < argc) {
      alloc_report_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--no-exact")) {
      run_exact = false;
    } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--baseline") && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_engine [--edges N] [--capacity M | "
                   "--mem BYTES] [--no-exact]\n"
                   "       [--json FILE] [--baseline FILE] "
                   "[--alloc-report FILE]\n");
      return 2;
    }
  }
  if (mem_budget > 0 && capacity_explicit) {
    std::fprintf(stderr,
                 "error: --mem and --capacity are mutually exclusive "
                 "(--mem derives the capacity from a byte budget)\n");
    return 2;
  }

  // The store layout every row runs under: derived from --mem when given,
  // otherwise the bytes the configured capacity implies. Either way the
  // fixed-envelope row reports against layout.total_bytes.
  // Every row runs Algorithm 3's estimator.
  StoreLayout layout = LayoutForCapacity(capacity, 0, /*in_stream=*/true);
  if (mem_budget > 0) {
    Result<StoreLayout> derived =
        DeriveStoreLayout(mem_budget, /*in_stream=*/true);
    if (!derived.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   derived.status().ToString().c_str());
      return 2;
    }
    layout = *derived;
    capacity = layout.capacity;
    std::printf("%s", FormatAllocationReport(layout).c_str());
  }
  const uint64_t envelope_bytes =
      mem_budget > 0 ? mem_budget : layout.total_bytes;
  if (!alloc_report_path.empty()) {
    std::ofstream report(alloc_report_path, std::ios::trunc);
    report << FormatAllocationReport(layout);
    if (!report) {
      std::fprintf(stderr, "cannot write allocation report %s\n",
                   alloc_report_path.c_str());
      return 2;
    }
    std::printf("allocation report written to %s\n",
                alloc_report_path.c_str());
  }

  const uint32_t edges_per_node = 16;
  const uint32_t nodes =
      static_cast<uint32_t>(target_edges / edges_per_node + edges_per_node);
  std::printf("generating BA stream: ~%" PRIu64 " edges (%u nodes x %u)\n",
              target_edges, nodes, edges_per_node);
  EdgeList graph =
      GenerateBarabasiAlbert(nodes, edges_per_node, 0.5, 901).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 902);
  std::printf("stream: %zu edges, reservoir budget: %zu\n\n", stream.size(),
              capacity);

  GpsSamplerOptions base;
  base.capacity = capacity;
  base.seed = 903;

  std::vector<Row> rows;

  {
    Row row;
    row.config = "serial in-stream";
    WallTimer timer;
    InStreamEstimator serial(base);
    for (const Edge& e : stream) serial.Process(e);
    row.seconds = timer.ElapsedSeconds();
    row.estimates = serial.Estimates();
    row.edges_per_sec = stream.size() / row.seconds;
    rows.push_back(row);
  }
  const double serial_seconds = rows[0].seconds;

  for (const uint32_t shards : {1u, 2u, 4u, 8u}) {
    Row row = RunEngineRow(stream, base, shards, serial_seconds);
    row.config = "engine K=" + std::to_string(shards);
    rows.push_back(row);
  }
  const double speedup_k4 = rows[3].speedup;

  // Fixed-envelope row: the same K=4 ingest with the byte envelope pinned
  // (identical capacity, so identical estimates), annotated with the
  // store-health gauges and whole-process peak RSS. Values are copied to
  // locals immediately — later push_backs may reallocate `rows`.
  double env_speedup = 1.0;
  double env_load_factor = 0.0;
  double env_probe_p99 = 0.0;
  uint64_t env_peak_rss = 0;
  {
    Row row = RunEngineRow(stream, base, 4, serial_seconds);
    row.config = "engine K=4 fixed-envelope";
    row.mem_budget_bytes = envelope_bytes;
    row.load_factor = row.metrics.GaugeOr0("store.load_factor");
    row.probe_len_p99 = row.metrics.GaugeOr0("store.probe_len_p99");
    row.peak_rss_bytes = PeakRssBytes();
    env_speedup = row.speedup;
    env_load_factor = row.load_factor;
    env_probe_p99 = row.probe_len_p99;
    env_peak_rss = row.peak_rss_bytes;
    rows.push_back(row);
  }

  const IngestOnlyResult ingest = RunIngestOnlyBench(stream);
  const IntersectBenchResult intersect = RunIntersectBench(stream, capacity);

  ExactCounts exact;
  if (run_exact) exact = CountExact(CsrGraph::FromEdgeList(graph));

  TextTable table({"config", "ingest s", "merge s", "edges/s", "speedup",
                   "triangles", "tri err%"});
  for (const Row& row : rows) {
    const double err =
        run_exact && exact.triangles > 0
            ? 100.0 * (row.estimates.triangles.value - exact.triangles) /
                  exact.triangles
            : 0.0;
    table.AddRow({row.config, Fmt("%.2f", row.seconds),
                  Fmt("%.2f", row.merge_seconds),
                  Fmt("%.0f", row.edges_per_sec), Fmt("%.2fx", row.speedup),
                  Fmt("%.0f", row.estimates.triangles.value),
                  run_exact ? Fmt("%+.2f", err) : "n/a"});
  }
  std::printf("%s", table.ToString().c_str());
  if (run_exact) {
    std::printf("exact triangles: %.0f  wedges: %.0f\n", exact.triangles,
                exact.wedges);
  }

  std::printf(
      "fixed envelope: budget %s, peak RSS %.1f MiB, load factor %.2f, "
      "probe p99 %.0f\n",
      FormatByteSize(envelope_bytes).c_str(),
      static_cast<double>(env_peak_rss) / (1024.0 * 1024.0),
      env_load_factor, env_probe_p99);

  if (!json_path.empty()) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    WriteJson(json_path, rows, stream.size(), capacity, hw, speedup_k4,
              envelope_bytes, env_speedup, ingest, intersect);
  }

  // Regression gates.
  //  * parallel ingestion must stay well ahead of serial (recalibrated
  //    from 2.0x when the sorted-adjacency index made the SERIAL baseline
  //    ~30% faster: the ratio's denominator shrank).
  bool ok = true;
  std::printf("\n4-shard speedup vs serial: %.2fx (%s)\n", speedup_k4,
              speedup_k4 >= 1.7 ? "PASS" : "FAIL");
  ok &= speedup_k4 >= 1.7;
  // The binary format's acceptance bar: decoding GPS-STREAM must outrun
  // even the strict bulk text parser by 3x — otherwise the format is
  // complexity without a payoff.
  std::printf("binary-over-text ingest: %.2fx (%s)\n", ingest.speedup,
              ingest.speedup >= 3.0 ? "PASS" : "FAIL");
  ok &= ingest.speedup >= 3.0;
  // The adaptive intersection kernels' bar: the hub-heavy replay must
  // beat forced scalar merge (baseline-gated below; printed here so a
  // local run shows the ratio even without --baseline).
  std::printf("hub-heavy intersect adaptive vs merge: %.2fx\n",
              intersect.speedup);
  if (!baseline_path.empty()) {
    ok &= GateAgainstBaseline(baseline_path, speedup_k4, env_speedup,
                              ingest.speedup, intersect.speedup);
  }
  return ok ? 0 : 1;
}
