// gps_cli: command-line front end for the GPS library.
//
// Subcommands:
//   estimate  --input FILE [--capacity N] [--seed S] [--weight KIND]
//             [--estimator in-stream|post|both] [--shards K] [--batch B]
//             [--threads T] [--checkpoint PATH]
//       Stream the edge list (randomly permuted unless --no-permute) and
//       print triangle/wedge/clustering estimates with 95% CIs. With
//       --checkpoint, estimator state is saved afterwards: a single
//       GPS-INSTREAM file for serial runs, a manifest directory (as
//       checkpoint-shards) for --shards K > 1. --threads T runs a serial
//       post-stream pass on T threads; the output is the same for every T.
//   resume    --checkpoint FILE --input FILE [--save FILE] [--no-permute]
//       Load a saved in-stream estimator and continue over more edges;
//       --save re-serializes the continued state so runs can chain.
//   resume-shards  --manifest FILE [--manifest FILE ...] --input FILE
//             [--save DIR] [--batch B] [--no-permute]
//       Rebuild a RUNNING sharded engine from checkpoint manifests and
//       continue streaming. When --input is the exact remaining
//       substream in arrival order (pass --no-permute for a file that
//       is already ordered; the default permutes the file standalone),
//       the result is byte-identical to a run that was never
//       interrupted. --save re-checkpoints afterwards.
//   monitor   --input FILE --every N [estimate flags] [--output csv|table]
//             [--checkpoint-every M --checkpoint DIR]
//       Continuous-monitoring mode: stream through the sharded engine and
//       emit a merged-estimate time series (point estimates + 95% CI
//       bounds and widths) every N edges, plus a final row at end of
//       stream. --checkpoint-every M additionally rewrites a resumable
//       checkpoint in DIR every M edges.
//   checkpoint-shards  --input FILE --out DIR [estimate flags]
//       Run the sharded in-stream engine and persist per-shard state plus
//       a GPS-MANIFEST file into DIR.
//   merge-checkpoints  --manifest FILE [--manifest FILE ...]
//       Merge shard checkpoints (possibly produced on different machines)
//       and print the estimates the live sharded run would produce,
//       without re-streaming.
//   convert   --input FILE --output FILE [--to auto|binary|text]
//             [--input-format auto|text|binary] [--block-edges N]
//       Convert an edge stream between the text format and GPS-STREAM v1
//       binary (graph/binary_stream.h), preserving stream order and
//       duplicates. Binary output is reopened and digest-verified before
//       the command reports success.
//   generate  --name CORPUS [--scale X] [--output FILE]
//       Materialize a corpus graph to an edge-list file.
//   exact     --input FILE
//       Exact triangle/wedge/clustering counts (offline oracle).
//   corpus
//       List the paper-analog corpus.
//   version
//       Print the checkpoint format versions this build writes/reads, the
//       build type, and whether metrics instrumentation is compiled in.
//
// Observability (estimate and monitor): --stats prints an aggregated
// metrics snapshot (ring backpressure, scheduler activity, sampling
// internals) after the run; --stats-out FILE writes it as JSON instead;
// --trace FILE records per-worker Chrome trace_event spans loadable in
// chrome://tracing or Perfetto. All observation-only: estimates are
// byte-identical with or without these flags.

#include <sys/stat.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/in_stream.h"
#include "core/local_counts.h"
#include "core/motifs.h"
#include "core/packed_store.h"
#include "core/post_stream.h"
#include "core/serialize.h"
#include "engine/merge.h"
#include "engine/sharded_engine.h"
#include "gen/registry.h"
#include "graph/binary_stream.h"
#include "graph/csr_graph.h"
#include "graph/exact.h"
#include "graph/intersect.h"
#include "graph/stream.h"
#include "util/metrics.h"
#include "util/parse_bytes.h"
#include "util/table.h"
#include "util/trace.h"

// Stamped by the build system (CMake passes the configured build type).
#ifndef GPS_BUILD_TYPE
#define GPS_BUILD_TYPE "unknown"
#endif

namespace {

using namespace gps;  // NOLINT

/// Shared by estimate/checkpoint-shards/merge-checkpoints so outputs are
/// byte-comparable across the live and checkpoint-merge paths.
constexpr const char* kMergedInStreamLabel =
    "merged in-stream estimates (per-shard Algorithm 3 "
    "+ cross-shard correction)";
constexpr const char* kMergedPostStreamLabel =
    "merged post-stream estimates (union sample)";

/// Strict numeric parsing: operator-typed flags must not silently
/// degrade ("--capacity abc" is an error, not 0; "--shards 2x" is an
/// error, not 2). The digits-only core lives in util/parse_bytes.h so
/// the CLI and benches share one parser.
Result<uint64_t> ParseU64Flag(const std::string& key,
                              const std::string& text) {
  return ParseStrictUint64(text, "flag '--" + key + "'");
}

Result<double> ParseDoubleFlag(const std::string& key,
                               const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      errno == ERANGE || !std::isfinite(value)) {
    return Status::InvalidArgument("flag '--" + key +
                                   "' expects a finite number, got '" +
                                   text + "'");
  }
  return value;
}

struct Flags {
  // Repeatable flags keep every occurrence ("merge-checkpoints --manifest
  // a --manifest b"); single-valued lookups take the last one.
  std::map<std::string, std::vector<std::string>> values;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second.back();
  }
  const std::vector<std::string>& GetAll(const std::string& key) const {
    static const std::vector<std::string> kEmpty;
    auto it = values.find(key);
    return it == values.end() ? kEmpty : it->second;
  }
  Result<uint64_t> GetU64(const std::string& key, uint64_t fallback) const {
    auto it = values.find(key);
    if (it == values.end()) return fallback;
    return ParseU64Flag(key, it->second.back());
  }
  Result<double> GetDouble(const std::string& key, double fallback) const {
    auto it = values.find(key);
    if (it == values.end()) return fallback;
    return ParseDoubleFlag(key, it->second.back());
  }
  bool Has(const std::string& key) const { return values.count(key) > 0; }
};

/// Unwraps a parsed flag, reporting the misparse on stderr. Callers bail
/// out with exit code 1 on false.
template <typename T>
bool GetFlag(const Result<T>& parsed, T* out) {
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 parsed.status().ToString().c_str());
    return false;
  }
  *out = *parsed;
  return true;
}

/// Strict positive-count flag: misparses AND zero values fail with an
/// error naming the flag ("--every 0" is as much operator error as
/// "--every abc"; negatives already fail the unsigned parse).
bool GetPositiveFlag(const Flags& flags, const std::string& key,
                     uint64_t fallback, uint64_t* out) {
  if (!GetFlag(flags.GetU64(key, fallback), out)) return false;
  if (*out < 1) {
    std::fprintf(stderr, "error: flag '--%s' must be >= 1\n", key.c_str());
    return false;
  }
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: gps_cli <estimate|resume|resume-shards|monitor"
      "|checkpoint-shards|merge-checkpoints|convert|generate|exact|corpus"
      "|list-motifs|version> [flags]\n"
      "  Streaming subcommands read --input as text or GPS-STREAM binary;\n"
      "  --input-format auto|text|binary (default auto: sniff the magic)\n"
      "  forces the decoder. Estimates are byte-identical across formats.\n"
      "  estimate --input FILE [--capacity N | --mem BYTES] [--seed S]\n"
      "           [--weight uniform|adjacency|triangle|triangle-wedge]\n"
      "           [--estimator in-stream|post|both] [--no-permute]\n"
      "           [--shards K] [--batch B] [--threads T] [--steal on|off]\n"
      "           [--routers R] [--pin on|off]\n"
      "           [--motifs tri,wedge,4clique,3path,4cycle,5clique,\n"
      "            tailed_triangle]\n"
      "           [--degree NODE ...]\n"
      "           [--stats] [--stats-out FILE.json] [--trace FILE.json]\n"
      "           [--checkpoint FILE]  (a directory with --shards K>1,\n"
      "           --motifs, or --steal)\n"
      "           --threads T: threads of a serial run's post-stream\n"
      "           pass; every T prints the same bytes\n"
      "           --steal on: idle shard workers steal batches from\n"
      "           overloaded peers; off: same deterministic\n"
      "           batch-substream scheduler, no stealing (byte-identical\n"
      "           results); omit for the classic sequential path\n"
      "           --routers R: R >= 2 scatters ingest blocks across R\n"
      "           router threads; any R is byte-identical to R=1 (the\n"
      "           classic single-producer path)\n"
      "           --pin on: pin shard workers and router threads to\n"
      "           distinct cores (placement only; warns and runs unpinned\n"
      "           where the affinity syscall is denied)\n"
      "           --mem BYTES (e.g. 512M, 2G): derive the reservoir\n"
      "           capacity from a memory budget instead of --capacity;\n"
      "           the allocation report prints on stderr at startup\n"
      "  resume   --checkpoint FILE --input FILE [--save FILE]\n"
      "           [--no-permute]\n"
      "  resume-shards --manifest FILE [--manifest FILE ...]\n"
      "           --input FILE [--save DIR] [--batch B] [--no-permute]\n"
      "           [--motifs LIST]  (cross-checked against the manifest)\n"
      "  monitor  --input FILE --every N [--capacity N | --mem BYTES]\n"
      "           [--seed S]\n"
      "           [--weight KIND] [--shards K] [--batch B]\n"
      "           [--steal on|off] [--routers R] [--pin on|off]\n"
      "           [--motifs LIST] [--output csv|table]\n"
      "           [--no-permute] [--checkpoint-every M --checkpoint DIR]\n"
      "           [--stats] [--stats-out FILE.json] [--trace FILE.json]\n"
      "  checkpoint-shards --input FILE --out DIR\n"
      "           [--capacity N | --mem BYTES]\n"
      "           [--seed S] [--weight KIND] [--shards K] [--batch B]\n"
      "           [--steal on|off] [--routers R] [--pin on|off]\n"
      "           [--motifs LIST] [--no-permute]\n"
      "  merge-checkpoints --manifest FILE [--manifest FILE ...]\n"
      "  convert  --input FILE --output FILE [--to auto|binary|text]\n"
      "           [--input-format auto|text|binary] [--block-edges N]\n"
      "           (text <-> GPS-STREAM v1 binary; stream order and\n"
      "           duplicates preserved; binary writes are digest-verified\n"
      "           end to end before the command succeeds; --to auto\n"
      "           converts to the other format)\n"
      "  generate --name CORPUS [--scale X] [--output FILE]\n"
      "  exact    --input FILE [--higher-motifs]  (adds the 4-clique,\n"
      "           3-path, 4-cycle, 5-clique, and tailed-triangle\n"
      "           oracles; expensive on big graphs)\n"
      "  corpus\n"
      "  list-motifs\n"
      "  version\n");
  return 2;
}

/// Flags that take no value.
bool IsBooleanFlag(const std::string& key) {
  return key == "no-permute" || key == "higher-motifs" || key == "stats";
}

Result<Flags> ParseFlags(int argc, char** argv, int first,
                         const std::string& command,
                         const std::vector<const char*>& allowed) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument '" + arg + "'");
    }
    const std::string key = arg.substr(2);
    bool known = false;
    for (const char* candidate : allowed) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument("unknown flag '" + arg + "' for '" +
                                     command + "'");
    }
    if (IsBooleanFlag(key)) {
      flags.values[key] = {"1"};
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag '" + arg + "' needs a value");
    }
    flags.values[key].push_back(argv[++i]);
  }
  return flags;
}

Result<WeightOptions> WeightFromName(const std::string& name) {
  WeightOptions weight;
  if (name == "uniform") {
    weight.kind = WeightKind::kUniform;
  } else if (name == "adjacency") {
    weight.kind = WeightKind::kAdjacency;
    weight.coefficient = 1.0;
  } else if (name == "triangle") {
    weight.kind = WeightKind::kTriangle;
  } else if (name == "triangle-wedge") {
    weight.kind = WeightKind::kTriangleWedge;
  } else {
    return Status::InvalidArgument("unknown weight '" + name + "'");
  }
  return weight;
}

// ---- Dataset loading (text and GPS-STREAM binary) ------------------------

/// CLI-level preflight on --input before any parser runs, so the two
/// classic unhelpful failures — pointing a subcommand at a directory or
/// at an empty file — are refusals that name the problem, not a generic
/// parse error (or a silent empty stream).
Status CheckDatasetPath(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("missing --input FILE");
  }
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IoError("cannot open '" + path +
                           "' for reading: " + std::strerror(errno));
  }
  if (S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("'" + path +
                                   "' is a directory, not an edge-stream "
                                   "file");
  }
  if (S_ISREG(st.st_mode) && st.st_size == 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is empty (0 bytes) — not an edge "
                                   "stream");
  }
  return Status::Ok();
}

enum class InputFormat { kText, kBinary };

/// Resolves --input-format: explicit text/binary, or auto (the default),
/// which sniffs the GPS-STREAM magic. An explicit format never sniffs,
/// so a text file that happens to start with the magic bytes can still
/// be forced through the text parser and vice versa.
Result<InputFormat> ResolveInputFormat(const Flags& flags,
                                       const std::string& path) {
  const std::string format = flags.Get("input-format", "auto");
  if (format == "text") return InputFormat::kText;
  if (format == "binary") return InputFormat::kBinary;
  if (format != "auto") {
    return Status::InvalidArgument("unknown --input-format '" + format +
                                   "' (expected auto, text, or binary)");
  }
  return LooksLikeBinaryStream(path) ? InputFormat::kBinary
                                     : InputFormat::kText;
}

/// Loads --input as an EdgeList in stream order (duplicates preserved),
/// from either format. Binary input goes through the digest-verified
/// block reader; both formats then share the SAME permute/simplify path
/// downstream, so estimates are byte-identical across a text file and
/// its GPS-STREAM conversion.
Result<EdgeList> LoadDatasetEdges(const Flags& flags) {
  const std::string path = flags.Get("input", "");
  if (Status s = CheckDatasetPath(path); !s.ok()) return s;
  auto format = ResolveInputFormat(flags, path);
  if (!format.ok()) return format.status();
  if (*format == InputFormat::kBinary) {
    auto reader = BinaryStreamReader::Open(path);
    if (!reader.ok()) return reader.status();
    EdgeList list;
    list.Reserve(reader->edge_count());
    for (size_t b = 0; b < reader->num_blocks(); ++b) {
      auto block = reader->Block(b);
      if (!block.ok()) return block.status();
      for (const Edge& e : *block) list.Add(e);
    }
    return list;
  }
  return EdgeList::Load(path);
}

Result<std::vector<Edge>> LoadStream(const Flags& flags) {
  auto list = LoadDatasetEdges(flags);
  if (!list.ok()) return list.status();
  if (flags.Has("no-permute")) {
    EdgeList simplified = *list;
    simplified.Simplify();
    return simplified.Edges();
  }
  auto seed = flags.GetU64("seed", 1);
  if (!seed.ok()) return seed.status();
  return MakePermutedStream(*list, *seed);
}

// ---- Shared estimate formatting ------------------------------------------
//
// Every estimate block the CLI prints — estimate (serial and sharded),
// merge-checkpoints, resume, resume-shards, checkpoint-shards, and the
// monitor table mode — renders through these helpers over util/table, so a
// statistic added in one place (a motif column, the edge count) shows up
// with the same precision and alignment everywhere.

/// Count-style cell: integers with no padding ("1234567").
std::string CountCell(double value) { return FormatDouble(value, 0); }

/// 95% confidence-interval cell: "[lo, hi]" at the given precision.
std::string CiCell(const Estimate& est, int decimals) {
  return "[" + FormatDouble(est.Lower(), decimals) + ", " +
         FormatDouble(est.Upper(), decimals) + "]";
}

/// Everything one estimate block can carry. The graph estimates are always
/// present; motif rows, the edge-count row, and degree rows appear when
/// the producing path supplies them.
struct EstimateReport {
  GraphEstimates graph;
  std::vector<MotifEstimate> motifs;
  double edge_count = -1.0;  ///< < 0: not computed by this path
  std::vector<std::pair<NodeId, double>> degrees;  ///< --degree rows
};

EstimateReport MakeReport(const GraphEstimates& graph) {
  EstimateReport report;
  report.graph = graph;
  return report;
}

void PrintEstimateReport(const char* label, const EstimateReport& report) {
  std::printf("%s:\n", label);
  TextTable t({"statistic", "estimate", "95% CI"});
  const auto add = [&t](const std::string& name, const Estimate& est,
                        int decimals) {
    t.AddRow({name, FormatDouble(est.value, decimals),
              CiCell(est, decimals)});
  };
  add("triangles", report.graph.triangles, 0);
  add("wedges", report.graph.wedges, 0);
  add("clustering", report.graph.ClusteringCoefficient(), 4);
  for (const MotifEstimate& motif : report.motifs) {
    add("motif:" + motif.name, motif.estimate, 0);
  }
  if (report.edge_count >= 0.0) {
    t.AddRow({"edges", CountCell(report.edge_count), "-"});
  }
  for (const auto& [node, degree] : report.degrees) {
    t.AddRow({"deg(" + std::to_string(node) + ")", CountCell(degree), "-"});
  }
  std::printf("%s", t.ToString().c_str());
}

/// Serializes an in-stream estimator to `path`; used by `estimate
/// --checkpoint` (serial) and `resume --save`.
int WriteEstimatorCheckpoint(const InStreamEstimator& estimator,
                             const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const Status s = SerializeInStreamEstimator(estimator, out);
  if (!s.ok()) {
    std::fprintf(stderr, "checkpoint error: %s\n", s.ToString().c_str());
    return 1;
  }
  if (!out) {
    std::fprintf(stderr, "checkpoint error: cannot write %s\n",
                 path.c_str());
    return 1;
  }
  std::printf("checkpoint written to %s\n", path.c_str());
  return 0;
}

/// Parses the optional --motifs flag into validated registry names;
/// reports misparses/unknown names (by name) on stderr. `names` stays
/// empty when the flag is absent.
bool GetMotifNames(const Flags& flags, std::vector<std::string>* names) {
  if (!flags.Has("motifs")) return true;
  auto parsed = ParseMotifNames(flags.Get("motifs", ""));
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return false;
  }
  *names = std::move(*parsed);
  return true;
}

/// Parses every --degree occurrence into node ids.
bool GetDegreeNodes(const Flags& flags, std::vector<NodeId>* nodes) {
  for (const std::string& text : flags.GetAll("degree")) {
    uint64_t node = 0;
    if (!GetFlag(ParseU64Flag("degree", text), &node)) return false;
    if (node > 0xffffffffull) {
      std::fprintf(stderr,
                   "error: flag '--degree' node id %llu exceeds the "
                   "32-bit node space\n",
                   static_cast<unsigned long long>(node));
      return false;
    }
    nodes->push_back(static_cast<NodeId>(node));
  }
  return true;
}

/// Options common to the sharded paths of estimate and checkpoint-shards.
struct ShardedRunConfig {
  GpsSamplerOptions sampler;
  uint64_t shards = 1;
  uint64_t batch = 1024;
  std::vector<std::string> motifs;
  StealMode steal = StealMode::kDisabled;
  uint64_t routers = 1;
  bool pin = false;
};

/// Parses and range-checks the sampler/sharding flags; false (after
/// printing the error) on any misparse or out-of-range value.
bool ParseShardedRunConfig(const Flags& flags, size_t stream_size,
                           ShardedRunConfig* out) {
  if (flags.Has("mem") && flags.Has("capacity")) {
    std::fprintf(stderr,
                 "error: --mem and --capacity are mutually exclusive "
                 "(--mem derives the capacity from a byte budget)\n");
    return false;
  }
  uint64_t capacity = 0;
  if (!GetFlag(flags.GetU64("capacity", stream_size / 20 + 1), &capacity) ||
      !GetFlag(flags.GetU64("seed", 1), &out->sampler.seed) ||
      !GetFlag(flags.GetU64("shards", 1), &out->shards) ||
      !GetPositiveFlag(flags, "batch", 1024, &out->batch) ||
      !GetMotifNames(flags, &out->motifs)) {
    return false;
  }
  if (flags.Has("mem")) {
    // Budget-sized run: derive the capacity from the byte budget and
    // print the allocation report (stderr, so piped estimate output
    // stays clean). The derived run is byte-identical to an explicit
    // --capacity run of the derived value.
    auto budget = ParseByteSize(flags.Get("mem", ""), "flag '--mem'");
    if (!budget.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   budget.status().ToString().c_str());
      return false;
    }
    auto layout = DeriveStoreLayout(*budget);
    if (!layout.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   layout.status().ToString().c_str());
      return false;
    }
    capacity = layout->capacity;
    out->sampler.mem_bytes = *budget;
    std::fprintf(stderr, "%s", FormatAllocationReport(*layout).c_str());
  }
  if (capacity < 1 || capacity > kMaxCheckpointCapacity) {
    std::fprintf(stderr, "error: --capacity must be in [1, %llu]\n",
                 static_cast<unsigned long long>(kMaxCheckpointCapacity));
    return false;
  }
  if (out->shards < 1 || out->shards > kMaxManifestShards) {
    std::fprintf(stderr, "error: --shards must be in [1, %llu]\n",
                 static_cast<unsigned long long>(kMaxManifestShards));
    return false;
  }
  out->sampler.capacity = capacity;
  // The work-stealing scheduler: "--steal on" activates thieves, "--steal
  // off" arms the same deterministic batch-substream scheduler without
  // them (the two are byte-identical by contract — src/engine/README.md);
  // omitting the flag keeps the classic sequential per-shard path.
  if (flags.Has("steal")) {
    const std::string steal = flags.Get("steal", "");
    if (steal == "on") {
      out->steal = StealMode::kActive;
    } else if (steal == "off") {
      out->steal = StealMode::kArmed;
    } else {
      std::fprintf(stderr,
                   "error: flag '--steal' expects on or off, got '%s'\n",
                   steal.c_str());
      return false;
    }
  }
  // Parallel edge routing: "--routers N" with N >= 2 scatters ingest
  // blocks across N router threads (deterministic — any N is
  // byte-identical to N=1 by the engine contract); 1 is the classic
  // single-producer path.
  if (!GetPositiveFlag(flags, "routers", 1, &out->routers)) return false;
  if (out->routers > 256) {
    std::fprintf(stderr, "error: --routers must be in [1, 256]\n");
    return false;
  }
  if (flags.Has("pin")) {
    const std::string pin = flags.Get("pin", "");
    if (pin == "on") {
      out->pin = true;
    } else if (pin != "off") {
      std::fprintf(stderr,
                   "error: flag '--pin' expects on or off, got '%s'\n",
                   pin.c_str());
      return false;
    }
  }
  return true;
}

/// Engine configuration implied by a parsed ShardedRunConfig; the single
/// place CLI flags map onto ShardedEngineOptions.
ShardedEngineOptions MakeEngineOptions(const ShardedRunConfig& config) {
  ShardedEngineOptions options;
  options.sampler = config.sampler;
  options.num_shards = static_cast<uint32_t>(config.shards);
  options.batch_size = config.batch;
  options.motifs = config.motifs;
  options.steal = config.steal;
  options.router_threads = static_cast<uint32_t>(config.routers);
  options.pin_threads = config.pin;
  return options;
}

/// Observability surface shared by estimate and monitor: a metrics
/// snapshot (stdout or file) and/or a Chrome trace_event capture.
struct StatsConfig {
  bool stats = false;
  std::string stats_out;
  std::string trace;
  bool any() const { return stats || !trace.empty(); }
};

/// Parses --stats / --stats-out / --trace. --stats-out implies --stats.
StatsConfig ParseStatsConfig(const Flags& flags) {
  StatsConfig config;
  config.stats = flags.Has("stats");
  config.stats_out = flags.Get("stats-out", "");
  config.trace = flags.Get("trace", "");
  if (!config.stats_out.empty()) config.stats = true;
  return config;
}

/// Emits the requested observability outputs after the engine finished:
/// the aggregated metrics snapshot (stdout or --stats-out file) and the
/// trace_event JSON (--trace file). Returns false (after printing the
/// error) if a file write fails.
bool EmitObservability(ShardedEngine& engine, const StatsConfig& config,
                       const TraceEventSink* sink) {
  if (config.stats) {
    const std::string json = engine.SnapshotMetrics().ToJson(2);
    if (config.stats_out.empty()) {
      std::printf("metrics:\n%s\n", json.c_str());
    } else {
      std::ofstream out(config.stats_out);
      if (!out || !(out << json << "\n") || !out.flush()) {
        std::fprintf(stderr, "error: cannot write metrics to %s\n",
                     config.stats_out.c_str());
        return false;
      }
      std::printf("metrics written to %s\n", config.stats_out.c_str());
    }
  }
  if (!config.trace.empty() && sink != nullptr) {
    if (Status s = sink->WriteJson(config.trace); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return false;
    }
    std::printf("trace written to %s (%zu spans)\n", config.trace.c_str(),
                sink->SpanCount());
  }
  return true;
}

/// The standard "stream: ..." banner of the sharded subcommands.
void PrintShardedBanner(size_t stream_size, const ShardedRunConfig& config) {
  std::printf("stream: %zu edges, reservoir: %zu edges, %llu shards "
              "(batch %llu)",
              stream_size, config.sampler.capacity,
              static_cast<unsigned long long>(config.shards),
              static_cast<unsigned long long>(config.batch));
  if (config.routers > 1) {
    std::printf(", %llu routers",
                static_cast<unsigned long long>(config.routers));
  }
  if (config.pin) std::printf(", pinned");
  std::printf("\n");
}

int RunEstimate(const Flags& flags) {
  auto stream = LoadStream(flags);
  if (!stream.ok()) {
    std::fprintf(stderr, "error: %s\n", stream.status().ToString().c_str());
    return 1;
  }
  auto weight = WeightFromName(flags.Get("weight", "triangle"));
  if (!weight.ok()) {
    std::fprintf(stderr, "error: %s\n", weight.status().ToString().c_str());
    return 1;
  }
  ShardedRunConfig config;
  if (!ParseShardedRunConfig(flags, stream->size(), &config)) return 1;
  uint64_t threads = 1;
  if (!GetPositiveFlag(flags, "threads", 1, &threads)) return 1;
  config.sampler.weight = *weight;
  const GpsSamplerOptions& options = config.sampler;

  const std::string estimator = flags.Get("estimator", "both");
  if (estimator != "in-stream" && estimator != "post" &&
      estimator != "both") {
    std::fprintf(stderr, "error: unknown estimator '%s'\n",
                 estimator.c_str());
    return 1;
  }
  std::vector<NodeId> degree_nodes;
  if (!GetDegreeNodes(flags, &degree_nodes)) return 1;
  const StatsConfig obs = ParseStatsConfig(flags);

  if (!config.motifs.empty() && estimator == "post") {
    std::fprintf(stderr,
                 "error: motif statistics are in-stream only (drop "
                 "--estimator post or --motifs)\n");
    return 1;
  }
  if (config.steal != StealMode::kDisabled && estimator == "post") {
    std::fprintf(stderr,
                 "error: the steal scheduler needs in-stream shard "
                 "estimators (drop --estimator post or --steal)\n");
    return 1;
  }

  // Motif suites always run on the engine (K >= 1): K=1 reproduces the
  // serial sample path byte for byte, and only the engine's manifest
  // checkpoints carry motif accumulators. Likewise --steal routes through
  // the engine (a single-shard engine bypasses the scheduler but still
  // replays the serial path exactly), and so do --stats/--trace runs
  // (the metrics registry and tracer are engine subsystems; observation
  // does not perturb the sample — src/engine/README.md).
  if (config.shards > 1 || !config.motifs.empty() ||
      config.steal != StealMode::kDisabled || config.routers > 1 ||
      config.pin || obs.any()) {
    // Sharded engine path: K worker threads, hash-partitioned substreams,
    // merged stratified estimates (src/engine/).
    if (flags.Has("threads")) {
      std::fprintf(stderr,
                   "error: --threads applies to single-shard post-stream "
                   "estimation; sharded runs merge on min(K, hardware "
                   "threads) threads\n");
      return 1;
    }
    if (flags.Has("checkpoint") && estimator == "post") {
      std::fprintf(stderr,
                   "error: sharded checkpoints require in-stream shard "
                   "estimators (drop --estimator post)\n");
      return 1;
    }
    PrintShardedBanner(stream->size(), config);
    ShardedEngineOptions engine_options = MakeEngineOptions(config);
    if (estimator == "post") {
      // Post-only: run the cheaper bare samplers per shard and let the
      // engine's own merge branch do the union pass.
      engine_options.merge_mode = MergeMode::kPostStreamMerged;
    }
    TraceEventSink trace_sink;
    engine_options.trace = obs.trace.empty() ? nullptr : &trace_sink;
    ShardedEngine engine(engine_options);
    // The block path: slices the stream across the router pool when
    // --routers N >= 2, and is byte-identical to the per-edge loop.
    engine.ProcessEdges(std::span<const Edge>(*stream));
    engine.Finish();
    const auto degree_rows = [&] {
      std::vector<std::pair<NodeId, double>> rows;
      for (const NodeId node : degree_nodes) {
        rows.emplace_back(node, engine.MergedDegreeEstimate(node));
      }
      return rows;
    };
    if (estimator == "post") {
      EstimateReport report = MakeReport(engine.MergedEstimates());
      report.edge_count = engine.MergedEdgeCountEstimate();
      report.degrees = degree_rows();
      PrintEstimateReport(kMergedPostStreamLabel, report);
      return EmitObservability(engine, obs, &trace_sink) ? 0 : 1;
    }
    EstimateReport report = MakeReport(engine.MergedEstimates());
    report.motifs = engine.MergedMotifEstimates();
    report.edge_count = engine.MergedEdgeCountEstimate();
    report.degrees = degree_rows();
    PrintEstimateReport(kMergedInStreamLabel, report);
    if (estimator == "both") {
      // The union the in-stream merge synced serves this pass too.
      PrintEstimateReport(kMergedPostStreamLabel,
                          MakeReport(engine.MergedPostStreamEstimates()));
    }
    if (flags.Has("checkpoint")) {
      const std::string dir = flags.Get("checkpoint", "");
      if (Status s = engine.SerializeShards(dir); !s.ok()) {
        std::fprintf(stderr, "checkpoint error: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      std::printf("sharded checkpoint written to %s (manifest %s)\n",
                  dir.c_str(), kShardManifestFilename);
    }
    return EmitObservability(engine, obs, &trace_sink) ? 0 : 1;
  }

  std::printf("stream: %zu edges, reservoir: %zu edges\n", stream->size(),
              options.capacity);

  InStreamEstimator in_stream(options);
  for (const Edge& e : *stream) in_stream.Process(e);
  const auto serial_degree_rows = [&] {
    std::vector<std::pair<NodeId, double>> rows;
    for (const NodeId node : degree_nodes) {
      rows.emplace_back(node, EstimateDegree(in_stream.reservoir(), node));
    }
    return rows;
  };
  if (estimator == "in-stream" || estimator == "both") {
    EstimateReport report = MakeReport(in_stream.Estimates());
    report.edge_count = EstimateEdgeCount(in_stream.reservoir());
    report.degrees = serial_degree_rows();
    PrintEstimateReport("in-stream estimates (Algorithm 3)", report);
  }
  if (estimator == "post" || estimator == "both") {
    EstimateReport report = MakeReport(EstimatePostStreamParallel(
        in_stream.reservoir(), static_cast<unsigned>(threads)));
    if (estimator == "post") {
      // The sample path is shared, so the HT edge/degree statistics are
      // identical for both frameworks; print them in whichever block
      // appears alone.
      report.edge_count = EstimateEdgeCount(in_stream.reservoir());
      report.degrees = serial_degree_rows();
    }
    PrintEstimateReport("post-stream estimates (Algorithm 2)", report);
  }

  if (flags.Has("checkpoint")) {
    return WriteEstimatorCheckpoint(in_stream,
                                    flags.Get("checkpoint", ""));
  }
  return 0;
}

int RunResume(const Flags& flags) {
  std::ifstream in(flags.Get("checkpoint", ""));
  if (!in) {
    std::fprintf(stderr, "error: cannot open checkpoint\n");
    return 1;
  }
  auto estimator = DeserializeInStreamEstimator(in);
  if (!estimator.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 estimator.status().ToString().c_str());
    return 1;
  }
  auto stream = LoadStream(flags);
  if (!stream.ok()) {
    std::fprintf(stderr, "error: %s\n", stream.status().ToString().c_str());
    return 1;
  }
  std::printf("resumed at %llu processed edges; feeding %zu more\n",
              static_cast<unsigned long long>(estimator->edges_processed()),
              stream->size());
  for (const Edge& e : *stream) estimator->Process(e);
  EstimateReport report = MakeReport(estimator->Estimates());
  report.edge_count = EstimateEdgeCount(estimator->reservoir());
  PrintEstimateReport("in-stream estimates (resumed)", report);
  if (flags.Has("save")) {
    // Persist the continued state so interrupted runs can chain
    // checkpoint -> resume -> resume indefinitely.
    return WriteEstimatorCheckpoint(*estimator, flags.Get("save", ""));
  }
  return 0;
}

int RunCheckpointShards(const Flags& flags) {
  if (!flags.Has("out")) {
    std::fprintf(stderr,
                 "error: checkpoint-shards needs --out DIR for the "
                 "manifest and shard files\n");
    return 1;
  }
  auto stream = LoadStream(flags);
  if (!stream.ok()) {
    std::fprintf(stderr, "error: %s\n", stream.status().ToString().c_str());
    return 1;
  }
  auto weight = WeightFromName(flags.Get("weight", "triangle"));
  if (!weight.ok()) {
    std::fprintf(stderr, "error: %s\n", weight.status().ToString().c_str());
    return 1;
  }
  ShardedRunConfig config;
  if (!ParseShardedRunConfig(flags, stream->size(), &config)) return 1;
  config.sampler.weight = *weight;

  PrintShardedBanner(stream->size(), config);
  ShardedEngine engine(MakeEngineOptions(config));
  engine.ProcessEdges(std::span<const Edge>(*stream));
  engine.Finish();
  EstimateReport report = MakeReport(engine.MergedEstimates());
  report.motifs = engine.MergedMotifEstimates();
  report.edge_count = engine.MergedEdgeCountEstimate();
  PrintEstimateReport(kMergedInStreamLabel, report);

  const std::string dir = flags.Get("out", "");
  if (Status s = engine.SerializeShards(dir); !s.ok()) {
    std::fprintf(stderr, "checkpoint error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("manifest written to %s/%s (%u shard files)\n", dir.c_str(),
              kShardManifestFilename, engine.num_shards());
  return 0;
}

int RunMergeCheckpoints(const Flags& flags) {
  const std::vector<std::string>& manifests = flags.GetAll("manifest");
  if (manifests.empty()) {
    std::fprintf(stderr,
                 "error: merge-checkpoints needs at least one "
                 "--manifest FILE\n");
    return 1;
  }
  auto merged = ShardedEngine::MergeFromCheckpointsDetailed(manifests);
  if (!merged.ok()) {
    std::fprintf(stderr, "error: %s\n", merged.status().ToString().c_str());
    return 1;
  }
  EstimateReport report = MakeReport(merged->graph);
  report.motifs = merged->motifs;
  report.edge_count = merged->edge_count;
  PrintEstimateReport(kMergedInStreamLabel, report);
  return 0;
}

int RunResumeShards(const Flags& flags) {
  const std::vector<std::string>& manifests = flags.GetAll("manifest");
  if (manifests.empty()) {
    std::fprintf(stderr,
                 "error: resume-shards needs at least one --manifest "
                 "FILE\n");
    return 1;
  }
  ShardedResumeOptions resume_options;
  uint64_t batch = 0;
  if (!GetPositiveFlag(flags, "batch", 1024, &batch)) return 1;
  resume_options.batch_size = batch;

  auto engine = ShardedEngine::ResumeFromCheckpoints(manifests,
                                                     resume_options);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  // The motif set is part of the checkpoint layout; --motifs here is a
  // cross-check (useful in scripted pipelines), not a reconfiguration.
  std::vector<std::string> expected_motifs;
  if (!GetMotifNames(flags, &expected_motifs)) return 1;
  if (flags.Has("motifs") &&
      expected_motifs != (*engine)->options().motifs) {
    std::fprintf(stderr,
                 "error: --motifs does not match the checkpoint's motif "
                 "set (%zu configured); resume adopts the manifest's "
                 "suite\n",
                 (*engine)->options().motifs.size());
    return 1;
  }
  auto stream = LoadStream(flags);
  if (!stream.ok()) {
    std::fprintf(stderr, "error: %s\n", stream.status().ToString().c_str());
    return 1;
  }
  std::printf("resumed %u shards at %llu processed edges; feeding %zu "
              "more\n",
              (*engine)->num_shards(),
              static_cast<unsigned long long>((*engine)->edges_processed()),
              stream->size());
  for (const Edge& e : *stream) (*engine)->Process(e);
  (*engine)->Finish();
  EstimateReport report = MakeReport((*engine)->MergedEstimates());
  report.motifs = (*engine)->MergedMotifEstimates();
  report.edge_count = (*engine)->MergedEdgeCountEstimate();
  PrintEstimateReport(kMergedInStreamLabel, report);
  if (flags.Has("save")) {
    const std::string dir = flags.Get("save", "");
    if (Status s = (*engine)->SerializeShards(dir); !s.ok()) {
      std::fprintf(stderr, "checkpoint error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("sharded checkpoint written to %s (manifest %s)\n",
                dir.c_str(), kShardManifestFilename);
  }
  return 0;
}

/// Monitoring CSV schema: one row per sample, full-precision doubles so
/// the series is machine-consumable and final rows compare byte for byte
/// across runs with different sampling cadences. Per configured motif the
/// base columns are followed by `<name>,<name>_lo,<name>_hi,
/// <name>_ci_width` in suite order.
constexpr const char* kMonitorCsvHeader =
    "edges,triangles,triangles_lo,triangles_hi,triangles_ci_width,"
    "wedges,wedges_lo,wedges_hi,wedges_ci_width,"
    "clustering,clustering_lo,clustering_hi";

std::string MonitorCsvHeader(std::span<const std::string> motifs) {
  std::string header = kMonitorCsvHeader;
  for (const std::string& name : motifs) {
    header += "," + name + "," + name + "_lo," + name + "_hi," + name +
              "_ci_width";
  }
  return header;
}

/// The monitor's table layout; shares the CiCell/FormatDouble formatting
/// of the estimate blocks, with per-motif columns appended in suite order.
StreamingTable MonitorTable(std::span<const std::string> motifs) {
  std::vector<StreamingTable::Column> columns = {
      {"edges", 12},      {"triangles", 14}, {"tri 95% CI", 26},
      {"wedges", 16},     {"wedge 95% CI", 28}, {"cc", 8},
      {"cc 95% CI", 18},
  };
  for (const std::string& name : motifs) {
    columns.push_back({name, 14});
    columns.push_back({name + " 95% CI", 26});
  }
  return StreamingTable(std::move(columns));
}

void PrintMonitorRow(const MonitorRecord& record, bool csv,
                     const StreamingTable& table) {
  const Estimate& tri = record.estimates.triangles;
  const Estimate& wed = record.estimates.wedges;
  const Estimate cc = record.estimates.ClusteringCoefficient();
  if (csv) {
    std::printf("%llu,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,"
                "%.17g,%.17g,%.17g",
                static_cast<unsigned long long>(record.edges_processed),
                tri.value, tri.Lower(), tri.Upper(),
                tri.Upper() - tri.Lower(), wed.value, wed.Lower(),
                wed.Upper(), wed.Upper() - wed.Lower(), cc.value,
                cc.Lower(), cc.Upper());
    for (const MotifEstimate& motif : record.motifs) {
      const Estimate& est = motif.estimate;
      std::printf(",%.17g,%.17g,%.17g,%.17g", est.value, est.Lower(),
                  est.Upper(), est.Upper() - est.Lower());
    }
    std::printf("\n");
    return;
  }
  std::vector<std::string> cells = {
      std::to_string(record.edges_processed),
      CountCell(tri.value),
      CiCell(tri, 0),
      CountCell(wed.value),
      CiCell(wed, 0),
      FormatDouble(cc.value, 4),
      CiCell(cc, 4),
  };
  for (const MotifEstimate& motif : record.motifs) {
    cells.push_back(CountCell(motif.estimate.value));
    cells.push_back(CiCell(motif.estimate, 0));
  }
  std::printf("%s\n", table.RowLine(cells).c_str());
}

int RunMonitor(const Flags& flags) {
  auto stream = LoadStream(flags);
  if (!stream.ok()) {
    std::fprintf(stderr, "error: %s\n", stream.status().ToString().c_str());
    return 1;
  }
  auto weight = WeightFromName(flags.Get("weight", "triangle"));
  if (!weight.ok()) {
    std::fprintf(stderr, "error: %s\n", weight.status().ToString().c_str());
    return 1;
  }
  ShardedRunConfig config;
  if (!ParseShardedRunConfig(flags, stream->size(), &config)) return 1;
  config.sampler.weight = *weight;

  if (!flags.Has("every")) {
    std::fprintf(stderr, "error: monitor needs --every N (edges between "
                         "estimate samples)\n");
    return 1;
  }
  uint64_t every = 0;
  if (!GetPositiveFlag(flags, "every", 1, &every)) return 1;

  const std::string output = flags.Get("output", "csv");
  if (output != "csv" && output != "table") {
    std::fprintf(stderr, "error: unknown output format '%s' (expected "
                         "csv or table)\n",
                 output.c_str());
    return 1;
  }
  const bool csv = output == "csv";

  uint64_t checkpoint_every = 0;  // 0 = auto-checkpointing off
  if (flags.Has("checkpoint-every") &&
      !GetPositiveFlag(flags, "checkpoint-every", 1, &checkpoint_every)) {
    return 1;
  }
  const std::string checkpoint_dir = flags.Get("checkpoint", "");
  if (checkpoint_every != 0 && checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "error: --checkpoint-every needs --checkpoint DIR\n");
    return 1;
  }
  if (checkpoint_every == 0 && !checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "error: monitor uses --checkpoint only together with "
                 "--checkpoint-every M\n");
    return 1;
  }

  const StatsConfig obs = ParseStatsConfig(flags);
  TraceEventSink trace_sink;
  ShardedEngineOptions engine_options = MakeEngineOptions(config);
  engine_options.trace = obs.trace.empty() ? nullptr : &trace_sink;
  ShardedEngine engine(engine_options);
  const StreamingTable table = MonitorTable(config.motifs);

  if (csv) {
    std::printf("%s\n", MonitorCsvHeader(config.motifs).c_str());
  } else {
    std::printf("%s\n", table.HeaderLine().c_str());
  }
  bool emitted_any = false;
  uint64_t last_emitted = 0;
  engine.EstimateEvery(every, [&](const MonitorRecord& record) {
    PrintMonitorRow(record, csv, table);
    emitted_any = true;
    last_emitted = record.edges_processed;
  });
  if (checkpoint_every != 0) {
    if (Status s = engine.CheckpointEvery(checkpoint_every, checkpoint_dir);
        !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // A failed auto-checkpoint is sticky (the engine stops refreshing the
  // resume point), so warn the moment it happens — a long-running
  // monitor must not stream on for hours with a silently stale
  // checkpoint — and still fail the run at the end.
  bool checkpoint_error_reported = false;
  // Feed in router-block-sized chunks: --routers parallelism on the
  // block path, while the sticky-checkpoint check still runs at least
  // once per chunk (and hooks fire at their exact positions regardless —
  // the engine splits blocks at hook boundaries).
  std::span<const Edge> remaining(*stream);
  while (!remaining.empty()) {
    const size_t take = std::min(remaining.size(), kRouterSliceEdges);
    engine.ProcessEdges(remaining.subspan(0, take));
    remaining = remaining.subspan(take);
    if (checkpoint_every != 0 && !checkpoint_error_reported &&
        !engine.auto_checkpoint_status().ok()) {
      std::fprintf(stderr,
                   "checkpoint error (auto-checkpointing disabled): %s\n",
                   engine.auto_checkpoint_status().ToString().c_str());
      checkpoint_error_reported = true;
    }
  }
  engine.Finish();
  if (!engine.auto_checkpoint_status().ok()) {
    if (!checkpoint_error_reported) {
      std::fprintf(stderr, "checkpoint error: %s\n",
                   engine.auto_checkpoint_status().ToString().c_str());
    }
    return 1;
  }
  // Final row at end of stream, unless a periodic sample already landed
  // exactly there. An empty stream still gets its (zero-estimate) row:
  // the time series always has at least one data row.
  if (!emitted_any || last_emitted != engine.edges_processed()) {
    MonitorRecord final_record;
    final_record.edges_processed = engine.edges_processed();
    final_record.estimates = engine.MergedEstimates();
    final_record.motifs = engine.MergedMotifEstimates();
    PrintMonitorRow(final_record, csv, table);
  }
  // Leave the directory at the end-of-stream state so a resume continues
  // from where the monitor stopped, not the last period — skipped when
  // the periodic hook already landed exactly there (an identical rewrite
  // would only cost I/O and a needless republish window).
  if (checkpoint_every != 0 &&
      (engine.edges_processed() == 0 ||
       engine.edges_processed() % checkpoint_every != 0)) {
    if (Status s = engine.SerializeShards(checkpoint_dir); !s.ok()) {
      std::fprintf(stderr, "checkpoint error: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  return EmitObservability(engine, obs, &trace_sink) ? 0 : 1;
}

int RunGenerate(const Flags& flags) {
  double scale = 1.0;
  if (!GetFlag(flags.GetDouble("scale", 1.0), &scale)) return 1;
  auto graph = MakeCorpusGraph(flags.Get("name", ""), scale);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  const std::string output = flags.Get("output", "graph.txt");
  if (Status s = graph->Save(output); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu edges (%zu nodes) to %s\n", graph->NumEdges(),
              graph->CountTouchedNodes(), output.c_str());
  return 0;
}

int RunExact(const Flags& flags) {
  auto list = LoadDatasetEdges(flags);
  if (!list.ok()) {
    std::fprintf(stderr, "error: %s\n", list.status().ToString().c_str());
    return 1;
  }
  // 4-clique enumeration is markedly more expensive than the oriented
  // triangle pass, so the motif oracles are opt-in: the triangle/wedge
  // oracle keeps its old cost on big graphs.
  const bool higher = flags.Has("higher-motifs");
  const ExactCounts counts =
      CountExact(CsrGraph::FromEdgeList(*list), higher);
  TextTable t({"statistic", "value"});
  t.AddRow({"triangles", CountCell(counts.triangles)});
  t.AddRow({"wedges", CountCell(counts.wedges)});
  t.AddRow({"clustering",
            FormatDouble(counts.ClusteringCoefficient(), 4)});
  if (higher) {
    t.AddRow({"4cliques", CountCell(counts.four_cliques)});
    t.AddRow({"3paths", CountCell(counts.three_paths)});
    t.AddRow({"4cycles", CountCell(counts.four_cycles)});
    t.AddRow({"5cliques", CountCell(counts.five_cliques)});
    t.AddRow({"tailed_triangles", CountCell(counts.tailed_triangles)});
  }
  std::printf("%s", t.ToString().c_str());
  return 0;
}

/// `convert`: text <-> GPS-STREAM binary, preserving stream order and
/// duplicates (a conversion must not resample or simplify — the binary
/// file is the SAME stream, just decoded). A binary write is reopened
/// and every block digest re-verified before the command reports
/// success, so a `convert` that returns 0 produced a readable file.
int RunConvert(const Flags& flags) {
  const std::string input = flags.Get("input", "");
  const std::string output = flags.Get("output", "");
  if (input.empty() || output.empty()) {
    std::fprintf(stderr,
                 "error: convert needs --input FILE and --output FILE\n");
    return 1;
  }
  if (Status s = CheckDatasetPath(input); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  auto in_format = ResolveInputFormat(flags, input);
  if (!in_format.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 in_format.status().ToString().c_str());
    return 1;
  }
  const std::string to = flags.Get("to", "auto");
  if (to != "auto" && to != "binary" && to != "text") {
    std::fprintf(stderr,
                 "error: unknown --to '%s' (expected auto, binary, or "
                 "text)\n",
                 to.c_str());
    return 1;
  }
  // --to auto converts to the OTHER format: text in -> binary out and
  // binary in -> text out. Same-format conversion (re-blocking, text
  // normalization) is allowed but must be asked for explicitly.
  const bool to_binary =
      to == "binary" ||
      (to == "auto" && *in_format == InputFormat::kText);
  uint64_t block_edges = kBinaryStreamDefaultBlockEdges;
  if (!GetPositiveFlag(flags, "block-edges", block_edges, &block_edges)) {
    return 1;
  }
  if (block_edges > kBinaryStreamMaxBlockEdges) {
    std::fprintf(stderr, "error: --block-edges must be in [1, %u]\n",
                 kBinaryStreamMaxBlockEdges);
    return 1;
  }

  auto list = LoadDatasetEdges(flags);
  if (!list.ok()) {
    std::fprintf(stderr, "error: %s\n", list.status().ToString().c_str());
    return 1;
  }

  // Throughput summary for the success paths: edges written, bytes on
  // disk, and the write+verify rate — so back-to-back conversions of the
  // same corpus show format overhead at a glance.
  const auto convert_start = std::chrono::steady_clock::now();
  auto print_throughput = [&](uint64_t edges) {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      convert_start)
            .count();
    std::error_code ec;
    const uint64_t bytes = std::filesystem::file_size(output, ec);
    std::printf("converted %llu edges (%llu bytes) in %.3f s: %.0f edges/s\n",
                static_cast<unsigned long long>(edges),
                static_cast<unsigned long long>(ec ? 0 : bytes), seconds,
                seconds > 0.0 ? static_cast<double>(edges) / seconds : 0.0);
  };

  if (to_binary) {
    BinaryStreamWriteOptions options;
    options.block_edges = static_cast<uint32_t>(block_edges);
    if (Status s = WriteBinaryStream(output, list->Edges(), options);
        !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    auto reader = BinaryStreamReader::Open(output);
    if (!reader.ok()) {
      std::fprintf(stderr, "convert verification failed: %s\n",
                   reader.status().ToString().c_str());
      return 1;
    }
    if (Status s = reader->VerifyAll(); !s.ok()) {
      std::fprintf(stderr, "convert verification failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %llu edges to %s (GPS-STREAM v%d, %zu blocks, "
                "digest-verified)\n",
                static_cast<unsigned long long>(reader->edge_count()),
                output.c_str(), BinaryStreamFormatVersion(),
                reader->num_blocks());
    print_throughput(reader->edge_count());
    return 0;
  }
  if (Status s = list->Save(output); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu edges to %s (text)\n", list->NumEdges(),
              output.c_str());
  print_throughput(list->NumEdges());
  return 0;
}

int RunListMotifs() {
  TextTable t({"name", "edges/instance", "description"});
  for (const MotifEntry& entry : MotifEntries()) {
    t.AddRow({entry.name, std::to_string(entry.num_edges),
              entry.description});
  }
  std::printf("%s", t.ToString().c_str());
  return 0;
}

int RunCorpus() {
  TextTable t({"name", "family", "analog of"});
  for (const CorpusEntry& e : CorpusEntries()) {
    t.AddRow({e.name, e.family, e.analog_of});
  }
  std::printf("%s", t.ToString().c_str());
  return 0;
}

/// On-disk format and build provenance, for compat triage: "can this
/// binary read that checkpoint?" is answered by comparing the manifest
/// format line here against the GPS-MANIFEST header version.
int RunVersion() {
  TextTable t({"component", "value"});
  t.AddRow({"manifest format",
            "v" + std::to_string(ManifestFormatVersion())});
  t.AddRow({"manifest min read",
            "v" + std::to_string(ManifestMinReadVersion())});
  t.AddRow({"estimator format",
            "v" + std::to_string(EstimatorFormatVersion())});
  t.AddRow({"stream format",
            "v" + std::to_string(BinaryStreamFormatVersion())});
  t.AddRow({"build type", GPS_BUILD_TYPE});
  t.AddRow({"metrics", MetricsEnabled() ? "on" : "off (GPS_METRICS=0)"});
  t.AddRow({"intersect simd", IntersectSimdLevel()});
  std::printf("%s", t.ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];

  std::vector<const char*> allowed;
  if (command == "estimate") {
    allowed = {"input",     "capacity",  "seed",   "weight",
               "estimator", "no-permute", "shards", "batch",
               "threads",   "checkpoint", "motifs", "degree",
               "steal",     "stats",      "stats-out", "trace",
               "mem",       "input-format", "routers", "pin"};
  } else if (command == "resume") {
    allowed = {"checkpoint", "input", "seed", "save", "no-permute",
               "input-format"};
  } else if (command == "resume-shards") {
    allowed = {"manifest", "input", "seed",
               "save",     "batch", "no-permute",
               "motifs",   "input-format"};
  } else if (command == "monitor") {
    allowed = {"input",  "capacity", "seed",
               "weight", "shards",   "batch",
               "every",  "output",   "checkpoint-every",
               "checkpoint", "no-permute", "motifs",
               "steal",  "stats",    "stats-out",
               "trace",  "mem",      "input-format",
               "routers", "pin"};
  } else if (command == "checkpoint-shards") {
    allowed = {"input", "capacity", "seed",      "weight",
               "shards", "batch",   "no-permute", "out",
               "motifs", "steal",   "mem",       "input-format",
               "routers", "pin"};
  } else if (command == "merge-checkpoints") {
    allowed = {"manifest"};
  } else if (command == "convert") {
    allowed = {"input", "output", "to", "block-edges", "input-format"};
  } else if (command == "generate") {
    allowed = {"name", "scale", "output"};
  } else if (command == "exact") {
    allowed = {"input", "higher-motifs", "input-format"};
  } else if (command == "corpus" || command == "list-motifs" ||
             command == "version") {
    allowed = {};
  } else {
    std::fprintf(stderr, "error: unknown subcommand '%s'\n",
                 command.c_str());
    return Usage();
  }

  auto flags = ParseFlags(argc, argv, 2, command, allowed);
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n", flags.status().ToString().c_str());
    return Usage();
  }
  if (command == "estimate") return RunEstimate(*flags);
  if (command == "resume") return RunResume(*flags);
  if (command == "resume-shards") return RunResumeShards(*flags);
  if (command == "monitor") return RunMonitor(*flags);
  if (command == "checkpoint-shards") return RunCheckpointShards(*flags);
  if (command == "merge-checkpoints") return RunMergeCheckpoints(*flags);
  if (command == "convert") return RunConvert(*flags);
  if (command == "generate") return RunGenerate(*flags);
  if (command == "exact") return RunExact(*flags);
  if (command == "corpus") return RunCorpus();
  if (command == "list-motifs") return RunListMotifs();
  if (command == "version") return RunVersion();
  return Usage();  // unreachable: the allowed-flags gate covers commands
}
