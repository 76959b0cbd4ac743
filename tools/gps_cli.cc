// gps_cli: command-line front end for the GPS library.
//
// Subcommands:
//   estimate  --input FILE [--capacity N] [--seed S] [--weight KIND]
//             [--estimator in-stream|post|both] [--shards K]
//             [--checkpoint DIR]
//       Stream the edge list (randomly permuted unless --no-permute)
//       through the sharded engine (K=1 by default: one shard, run on
//       this thread) and print triangle/wedge/clustering estimates with
//       95% CIs. With --checkpoint, the in-stream state is saved
//       afterwards into DIR: a GPS-MANIFEST file plus one GPS-INSTREAM
//       file per shard. Every post-stream pass runs on every CPU the
//       process may use (UsableCpus, the affinity mask); the output is
//       the same for any count.
//   resume-shards  --manifest FILE --input FILE [--save DIR]
//             [--no-permute]
//       Rebuild a RUNNING sharded engine from a checkpoint manifest (its
//       layout, weights and motif set come from the checkpoint) and
//       continue streaming. When --input is the exact remaining
//       substream in arrival order (pass --no-permute for a file that
//       is already ordered; the default permutes the file standalone),
//       the result is byte-identical to a run that was never
//       interrupted. --save re-checkpoints afterwards.
//   monitor   --input FILE --every N [estimate flags]
//             [--checkpoint-every M --checkpoint DIR]
//       Continuous-monitoring mode: cut the stream at every multiple of N
//       and emit a merged-estimate CSV row there (point estimates + 95% CI
//       bounds and widths), plus a final row at end of stream.
//       --checkpoint-every M additionally rewrites a resumable checkpoint
//       in DIR at every multiple of M and at the end of the stream.
//   merge-checkpoints  --manifest FILE
//       Resume a checkpoint and print the estimates the live run would
//       produce, without re-streaming.
//   convert   --input FILE --output FILE [--to auto|binary|text]
//       Convert an edge stream between the text format and GPS-STREAM v1
//       binary (graph/binary_stream.h), preserving stream order and
//       duplicates. Binary output is reopened and digest-verified before
//       the command reports success.
//   generate  --name CORPUS [--scale X] [--output FILE]
//       Materialize a corpus graph to an edge-list file.
//   exact     --input FILE [--higher-motifs]
//       Exact triangle/wedge/clustering counts (offline oracle);
//       --higher-motifs adds the 4-clique, 3-path, 4-cycle, 5-clique and
//       tailed-triangle counts.
//   corpus
//       List the paper-analog corpus.
//   list-motifs
//       List the motifs --motifs accepts, with their edges per instance.
//   version
//       Print the checkpoint format versions this build writes and reads,
//       the build type and the intersection kernels' SIMD level.
//
// Every --input is read as GPS-STREAM when the file starts with its
// magic, as a text edge list otherwise.
//
// Observability (estimate and monitor): --stats prints an aggregated
// metrics snapshot (ring backpressure, worker activity, sampling
// internals) after the run; --stats-out FILE writes it as JSON instead;
// --trace FILE records per-worker Chrome trace_event spans loadable in
// chrome://tracing or Perfetto. All observation-only: estimates are
// byte-identical with or without these flags.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/motifs.h"
#include "core/packed_store.h"
#include "core/serialize.h"
#include "engine/merge.h"
#include "engine/sharded_engine.h"
#include "gen/registry.h"
#include "graph/binary_stream.h"
#include "graph/csr_graph.h"
#include "graph/exact.h"
#include "graph/intersect.h"
#include "graph/stream.h"
#include "util/input_file.h"
#include "util/metrics.h"
#include "util/parse_bytes.h"
#include "util/staged_file.h"
#include "util/table.h"
#include "util/trace.h"

// Stamped by the build system (CMake passes the configured build type).
#ifndef GPS_BUILD_TYPE
#define GPS_BUILD_TYPE "unknown"
#endif

namespace {

using namespace gps;  // NOLINT

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
  // Every occurrence of a repeatable flag ("--degree 3 --degree 9");
  // any other flag holds one value (ParseFlags).
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
      "usage: gps_cli <estimate|resume-shards|monitor|merge-checkpoints"
      "|convert|generate|exact|corpus|list-motifs|version> [flags]\n"
      "  Streaming subcommands read --input as GPS-STREAM binary when the\n"
      "  file starts with its magic, as a text edge list otherwise.\n"
      "  Estimates are byte-identical across formats.\n"
      "  estimate --input FILE [--capacity N | --mem BYTES] [--seed S]\n"
      "           [--weight uniform|adjacency|triangle|triangle-wedge]\n"
      "           [--estimator in-stream|post|both] [--no-permute]\n"
      "           [--shards K]  (K at most the capacity)\n"
      "           [--motifs 4clique,3path,4cycle,5clique,tailed_triangle]\n"
      "           [--degree NODE ...]\n"
      "           [--stats] [--stats-out FILE.json] [--trace FILE.json]\n"
      "           [--checkpoint DIR]  (in-stream state: a manifest plus\n"
      "           one file per shard; resume-shards and merge-checkpoints\n"
      "           read it)\n"
      "           --mem BYTES (e.g. 512M, 2G): derive the reservoir\n"
      "           capacity from a memory budget instead of --capacity;\n"
      "           the allocation report prints on stderr at startup\n"
      "  resume-shards --manifest FILE --input FILE [--save DIR]\n"
      "           [--no-permute]\n"
      "  monitor  --input FILE --every N [--capacity N | --mem BYTES]\n"
      "           [--seed S] [--weight KIND] [--shards K]\n"
      "           [--motifs LIST]\n"
      "           [--no-permute] [--checkpoint-every M --checkpoint DIR]\n"
      "           [--stats] [--stats-out FILE.json] [--trace FILE.json]\n"
      "  merge-checkpoints --manifest FILE\n"
      "  convert  --input FILE --output FILE [--to auto|binary|text]\n"
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

/// The one flag that may be given more than once.
bool IsRepeatableFlag(const std::string& key) { return key == "degree"; }

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
    if (flags.Has(key) && !IsRepeatableFlag(key)) {
      return Status::InvalidArgument("flag '" + arg + "' given twice");
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

/// CLI-level preflight on --input before any parser runs, so the
/// classic unhelpful failures — pointing a subcommand at a directory, a
/// FIFO or an empty file — are refusals that name the problem, not a
/// generic parse error, a silent empty stream or a read that never
/// returns. InputFile::Open holds the regular-file rule.
Status CheckDatasetPath(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("missing --input FILE");
  }
  Result<InputFile> file = InputFile::Open(path);
  if (!file.ok()) return file.status();
  if (file->size() == 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is empty (0 bytes) — not an edge "
                                   "stream");
  }
  return Status::Ok();
}

/// Loads --input as an EdgeList in stream order (duplicates preserved),
/// from either format: GPS-STREAM when the file starts with its magic
/// (the strict text parser refuses those bytes, so no text edge list
/// does), text otherwise. Binary input goes through the digest-verified
/// block reader; both formats then share the SAME permute/simplify path
/// downstream, so estimates are byte-identical across a text file and
/// its GPS-STREAM conversion.
Result<EdgeList> LoadDatasetEdges(const Flags& flags) {
  const std::string path = flags.Get("input", "");
  if (Status s = CheckDatasetPath(path); !s.ok()) return s;
  if (LooksLikeBinaryStream(path)) {
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
    list->Simplify();
    return std::move(*list).TakeEdges();
  }
  auto seed = flags.GetU64("seed", 1);
  if (!seed.ok()) return seed.status();
  return MakePermutedStream(std::move(*list), *seed);
}

// ---- Shared estimate formatting ------------------------------------------
//
// Every estimate block the CLI prints — estimate, merge-checkpoints and
// resume-shards — renders through these helpers over util/table, so a
// statistic added in one place (a motif row, the edge count) shows up
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

/// The engine's merged block: its MergedEstimates, motif statistics and
/// edge count, as estimate, resume-shards and merge-checkpoints print it.
EstimateReport MergedReport(ShardedEngine& engine) {
  EstimateReport report = MakeReport(engine.MergedEstimates());
  report.motifs = engine.MergedMotifEstimates();
  report.edge_count = engine.MergedEdgeCountEstimate();
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
  // A motif's variance is the Σ Ŝ(Ŝ-1) lower bound (core/snapshot.h), so
  // its interval is marked and footnoted rather than passed off as 95%.
  for (const MotifEstimate& motif : report.motifs) {
    t.AddRow({"motif:" + motif.name, FormatDouble(motif.estimate.value, 0),
              CiCell(motif.estimate, 0) + "*"});
  }
  if (report.edge_count >= 0.0) {
    t.AddRow({"edges", CountCell(report.edge_count), "-"});
  }
  for (const auto& [node, degree] : report.degrees) {
    t.AddRow({"deg(" + std::to_string(node) + ")", CountCell(degree), "-"});
  }
  std::printf("%s", t.ToString().c_str());
  if (!report.motifs.empty()) {
    std::printf(
        "* variance lower bound (snapshot covariances left out): narrower "
        "than a 95%% CI\n");
  }
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

/// Options common to estimate and monitor.
struct ShardedRunConfig {
  GpsSamplerOptions sampler;
  uint64_t shards = 1;
  std::vector<std::string> motifs;
};

/// Parses and range-checks the sampler/sharding flags; false (after
/// printing the error) on any misparse or out-of-range value. `in_stream`
/// says whether the run keeps Algorithm 3's estimator, whose per-slot
/// records a `--mem` budget pays for.
bool ParseShardedRunConfig(const Flags& flags, size_t stream_size,
                           bool in_stream, ShardedRunConfig* out) {
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
    auto layout = DeriveStoreLayout(*budget, in_stream);
    if (!layout.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   layout.status().ToString().c_str());
      return false;
    }
    capacity = layout->capacity;
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
  // Every shard gets ceil(C/K) >= 1 slots, so K above the capacity would
  // sample K edges on a C-edge budget.
  if (out->shards > capacity) {
    std::fprintf(stderr,
                 "error: --shards %llu exceeds the capacity %llu %s; "
                 "every shard needs at least one slot of the budget\n",
                 static_cast<unsigned long long>(out->shards),
                 static_cast<unsigned long long>(capacity),
                 flags.Has("mem")        ? "that --mem derives"
                 : flags.Has("capacity") ? "set by --capacity"
                                         : "of the default (edges / 20 + 1)");
    return false;
  }
  out->sampler.capacity = capacity;
  return true;
}

/// Engine configuration implied by a parsed ShardedRunConfig; the single
/// place CLI flags map onto ShardedEngineOptions.
ShardedEngineOptions MakeEngineOptions(const ShardedRunConfig& config) {
  ShardedEngineOptions options;
  options.sampler = config.sampler;
  options.num_shards = static_cast<uint32_t>(config.shards);
  options.motifs = config.motifs;
  return options;
}

/// Constructs the run's engine in `*engine`. Each reservoir reserves its
/// slots up front, so a capacity the process cannot allocate fails here:
/// false after naming it, instead of aborting on std::bad_alloc.
bool ConstructEngine(const ShardedEngineOptions& options,
                     std::optional<ShardedEngine>* engine) {
  try {
    engine->emplace(options);
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr,
                 "error: cannot allocate a reservoir of capacity %zu: out "
                 "of memory (lower --capacity or --mem)\n",
                 options.sampler.capacity);
    return false;
  }
  return true;
}

/// Observability surface shared by estimate and monitor: a metrics
/// snapshot (stdout or file) and/or a Chrome trace_event capture.
struct StatsConfig {
  bool stats = false;
  std::string stats_out;
  std::string trace;
};

/// `path` with symlinks, `.` and `..` resolved as far as it exists, so
/// two spellings of one file compare equal.
std::filesystem::path ResolvedPath(const std::string& path) {
  std::error_code ec;
  std::filesystem::path resolved = std::filesystem::weakly_canonical(path, ec);
  return ec ? std::filesystem::path(path) : resolved;
}

/// Parses --stats / --stats-out / --trace. --stats-out implies --stats.
/// Both files are written after the run, so their targets are checked
/// here, before any input is read: a FIFO or a directory there, or a
/// target that names --input or the other output, fails the run at once,
/// not after the whole stream. Each output is renamed over its target,
/// so one naming the input would replace the edge list, and two naming
/// one file would leave only the second.
Result<StatsConfig> ParseStatsConfig(const Flags& flags) {
  StatsConfig config;
  config.stats = flags.Has("stats");
  config.stats_out = flags.Get("stats-out", "");
  config.trace = flags.Get("trace", "");
  if (!config.stats_out.empty()) config.stats = true;
  for (const std::string* target : {&config.stats_out, &config.trace}) {
    if (target->empty()) continue;
    if (Status s = CheckReplaceableTarget(*target); !s.ok()) return s;
  }
  const std::string input = flags.Get("input", "");
  const struct {
    const char* names;
    const std::string& a;
    const std::string& b;
  } pairs[] = {{"--stats-out and --input", config.stats_out, input},
               {"--trace and --input", config.trace, input},
               {"--trace and --stats-out", config.trace, config.stats_out}};
  for (const auto& [names, a, b] : pairs) {
    if (!a.empty() && !b.empty() && ResolvedPath(a) == ResolvedPath(b)) {
      return Status::InvalidArgument(std::string(names) +
                                     " name the same file '" + a + "'");
    }
  }
  return config;
}

/// --checkpoint and --save name the directory a run writes its
/// checkpoints into, after the stream or at a monitor's ticks: one that
/// exists and is not a directory fails the run here, before any input is
/// read. A missing directory is created at the first checkpoint.
bool CheckCheckpointDir(const Flags& flags, const std::string& key) {
  if (!flags.Has(key)) return true;
  const std::string dir = flags.Get(key, "");
  std::error_code ec;
  const std::filesystem::file_status status = std::filesystem::status(dir, ec);
  if (!std::filesystem::exists(status) ||
      std::filesystem::is_directory(status)) {
    return true;
  }
  std::fprintf(stderr, "error: --%s '%s' exists and is not a directory\n",
               key.c_str(), dir.c_str());
  return false;
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
      // Staged: a failed write leaves the previous file intact.
      Result<StagedFile> out = StagedFile::Create(config.stats_out);
      Status s = out.ok() ? out->Write(json + "\n") : out.status();
      if (s.ok()) s = out->Commit();
      if (!s.ok()) {
        std::fprintf(stderr, "error: cannot write metrics: %s\n",
                     s.ToString().c_str());
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

/// The banner and block labels of a run, picked from K alone so every
/// subcommand prints one text per layout. K=1 prints the serial
/// estimator's text, which perfbench/replay.cc prints too, byte for byte;
/// K>1 names the layout, with the engine's default batch size, and the
/// merge.
struct RunText {
  const char* in_stream_label;
  const char* post_stream_label;
  /// Banner tail after "stream: N edges, reservoir: C edges".
  std::string layout;
};

RunText TextForShards(uint64_t shards) {
  if (shards == 1) {
    return {"in-stream estimates (Algorithm 3)",
            "post-stream estimates (Algorithm 2)", ""};
  }
  return {"merged in-stream estimates (per-shard Algorithm 3 "
          "+ cross-shard correction)",
          "merged post-stream estimates (union sample)",
          ", " + std::to_string(shards) + " shards (batch " +
              std::to_string(ShardedEngineOptions{}.batch_size) + ")"};
}

int RunEstimate(const Flags& flags) {
  StatsConfig obs;
  if (!GetFlag(ParseStatsConfig(flags), &obs)) return 1;
  if (!CheckCheckpointDir(flags, "checkpoint")) return 1;
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
  const std::string estimator = flags.Get("estimator", "both");
  if (estimator != "in-stream" && estimator != "post" &&
      estimator != "both") {
    std::fprintf(stderr, "error: unknown estimator '%s'\n",
                 estimator.c_str());
    return 1;
  }
  ShardedRunConfig config;
  if (!ParseShardedRunConfig(flags, stream->size(), estimator != "post",
                             &config)) {
    return 1;
  }
  config.sampler.weight = *weight;

  std::vector<NodeId> degree_nodes;
  if (!GetDegreeNodes(flags, &degree_nodes)) return 1;

  if (!config.motifs.empty() && estimator == "post") {
    std::fprintf(stderr,
                 "error: motif statistics are in-stream only (drop "
                 "--estimator post or --motifs)\n");
    return 1;
  }
  if (flags.Has("checkpoint") && estimator == "post") {
    std::fprintf(stderr,
                 "error: checkpoints require in-stream shard estimators "
                 "(drop --estimator post)\n");
    return 1;
  }

  // K hash-partitioned shards with merged stratified estimates
  // (src/engine/); K=1 reproduces the serial estimator byte for byte.
  ShardedEngineOptions engine_options = MakeEngineOptions(config);
  if (estimator == "post") {
    // Post-only: run the cheaper bare samplers per shard and let the
    // engine's own merge branch do the post-stream pass.
    engine_options.merge_mode = MergeMode::kPostStreamMerged;
  }
  TraceEventSink trace_sink;
  engine_options.trace = obs.trace.empty() ? nullptr : &trace_sink;
  std::optional<ShardedEngine> built;
  if (!ConstructEngine(engine_options, &built)) return 1;
  ShardedEngine& engine = *built;
  const RunText text = TextForShards(config.shards);
  std::printf("stream: %zu edges, reservoir: %zu edges%s\n", stream->size(),
              config.sampler.capacity, text.layout.c_str());
  engine.ProcessEdges(std::span<const Edge>(*stream));
  engine.Finish();
  // Post-only runs print one block: the post-stream estimates, with no
  // motif rows (MergedMotifEstimates is empty without in-stream shards).
  // The HT edge/degree rows come from the same sample path either way.
  EstimateReport report = MergedReport(engine);
  for (const NodeId node : degree_nodes) {
    report.degrees.emplace_back(node, engine.MergedDegreeEstimate(node));
  }
  PrintEstimateReport(estimator == "post" ? text.post_stream_label
                                          : text.in_stream_label,
                      report);
  if (estimator == "both") {
    // The union the in-stream merge synced serves this pass too.
    PrintEstimateReport(text.post_stream_label,
                        MakeReport(engine.MergedPostStreamEstimates()));
  }
  if (flags.Has("checkpoint")) {
    const std::string dir = flags.Get("checkpoint", "");
    if (Status s = engine.SerializeShards(dir); !s.ok()) {
      std::fprintf(stderr, "checkpoint error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("sharded checkpoint written to %s (manifest %s)\n",
                dir.c_str(), kShardManifestFilename);
  }
  return EmitObservability(engine, obs, &trace_sink) ? 0 : 1;
}

/// Resumes the checkpoint --manifest names (merge-checkpoints and
/// resume-shards), reporting a missing flag or a refused checkpoint on
/// stderr; null then.
std::unique_ptr<ShardedEngine> ResumeManifest(const Flags& flags,
                                              const std::string& command) {
  if (!flags.Has("manifest")) {
    std::fprintf(stderr, "error: %s needs --manifest FILE\n",
                 command.c_str());
    return nullptr;
  }
  auto engine =
      ShardedEngine::ResumeFromCheckpoints(flags.Get("manifest", ""));
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return nullptr;
  }
  return std::move(*engine);
}

int RunMergeCheckpoints(const Flags& flags) {
  // The checkpointed prefix, merged as the live engine merged it: resume
  // it, feed nothing, finish.
  std::unique_ptr<ShardedEngine> engine =
      ResumeManifest(flags, "merge-checkpoints");
  if (engine == nullptr) return 1;
  engine->Finish();
  PrintEstimateReport(TextForShards(engine->num_shards()).in_stream_label,
                      MergedReport(*engine));
  return 0;
}

int RunResumeShards(const Flags& flags) {
  if (!CheckCheckpointDir(flags, "save")) return 1;
  std::unique_ptr<ShardedEngine> engine =
      ResumeManifest(flags, "resume-shards");
  if (engine == nullptr) return 1;
  auto stream = LoadStream(flags);
  if (!stream.ok()) {
    std::fprintf(stderr, "error: %s\n", stream.status().ToString().c_str());
    return 1;
  }
  std::printf("resumed %u shards at %llu processed edges; feeding %zu "
              "more\n",
              engine->num_shards(),
              static_cast<unsigned long long>(engine->edges_processed()),
              stream->size());
  engine->ProcessEdges(std::span<const Edge>(*stream));
  engine->Finish();
  PrintEstimateReport(TextForShards(engine->num_shards()).in_stream_label,
                      MergedReport(*engine));
  if (flags.Has("save")) {
    const std::string dir = flags.Get("save", "");
    if (Status s = engine->SerializeShards(dir); !s.ok()) {
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
/// <name>_ci_width` in suite order; that interval comes from the motif's
/// variance lower bound, so it is narrower than a 95% CI.
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

void PrintMonitorRow(const MonitorRecord& record) {
  const Estimate& tri = record.estimates.triangles;
  const Estimate& wed = record.estimates.wedges;
  const Estimate cc = record.estimates.ClusteringCoefficient();
  std::printf("%llu,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,"
              "%.17g,%.17g,%.17g",
              static_cast<unsigned long long>(record.edges_processed),
              tri.value, tri.Lower(), tri.Upper(), tri.Upper() - tri.Lower(),
              wed.value, wed.Lower(), wed.Upper(), wed.Upper() - wed.Lower(),
              cc.value, cc.Lower(), cc.Upper());
  for (const MotifEstimate& motif : record.motifs) {
    const Estimate& est = motif.estimate;
    std::printf(",%.17g,%.17g,%.17g,%.17g", est.value, est.Lower(),
                est.Upper(), est.Upper() - est.Lower());
  }
  std::printf("\n");
}

int RunMonitor(const Flags& flags) {
  StatsConfig obs;
  if (!GetFlag(ParseStatsConfig(flags), &obs)) return 1;
  if (!CheckCheckpointDir(flags, "checkpoint")) return 1;
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
  if (!ParseShardedRunConfig(flags, stream->size(), /*in_stream=*/true,
                             &config)) {
    return 1;
  }
  config.sampler.weight = *weight;

  if (!flags.Has("every")) {
    std::fprintf(stderr, "error: monitor needs --every N (edges between "
                         "estimate samples)\n");
    return 1;
  }
  uint64_t every = 0;
  if (!GetPositiveFlag(flags, "every", 1, &every)) return 1;

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

  TraceEventSink trace_sink;
  ShardedEngineOptions engine_options = MakeEngineOptions(config);
  engine_options.trace = obs.trace.empty() ? nullptr : &trace_sink;
  std::optional<ShardedEngine> built;
  if (!ConstructEngine(engine_options, &built)) return 1;
  ShardedEngine& engine = *built;

  std::printf("%s\n", MonitorCsvHeader(config.motifs).c_str());
  // The monitor owns its schedule: it cuts the stream at every absolute
  // multiple of --every (a row) and of --checkpoint-every (a checkpoint,
  // written after the row when both fall on one position) and feeds each
  // piece through ProcessEdges. Where the stream is cut never changes
  // the sample path.
  //
  // A failed checkpoint is sticky: warn the moment it happens — a
  // long-running monitor must not stream on for hours with a silently
  // stale checkpoint — stop checkpointing, so DIR keeps the last good
  // one, and still print every row before failing the run.
  Status checkpoint_status;
  const auto next_multiple = [&engine](uint64_t period) {
    return (engine.edges_processed() / period + 1) * period;
  };
  std::span<const Edge> remaining(*stream);
  while (!remaining.empty()) {
    const bool checkpointing = checkpoint_every != 0 && checkpoint_status.ok();
    uint64_t next = next_multiple(every);
    if (checkpointing) next = std::min(next, next_multiple(checkpoint_every));
    const size_t take = static_cast<size_t>(std::min<uint64_t>(
        remaining.size(), next - engine.edges_processed()));
    engine.ProcessEdges(remaining.first(take));
    remaining = remaining.subspan(take);
    const uint64_t at = engine.edges_processed();
    if (at % every == 0) PrintMonitorRow(engine.MergedRecord());
    if (checkpointing && at % checkpoint_every == 0) {
      checkpoint_status = engine.SerializeShards(checkpoint_dir);
      if (!checkpoint_status.ok()) {
        std::fprintf(stderr,
                     "checkpoint error (auto-checkpointing disabled): %s\n",
                     checkpoint_status.ToString().c_str());
      }
    }
  }
  engine.Finish();
  // The final row, unless a tick landed on the last edge. An empty stream
  // still gets its (zero-estimate) row: the time series always has at
  // least one data row.
  const uint64_t end = engine.edges_processed();
  const auto landed_at_end = [end](uint64_t period) {
    return end != 0 && end % period == 0;
  };
  if (!landed_at_end(every)) {
    PrintMonitorRow(engine.MergedRecord());
  }
  if (!checkpoint_status.ok()) return 1;
  // Leave the directory at the end-of-stream state so a resume continues
  // from where the monitor stopped, not the last period — skipped when a
  // periodic checkpoint already landed there (an identical rewrite would
  // only cost I/O and a needless republish window).
  if (checkpoint_every != 0 && !landed_at_end(checkpoint_every)) {
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
      to == "binary" || (to == "auto" && !LooksLikeBinaryStream(input));

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
    if (Status s = WriteBinaryStream(output, list->Edges()); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    auto reader = BinaryStreamReader::Open(output);
    if (Status s = reader.ok() ? reader->VerifyAll() : reader.status();
        !s.ok()) {
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
  t.AddRow({"shard-file format",
            "v" + std::to_string(ShardFileFormatVersion())});
  t.AddRow({"stream format",
            "v" + std::to_string(BinaryStreamFormatVersion())});
  t.AddRow({"build type", GPS_BUILD_TYPE});
  // Metrics are always compiled in; perfbench/run.py records this row.
  t.AddRow({"metrics", "on"});
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
    allowed = {"input",      "capacity",   "seed",   "weight",
               "estimator",  "no-permute", "shards", "checkpoint",
               "motifs",     "degree",     "stats",  "stats-out",
               "trace",      "mem"};
  } else if (command == "resume-shards") {
    allowed = {"manifest", "input", "seed", "save", "no-permute"};
  } else if (command == "monitor") {
    allowed = {"input",      "capacity",   "seed",
               "weight",     "shards",     "every",
               "checkpoint-every", "checkpoint",
               "no-permute", "motifs",     "stats",
               "stats-out",  "trace",      "mem"};
  } else if (command == "merge-checkpoints") {
    allowed = {"manifest"};
  } else if (command == "convert") {
    allowed = {"input", "output", "to"};
  } else if (command == "generate") {
    allowed = {"name", "scale", "output"};
  } else if (command == "exact") {
    allowed = {"input", "higher-motifs"};
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
  if (command == "resume-shards") return RunResumeShards(*flags);
  if (command == "monitor") return RunMonitor(*flags);
  if (command == "merge-checkpoints") return RunMergeCheckpoints(*flags);
  if (command == "convert") return RunConvert(*flags);
  if (command == "generate") return RunGenerate(*flags);
  if (command == "exact") return RunExact(*flags);
  if (command == "corpus") return RunCorpus();
  if (command == "list-motifs") return RunListMotifs();
  if (command == "version") return RunVersion();
  return Usage();  // unreachable: the allowed-flags gate covers commands
}
