// Tests for the distributed shard-checkpoint pipeline: SerializeShards,
// then the merge merge-checkpoints runs (ResumeFromCheckpoints, Finish,
// the merged estimates), must reproduce the live engine's merged
// estimates exactly (bit-for-bit, since checkpoints round-trip doubles
// exactly and the merge is the live code path), and corrupt or missing
// checkpoint files must fail with typed Status errors.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/serialize.h"
#include "engine/sharded_engine.h"
#include "engine_test_util.h"
#include "gen/generators.h"
#include "graph/stream.h"
#include "util/status.h"
#include "util/text_writer.h"

namespace gps {
namespace {

std::vector<Edge> TestStream(uint64_t seed) {
  EdgeList graph = GenerateBarabasiAlbert(400, 5, 0.4, seed).value();
  return MakePermutedStream(graph, seed + 1);
}

engine_test::ScopedTempDir FreshDir(const std::string& name) {
  return engine_test::ScopedTempDir("engine_ckpt", name);
}

ShardedEngineOptions EngineOptions(uint32_t num_shards, uint64_t seed) {
  ShardedEngineOptions options;
  options.sampler.capacity = 600;
  options.sampler.seed = seed;
  options.num_shards = num_shards;
  options.batch_size = 128;
  return options;
}

/// Streams, checkpoints into `dir`, and returns the live merged
/// estimates.
GraphEstimates RunAndCheckpoint(const std::vector<Edge>& stream,
                                const ShardedEngineOptions& options,
                                const std::filesystem::path& dir) {
  ShardedEngine engine(options);
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();
  const Status s = engine.SerializeShards(dir.string());
  EXPECT_TRUE(s.ok()) << s.ToString();
  return engine.MergedEstimates();
}

using engine_test::ExpectExactlyEqual;
using engine_test::ManifestPath;
using engine_test::MergeCheckpoints;

TEST(EngineCheckpointTest, MergeReproducesLiveEstimatesExactly) {
  const std::vector<Edge> stream = TestStream(701);
  for (const uint32_t k : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    const auto dir = FreshDir("k" + std::to_string(k));
    const GraphEstimates live =
        RunAndCheckpoint(stream, EngineOptions(k, 77), dir);
    auto merged = MergeCheckpoints(ManifestPath(dir));
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ExpectExactlyEqual(merged->graph, live);
  }
}

TEST(EngineCheckpointTest, RejectsShardFilesOfAnotherLayout) {
  // A manifest whose layout its shard files do not share is refused by
  // what disagrees, the digests notwithstanding: each shard file's seed
  // comes from the base seed and K, its capacity from the total, and it
  // holds its own weight configuration and motif set.
  const std::vector<Edge> stream = TestStream(721);
  const auto dir = FreshDir("layout");
  RunAndCheckpoint(stream, EngineOptions(4, 5), dir);
  const ShardManifest base = engine_test::ReadManifest(dir);

  ShardManifest k2 = base;
  k2.num_shards = 2;
  k2.digests.resize(2);
  ShardManifest seed = base;
  seed.base_seed = 6;
  ShardManifest capacity = base;
  capacity.total_capacity += 4;
  ShardManifest weight = base;
  weight.weight.kind = WeightKind::kUniform;
  ShardManifest motifs = base;
  motifs.motif_names = {"3path"};
  const struct {
    const char* name;
    const ShardManifest* manifest;
    const char* expect_substr;
  } kCases[] = {
      {"shard count", &k2, "seed does not match the layout derivation"},
      {"base seed", &seed, "seed does not match the layout derivation"},
      {"total capacity", &capacity, "capacity disagrees"},
      {"weight config", &weight, "weight configuration disagrees"},
      {"motif set", &motifs, "motif set disagrees"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    {
      std::ofstream out(ManifestPath(dir), std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(SerializeManifest(*c.manifest, StreamSink(out)).ok());
    }
    auto merged = MergeCheckpoints(ManifestPath(dir));
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(merged.status().message().find(c.expect_substr),
              std::string::npos)
        << merged.status().ToString();
  }
}

TEST(EngineCheckpointTest, RejectsCorruptShardFile) {
  const std::vector<Edge> stream = TestStream(731);
  const auto dir = FreshDir("corrupt");
  RunAndCheckpoint(stream, EngineOptions(2, 13), dir);
  {
    std::ofstream out(engine_test::ShardPath(dir, 0),
                      std::ios::binary | std::ios::app);
    out << "tamper";
  }
  auto merged = MergeCheckpoints(ManifestPath(dir));
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(merged.status().message().find("digest"), std::string::npos)
      << merged.status().ToString();
}

TEST(EngineCheckpointTest, RejectsMissingShardFile) {
  const std::vector<Edge> stream = TestStream(741);
  const auto dir = FreshDir("missing");
  RunAndCheckpoint(stream, EngineOptions(2, 17), dir);
  std::filesystem::remove(engine_test::ShardPath(dir, 1));
  auto merged = MergeCheckpoints(ManifestPath(dir));
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kNotFound);
}

TEST(EngineCheckpointTest, PostStreamShardsCannotCheckpoint) {
  const std::vector<Edge> stream = TestStream(751);
  ShardedEngineOptions options = EngineOptions(2, 19);
  options.merge_mode = MergeMode::kPostStreamMerged;
  ShardedEngine engine(options);
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();
  const auto dir = FreshDir("post");
  const Status s = engine.SerializeShards(dir.string());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(EngineCheckpointTest, MidStreamCheckpointKeepsEngineUsable) {
  // SerializeShards drains but does not finish: a checkpoint taken midway
  // must reflect the prefix only, and the engine must keep streaming to
  // the same final state as an uninterrupted run.
  const std::vector<Edge> stream = TestStream(761);
  const auto dir = FreshDir("mid");
  const ShardedEngineOptions options = EngineOptions(4, 23);

  ShardedEngine engine(options);
  const size_t half = stream.size() / 2;
  for (size_t i = 0; i < half; ++i) engine.Process(stream[i]);
  ASSERT_TRUE(engine.SerializeShards(dir.string()).ok());
  for (size_t i = half; i < stream.size(); ++i) engine.Process(stream[i]);
  engine.Finish();
  const GraphEstimates full_live = engine.MergedEstimates();

  // The mid-stream checkpoint merges to the prefix-only estimates.
  ShardedEngine prefix_engine(options);
  for (size_t i = 0; i < half; ++i) prefix_engine.Process(stream[i]);
  prefix_engine.Finish();
  auto merged = MergeCheckpoints(ManifestPath(dir));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ExpectExactlyEqual(merged->graph, prefix_engine.MergedEstimates());

  // And the interrupted engine's final state matches an uninterrupted run.
  ShardedEngine uninterrupted(options);
  for (const Edge& e : stream) uninterrupted.Process(e);
  uninterrupted.Finish();
  ExpectExactlyEqual(full_live, uninterrupted.MergedEstimates());
}

TEST(EngineCheckpointTest, FailedCheckpointDoesNotClobberExisting) {
  // A rejected re-checkpoint must fail BEFORE touching the directory: a
  // previous valid checkpoint there stays loadable.
  const std::vector<Edge> stream = TestStream(771);
  const auto dir = FreshDir("noclobber");
  const GraphEstimates live =
      RunAndCheckpoint(stream, EngineOptions(2, 29), dir);

  ShardedEngineOptions bad = EngineOptions(2, 29);
  bad.sampler.weight.kind = WeightKind::kCustom;
  bad.sampler.weight.custom = [](const Edge&, const SampledGraph&) {
    return 1.0;
  };
  ShardedEngine engine(bad);
  for (size_t i = 0; i < 100 && i < stream.size(); ++i) {
    engine.Process(stream[i]);
  }
  engine.Finish();
  const Status s = engine.SerializeShards(dir.string());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);

  auto merged = MergeCheckpoints(ManifestPath(dir));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ExpectExactlyEqual(merged->graph, live);
}

std::string ReadFileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// Names of the `*.tmp` entries in `dir`.
std::vector<std::string> TempEntries(const std::filesystem::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") {
      names.push_back(entry.path().filename().string());
    }
  }
  return names;
}

TEST(EngineCheckpointTest, ShardFilesAreSerializerBytesWithTheirDigests) {
  // The K files are written on several threads, streamed in chunks with
  // the digest chained over them; each must still be exactly what the
  // single-estimator serializer writes for its shard, under the digest of
  // its whole bytes. K=8 has more shards than a small host has threads,
  // so one thread writes several; the capacity spans several 64 KiB
  // chunks per file.
  EdgeList graph = GenerateBarabasiAlbert(3000, 6, 0.4, 801).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 802);
  for (const uint32_t k : {1u, 4u, 8u}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    ShardedEngineOptions options = EngineOptions(k, 43);
    options.sampler.capacity = 12000;
    options.motifs = {"4clique"};
    const auto dir = FreshDir("bytes-k" + std::to_string(k));
    ShardedEngine engine(options);
    for (const Edge& e : stream) engine.Process(e);
    engine.Finish();
    ASSERT_TRUE(engine.SerializeShards(dir.string()).ok());

    const ShardManifest manifest = engine_test::ReadManifest(dir);
    ASSERT_EQ(manifest.digests.size(), k);
    for (uint32_t s = 0; s < k; ++s) {
      const std::string name = ShardFileName(s, manifest.digests[s]);
      const std::string bytes = ReadFileBytes(dir / name);
      const ShardWorker& shard = engine.shard(s);
      std::ostringstream want;
      ASSERT_TRUE(SerializeInStreamEstimator(shard.in_stream_estimator(),
                                             shard.motif_suite(),
                                             StreamSink(want))
                      .ok());
      EXPECT_EQ(bytes, want.str()) << name;
      EXPECT_EQ(manifest.digests[s], ChecksumBytes(bytes)) << name;
    }
    EXPECT_GT(ReadFileBytes(engine_test::ShardPath(dir, 0)).size(),
              TextWriter::kChunkBytes);
    EXPECT_TRUE(TempEntries(dir).empty());
  }
}

TEST(EngineCheckpointTest, FailedShardWriteKeepsOldCheckpointAndNoTemp) {
  // A directory squatting on one shard's temp name makes that shard's
  // writer fail mid-checkpoint, after its peers have staged their files.
  // The error names the file, every staged temp file is removed, and the
  // previous checkpoint still merges to its live run bit for bit.
  const std::vector<Edge> stream = TestStream(811);
  const auto dir = FreshDir("squatted");
  const GraphEstimates live =
      RunAndCheckpoint(stream, EngineOptions(4, 47), dir);
  const std::filesystem::path squatter = dir / "shard-0002.gps.tmp";
  ASSERT_TRUE(std::filesystem::create_directory(squatter));

  ShardedEngine engine(EngineOptions(4, 53));
  for (size_t i = 0; i < stream.size() / 2; ++i) engine.Process(stream[i]);
  const Status s = engine.SerializeShards(dir.string());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("shard-0002.gps.tmp"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(TempEntries(dir),
            std::vector<std::string>{"shard-0002.gps.tmp"});  // ours only

  std::filesystem::remove(squatter);
  auto merged = MergeCheckpoints(ManifestPath(dir));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ExpectExactlyEqual(merged->graph, live);
}

TEST(EngineCheckpointTest, MotifCheckpointsMergeExactly) {
  // A motif-configured run checkpoints each shard's motif accumulators
  // into its shard file; the merge must reproduce the live merged motif
  // estimates and edge count bit for bit, at every K.
  const std::vector<Edge> stream = TestStream(781);
  for (const uint32_t k : {1u, 2u, 4u}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    ShardedEngineOptions options = EngineOptions(k, 31);
    options.motifs = {"4cycle", "4clique", "3path"};
    const auto dir = FreshDir("motif-k" + std::to_string(k));

    ShardedEngine engine(options);
    for (const Edge& e : stream) engine.Process(e);
    engine.Finish();
    ASSERT_TRUE(engine.SerializeShards(dir.string()).ok());
    const GraphEstimates live = engine.MergedEstimates();
    const std::vector<MotifEstimate> live_motifs =
        engine.MergedMotifEstimates();
    const double live_edges = engine.MergedEdgeCountEstimate();

    auto merged = MergeCheckpoints(ManifestPath(dir));
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ExpectExactlyEqual(merged->graph, live);
    engine_test::ExpectMotifsExactlyEqual(merged->motifs, live_motifs);
    EXPECT_EQ(merged->edge_count, live_edges);
  }
}

/// `text` cut after every '\n'; the last piece lacks one when the text
/// does not end in a newline.
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  for (size_t pos = 0; pos < text.size();) {
    const size_t end = std::min(text.find('\n', pos), text.size() - 1) + 1;
    lines.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line;
  return text;
}

/// The kinds of damage the mutation test applies to a checkpoint file.
enum class Mutation { kByteFlip, kTruncate, kDelete, kDuplicate, kSplice,
                      kVersion };

/// `text` with one seeded mutation of kind `kind`; kSplice copies a line
/// of `donor` over one of the text's lines, kVersion sets the header's
/// version digit to 1-9.
std::string Mutate(Mutation kind, const std::string& text,
                   const std::string& donor, std::mt19937_64& rng) {
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng() % n);
  };
  std::string out = text;
  std::vector<std::string> lines = SplitLines(text);
  switch (kind) {
    case Mutation::kByteFlip:
      out[pick(out.size())] ^= static_cast<char>(1u << pick(8));
      return out;
    case Mutation::kTruncate:
      out.resize(pick(out.size()));
      return out;
    case Mutation::kDelete:
      lines.erase(lines.begin() + static_cast<long>(pick(lines.size())));
      return JoinLines(lines);
    case Mutation::kDuplicate: {
      const size_t at = pick(lines.size());
      lines.insert(lines.begin() + static_cast<long>(at), lines[at]);
      return JoinLines(lines);
    }
    case Mutation::kSplice: {
      const std::vector<std::string> donor_lines = SplitLines(donor);
      lines[pick(lines.size())] = donor_lines[pick(donor_lines.size())];
      return JoinLines(lines);
    }
    case Mutation::kVersion:
      out[out.find('\n') - 1] = static_cast<char>('1' + pick(9));
      return out;
  }
  return out;
}

/// Overwrites `path` with `bytes`.
void WriteFileBytes(const std::filesystem::path& path,
                    const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(EngineCheckpointTest, SeededMutantsEndInAStatus) {
  // Checkpoints are untrusted input. Seeded mutants of real K=2
  // checkpoints, without and with a motif suite — byte flips,
  // truncations, deleted, duplicated and spliced lines, other header
  // versions — must each end in a Status from the merge: no abort, no
  // sanitizer report. The digests bind the shard files, and with them
  // every per-shard value, motif accumulators included, so every
  // shard-file mutant is refused by its digest; a manifest of any version
  // but 6 is refused by name; a manifest mutant the reader accepts
  // (whitespace, a trailing line) merges to the live graph and motif
  // estimates.
  const std::vector<Edge> stream = TestStream(891);
  for (const std::vector<std::string>& motifs :
       {std::vector<std::string>{},
        std::vector<std::string>{"3path", "4clique"}}) {
    SCOPED_TRACE(std::to_string(motifs.size()) + " motifs");
    const auto dir =
        FreshDir("mutants-" + std::to_string(motifs.size()) + "motifs");
    ShardedEngineOptions options = EngineOptions(2, 61);
    options.motifs = motifs;
    ShardedEngine engine(options);
    for (const Edge& e : stream) engine.Process(e);
    engine.Finish();
    ASSERT_TRUE(engine.SerializeShards(dir.string()).ok());
    const GraphEstimates live = engine.MergedEstimates();
    const std::vector<MotifEstimate> live_motifs =
        engine.MergedMotifEstimates();
    const std::string manifests = ManifestPath(dir);
    auto original = MergeCheckpoints(manifests);
    ASSERT_TRUE(original.ok()) << original.status().ToString();
    ExpectExactlyEqual(original->graph, live);
    engine_test::ExpectMotifsExactlyEqual(original->motifs, live_motifs);

    const std::filesystem::path files[] = {
        ManifestPath(dir), engine_test::ShardPath(dir, 0),
        engine_test::ShardPath(dir, 1)};
    std::vector<std::string> bytes;
    for (const std::filesystem::path& file : files) {
      bytes.push_back(ReadFileBytes(file));
    }
    std::mt19937_64 rng(20171024);
    for (size_t f = 0; f < 3; ++f) {
      // The manifest takes its spliced lines from shard 1's file, each
      // shard file from the other one.
      const std::string& donor = bytes[f == 1 ? 2 : 1];
      int tried = 0;
      while (tried < 200) {
        const auto kind = static_cast<Mutation>(rng() % 6);
        const std::string mutant = Mutate(kind, bytes[f], donor, rng);
        if (mutant == bytes[f]) continue;
        ++tried;
        SCOPED_TRACE(files[f].filename().string() + " mutant " +
                     std::to_string(tried) + " (kind " +
                     std::to_string(static_cast<int>(kind)) + ")");
        WriteFileBytes(files[f], mutant);

        auto merged = MergeCheckpoints(manifests);
        if (f > 0) {
          ASSERT_FALSE(merged.ok());
          EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
          EXPECT_NE(merged.status().message().find(
                        "digest mismatch for shard file"),
                    std::string::npos)
              << merged.status().ToString();
        } else if (kind == Mutation::kVersion) {
          ASSERT_FALSE(merged.ok());
          EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
          EXPECT_NE(merged.status().message().find("version"),
                    std::string::npos)
              << merged.status().ToString();
        } else if (merged.ok()) {
          ExpectExactlyEqual(merged->graph, live);
          engine_test::ExpectMotifsExactlyEqual(merged->motifs, live_motifs);
          EXPECT_EQ(merged->edge_count, original->edge_count);
        }
      }
      WriteFileBytes(files[f], bytes[f]);
    }
    auto restored = MergeCheckpoints(manifests);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectExactlyEqual(restored->graph, live);
  }
}

TEST(EngineCheckpointTest, EveryShardValueIsBoundByItsFileDigest) {
  // The motif accumulators live in the shard files, inside the digest the
  // manifest records; the manifest holds the layout and the digests. So
  // an edited accumulator is refused by the digest, a manifest motif set
  // that disagrees with the files is refused by name, and a version-1
  // shard file is refused by its version even under a digest that
  // vouches for it (engine_resume_test refuses a version-5 manifest). A
  // motif set naming the generic "tri" or "wedge" motifs, which this
  // build does not register, is refused by that name in either file.
  const std::vector<Edge> stream = TestStream(901);
  const auto dir = FreshDir("bound");
  ShardedEngineOptions options = EngineOptions(2, 67);
  options.motifs = {"3path", "4clique"};
  ShardedEngine engine(options);
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();
  ASSERT_TRUE(engine.SerializeShards(dir.string()).ok());
  const std::string manifests = ManifestPath(dir);
  const std::filesystem::path shard0 = engine_test::ShardPath(dir, 0);
  const std::string shard_bytes = ReadFileBytes(shard0);
  const std::string manifest_bytes = ReadFileBytes(ManifestPath(dir));
  ShardManifest manifest;
  {
    std::istringstream in(manifest_bytes);
    auto parsed = DeserializeManifest(in);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    manifest = *parsed;
  }
  // Writes `bytes` as shard 0's file under its digest name and a manifest
  // that vouches for it: a re-sealed edit only the layout checks can see.
  const auto reseal = [&](const std::string& bytes) {
    ShardManifest vouching = manifest;
    vouching.digests[0] = ChecksumBytes(bytes);
    WriteFileBytes(dir / ShardFileName(0, vouching.digests[0]), bytes);
    std::ofstream out(ManifestPath(dir), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(SerializeManifest(vouching, StreamSink(out)).ok());
  };
  const auto expect_refused = [&](StatusCode code, const std::string& what) {
    auto merged = MergeCheckpoints(manifests);
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.status().code(), code) << merged.status().ToString();
    EXPECT_NE(merged.status().message().find(what), std::string::npos)
        << merged.status().ToString();
  };

  {
    SCOPED_TRACE("raised 3path count in shard 0's file");
    std::vector<std::string> lines = SplitLines(shard_bytes);
    // Line 4: "2 3path <count> <variance> <snapshots> 4clique ...".
    std::string& motif_line = lines[3];
    ASSERT_EQ(motif_line.rfind("2 3path ", 0), 0u) << motif_line;
    const size_t lead = 8;  // the count's leading digit, raised by one
    ASSERT_TRUE(motif_line[lead] >= '0' && motif_line[lead] <= '9')
        << motif_line;
    if (motif_line[lead] == '9') {
      motif_line.insert(lead, "1");
    } else {
      ++motif_line[lead];
    }
    WriteFileBytes(shard0, JoinLines(lines));
    expect_refused(StatusCode::kInvalidArgument,
                   "digest mismatch for shard file");
    WriteFileBytes(shard0, shard_bytes);
  }
  {
    SCOPED_TRACE("manifest motif renamed to another registered one");
    std::string text = manifest_bytes;
    const std::string names = "\n2 3path 4clique\n";
    const size_t at = text.find(names);
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, names.size(), "\n2 4cycle 4clique\n");
    WriteFileBytes(ManifestPath(dir), text);
    expect_refused(StatusCode::kInvalidArgument, "motif set");
  }
  {
    SCOPED_TRACE("manifest motif set naming tri");
    std::string text = manifest_bytes;
    const std::string names = "\n2 3path 4clique\n";
    const size_t at = text.find(names);
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, names.size(), "\n2 tri 4clique\n");
    WriteFileBytes(ManifestPath(dir), text);
    expect_refused(StatusCode::kInvalidArgument,
                   "manifest motif set: unknown motif 'tri'");
  }
  WriteFileBytes(ManifestPath(dir), manifest_bytes);
  {
    SCOPED_TRACE("shard file naming wedge under a recomputed digest");
    std::vector<std::string> lines = SplitLines(shard_bytes);
    std::string& motif_line = lines[3];
    ASSERT_EQ(motif_line.rfind("2 3path ", 0), 0u) << motif_line;
    motif_line.replace(0, 8, "2 wedge ");
    reseal(JoinLines(lines));
    expect_refused(StatusCode::kInvalidArgument,
                   "checkpoint motif set: unknown motif 'wedge'");
  }
  {
    SCOPED_TRACE("version-1 shard file under a digest that vouches for it");
    std::vector<std::string> lines = SplitLines(shard_bytes);
    ASSERT_EQ(lines[0], "GPS-INSTREAM 2\n");
    lines[0] = "GPS-INSTREAM 1\n";
    lines.erase(lines.begin() + 3);  // version 1 had no motif line
    reseal(JoinLines(lines));
    expect_refused(StatusCode::kInvalidArgument,
                   "unsupported checkpoint version 1 for GPS-INSTREAM");
  }
  WriteFileBytes(ManifestPath(dir), manifest_bytes);
  auto merged = MergeCheckpoints(manifests);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  engine_test::ExpectMotifsExactlyEqual(merged->motifs,
                                        engine.MergedMotifEstimates());
}

}  // namespace
}  // namespace gps
