// Resume determinism regression tests for the sharded engine.
//
// Contract: interrupt a sharded run at ANY stream offset, checkpoint,
// ResumeFromCheckpoints, feed the suffix — and the per-shard reservoirs
// and merged estimates are byte-identical to a run that was never
// interrupted, for K in {1, 2, 4, 8} and independent of the resumed
// engine's batch size. Manifest-version compatibility: version-1
// manifests (no stream offset) still resume via the derived per-shard
// arrival sum; unknown future versions fail with a typed error.

#include <filesystem>
#include <fstream>
#include <memory>
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
  EdgeList graph = GenerateBarabasiAlbert(500, 5, 0.4, seed).value();
  return MakePermutedStream(graph, seed + 1);
}

std::filesystem::path FreshDir(const std::string& name) {
  return engine_test::FreshDir("engine_resume", name);
}

ShardedEngineOptions EngineOptions(uint32_t num_shards, uint64_t seed) {
  ShardedEngineOptions options;
  options.sampler.capacity = 700;
  options.sampler.seed = seed;
  options.num_shards = num_shards;
  options.batch_size = 128;
  return options;
}

using engine_test::ExpectExactlyEqual;
using engine_test::ManifestPath;
using engine_test::ReservoirBytes;

/// Streams [0, cut) through a fresh engine, checkpoints into `dir`, and
/// returns the path of the manifest written there.
std::string CheckpointPrefix(const std::vector<Edge>& stream, size_t cut,
                             const ShardedEngineOptions& options,
                             const std::filesystem::path& dir) {
  ShardedEngine engine(options);
  for (size_t i = 0; i < cut; ++i) engine.Process(stream[i]);
  const Status s = engine.SerializeShards(dir.string());
  EXPECT_TRUE(s.ok()) << s.ToString();
  return ManifestPath(dir);
}

TEST(EngineResumeTest, ResumedRunByteIdenticalToUninterrupted) {
  const std::vector<Edge> stream = TestStream(801);
  for (const uint32_t k : {1u, 2u, 4u, 8u}) {
    const ShardedEngineOptions options = EngineOptions(k, 31);

    ShardedEngine uninterrupted(options);
    for (const Edge& e : stream) uninterrupted.Process(e);
    uninterrupted.Finish();
    const GraphEstimates expected = uninterrupted.MergedEstimates();

    // Interrupt at the start, a quarter, half, and one edge short of the
    // end — the resumed engine must replay the suffix onto the restored
    // state exactly. A deliberately different batch size shows transport
    // granularity does not affect the sample path.
    for (const size_t cut : {size_t{0}, stream.size() / 4,
                             stream.size() / 2, stream.size() - 1}) {
      SCOPED_TRACE("K=" + std::to_string(k) +
                   " cut=" + std::to_string(cut));
      const std::filesystem::path dir =
          FreshDir("k" + std::to_string(k) + "_c" + std::to_string(cut));
      const std::string manifest =
          CheckpointPrefix(stream, cut, options, dir);

      ShardedResumeOptions resume_options;
      resume_options.batch_size = 37;
      auto resumed = ShardedEngine::ResumeFromCheckpoints(
          std::vector<std::string>{manifest}, resume_options);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      EXPECT_EQ((*resumed)->num_shards(), k);
      EXPECT_EQ((*resumed)->edges_processed(), cut);

      for (size_t i = cut; i < stream.size(); ++i) {
        (*resumed)->Process(stream[i]);
      }
      (*resumed)->Finish();
      EXPECT_EQ((*resumed)->edges_processed(), stream.size());
      ExpectExactlyEqual((*resumed)->MergedEstimates(), expected);
      for (uint32_t s = 0; s < k; ++s) {
        EXPECT_EQ(ReservoirBytes((*resumed)->shard(s).reservoir()),
                  ReservoirBytes(uninterrupted.shard(s).reservoir()))
            << "shard " << s;
      }
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(EngineResumeTest, RepeatsAndLoopsCountAsArrivals) {
  // Shards count a repeated edge or a self loop as an arrival even though
  // they skip it, so the checkpoint's per-shard arrival counts add up to
  // the manifest's stream offset and the run resumes. Here the cut falls
  // after 300 distinct edges plus one repeat (reversed) and one loop.
  const std::vector<Edge> base = TestStream(831);
  ASSERT_GT(base.size(), 600u);
  std::vector<Edge> stream(base.begin(), base.begin() + 150);
  stream.push_back(Edge{base[40].v, base[40].u});
  stream.insert(stream.end(), base.begin() + 150, base.begin() + 250);
  stream.push_back(Edge{base[7].u, base[7].u});
  stream.insert(stream.end(), base.begin() + 250, base.end());
  const size_t cut = 302;
  const ShardedEngineOptions options = EngineOptions(2, 47);

  ShardedEngine uninterrupted(options);
  for (const Edge& e : stream) uninterrupted.Process(e);
  uninterrupted.Finish();

  const std::filesystem::path dir = FreshDir("repeats");
  const std::string manifest = CheckpointPrefix(stream, cut, options, dir);
  auto resumed = ShardedEngine::ResumeFromCheckpoints(
      std::vector<std::string>{manifest});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ((*resumed)->edges_processed(), cut);
  for (size_t i = cut; i < stream.size(); ++i) (*resumed)->Process(stream[i]);
  (*resumed)->Finish();
  EXPECT_EQ((*resumed)->edges_processed(), stream.size());
  ExpectExactlyEqual((*resumed)->MergedEstimates(),
                     uninterrupted.MergedEstimates());
  for (uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(ReservoirBytes((*resumed)->shard(s).reservoir()),
              ReservoirBytes(uninterrupted.shard(s).reservoir()))
        << "shard " << s;
  }
  std::filesystem::remove_all(dir);
}

TEST(EngineResumeTest, ChainedResumeMatchesUninterrupted) {
  // checkpoint -> resume -> checkpoint -> resume: interruption is
  // composable, as for the serial `resume --save` path.
  const std::vector<Edge> stream = TestStream(811);
  const ShardedEngineOptions options = EngineOptions(4, 41);

  ShardedEngine uninterrupted(options);
  for (const Edge& e : stream) uninterrupted.Process(e);
  uninterrupted.Finish();

  const size_t third = stream.size() / 3;
  const std::filesystem::path dir1 = FreshDir("hop1");
  const std::filesystem::path dir2 = FreshDir("hop2");
  const std::string manifest1 =
      CheckpointPrefix(stream, third, options, dir1);

  auto hop = ShardedEngine::ResumeFromCheckpoints(
      std::vector<std::string>{manifest1});
  ASSERT_TRUE(hop.ok()) << hop.status().ToString();
  for (size_t i = third; i < 2 * third; ++i) (*hop)->Process(stream[i]);
  ASSERT_TRUE((*hop)->SerializeShards(dir2.string()).ok());

  auto final_hop = ShardedEngine::ResumeFromCheckpoints(
      std::vector<std::string>{ManifestPath(dir2)});
  ASSERT_TRUE(final_hop.ok()) << final_hop.status().ToString();
  EXPECT_EQ((*final_hop)->edges_processed(), 2 * third);
  for (size_t i = 2 * third; i < stream.size(); ++i) {
    (*final_hop)->Process(stream[i]);
  }
  (*final_hop)->Finish();
  ExpectExactlyEqual((*final_hop)->MergedEstimates(),
                     uninterrupted.MergedEstimates());
  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir2);
}

TEST(EngineResumeTest, ResumeRestoresMonitoringCadence) {
  // EstimateEvery fires at absolute stream positions, so a resumed
  // monitor keeps the uninterrupted run's sampling schedule and values.
  // The monitored run checkpoints itself (CheckpointEvery) on the writer
  // threads every 2.5 ticks: every second checkpoint lands on a tick, and
  // the last one — the resume cut — falls between two ticks, so the
  // resumed engine must wait for the next absolute multiple of kEvery
  // rather than count a fresh interval from the cut.
  const std::vector<Edge> stream = TestStream(821);
  constexpr uint64_t kEvery = 300;
  constexpr uint64_t kCheckpointEvery = 750;
  const size_t cut = stream.size() / kCheckpointEvery * kCheckpointEvery;
  ASSERT_GE(cut, 2 * kCheckpointEvery);  // one checkpoint on a tick
  ASSERT_NE(cut % kEvery, 0u);           // the resume cut between ticks
  for (const uint32_t k : {2u, 4u}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    const ShardedEngineOptions options = EngineOptions(k, 43);
    const std::filesystem::path dir = FreshDir("monitor-k" + std::to_string(k));

    std::vector<MonitorRecord> full_records;
    ShardedEngine full(options);
    full.EstimateEvery(
        kEvery, [&](const MonitorRecord& r) { full_records.push_back(r); });
    ASSERT_TRUE(full.CheckpointEvery(kCheckpointEvery, dir.string()).ok());
    for (const Edge& e : stream) full.Process(e);
    full.Finish();
    ASSERT_TRUE(full.auto_checkpoint_status().ok())
        << full.auto_checkpoint_status().ToString();

    auto resumed = ShardedEngine::ResumeFromCheckpoints(
        std::vector<std::string>{ManifestPath(dir)});
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ((*resumed)->edges_processed(), cut);
    std::vector<MonitorRecord> tail_records;
    (*resumed)->EstimateEvery(
        kEvery, [&](const MonitorRecord& r) { tail_records.push_back(r); });
    for (size_t i = cut; i < stream.size(); ++i) {
      (*resumed)->Process(stream[i]);
    }
    (*resumed)->Finish();

    size_t expected_tail = 0;
    for (const MonitorRecord& r : full_records) {
      if (r.edges_processed > cut) ++expected_tail;
    }
    ASSERT_GT(expected_tail, 0u);
    ASSERT_EQ(tail_records.size(), expected_tail);
    EXPECT_EQ(tail_records.front().edges_processed,
              (cut / kEvery + 1) * kEvery);
    for (size_t i = 0; i < tail_records.size(); ++i) {
      const MonitorRecord& want =
          full_records[full_records.size() - expected_tail + i];
      EXPECT_EQ(tail_records[i].edges_processed, want.edges_processed);
      ExpectExactlyEqual(tail_records[i].estimates, want.estimates);
    }
    ExpectExactlyEqual((*resumed)->MergedEstimates(), full.MergedEstimates());
    std::filesystem::remove_all(dir);
  }
}

TEST(EngineResumeTest, MotifSuiteResumesByteIdentically) {
  // The v3 manifest carries the motif accumulators; a resumed run must
  // continue the suite mid-stream and land on exactly the uninterrupted
  // run's motif estimates (estimation is deterministic given the sample
  // path, and the sample path round-trips exactly).
  const std::vector<Edge> stream = TestStream(851);
  for (const uint32_t k : {1u, 4u}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    ShardedEngineOptions options = EngineOptions(k, 59);
    options.motifs = {"tri", "4clique", "3path"};

    ShardedEngine uninterrupted(options);
    for (const Edge& e : stream) uninterrupted.Process(e);
    uninterrupted.Finish();
    const std::vector<MotifEstimate> expected =
        uninterrupted.MergedMotifEstimates();

    const size_t cut = stream.size() / 3;
    const std::filesystem::path dir = FreshDir("motif-k" + std::to_string(k));
    const std::string manifest = CheckpointPrefix(stream, cut, options, dir);

    auto resumed = ShardedEngine::ResumeFromCheckpoints(
        std::vector<std::string>{manifest});
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    // The resumed engine adopts the manifest's motif suite.
    EXPECT_EQ((*resumed)->options().motifs, options.motifs);
    for (size_t i = cut; i < stream.size(); ++i) {
      (*resumed)->Process(stream[i]);
    }
    (*resumed)->Finish();
    engine_test::ExpectMotifsExactlyEqual(
        (*resumed)->MergedMotifEstimates(), expected);
    for (uint32_t s = 0; s < k; ++s) {
      EXPECT_EQ(ReservoirBytes((*resumed)->shard(s).reservoir()),
                ReservoirBytes(uninterrupted.shard(s).reservoir()))
          << "shard " << s;
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(EngineResumeTest, VersionOneManifestStillResumes) {
  // Backward-compatible read: strip the v2 stream-offset field and the v3
  // motif-set line back to the v1 layout; resume derives the offset from
  // the shards' arrival counts instead (and runs without a motif suite).
  const std::vector<Edge> stream = TestStream(831);
  const ShardedEngineOptions options = EngineOptions(2, 47);
  const size_t cut = stream.size() / 2;
  const std::filesystem::path dir = FreshDir("v1");
  const std::string manifest_path =
      CheckpointPrefix(stream, cut, options, dir);

  std::stringstream rewritten;
  {
    std::ifstream in(manifest_path);
    std::string header_line, layout_line, weight_line, motif_line;
    ASSERT_TRUE(std::getline(in, header_line));
    ASSERT_TRUE(std::getline(in, layout_line));
    ASSERT_TRUE(std::getline(in, weight_line));
    ASSERT_TRUE(std::getline(in, motif_line));
    ASSERT_EQ(header_line, "GPS-MANIFEST 4");
    ASSERT_EQ(motif_line, "0");  // no motifs configured
    // Drop the 5th and 6th layout tokens (stream offset, memory budget)
    // and the motif line.
    layout_line = layout_line.substr(0, layout_line.find_last_of(' '));
    layout_line = layout_line.substr(0, layout_line.find_last_of(' '));
    rewritten << "GPS-MANIFEST 1\n" << layout_line << '\n' << weight_line
              << '\n' << in.rdbuf();
  }
  {
    std::ofstream out(manifest_path, std::ios::trunc);
    out << rewritten.str();
  }

  auto resumed = ShardedEngine::ResumeFromCheckpoints(
      std::vector<std::string>{manifest_path});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ((*resumed)->edges_processed(), cut);

  ShardedEngine uninterrupted(options);
  for (const Edge& e : stream) uninterrupted.Process(e);
  uninterrupted.Finish();
  for (size_t i = cut; i < stream.size(); ++i) {
    (*resumed)->Process(stream[i]);
  }
  (*resumed)->Finish();
  ExpectExactlyEqual((*resumed)->MergedEstimates(),
                     uninterrupted.MergedEstimates());
  std::filesystem::remove_all(dir);
}

TEST(EngineResumeTest, RejectsUnknownManifestVersion) {
  const std::vector<Edge> stream = TestStream(841);
  const std::filesystem::path dir = FreshDir("vfuture");
  const std::string manifest_path =
      CheckpointPrefix(stream, stream.size() / 2, EngineOptions(2, 53), dir);

  // A future manifest version must be refused, not misparsed: the layout
  // line may have fields this reader does not understand.
  std::string text;
  {
    std::ifstream in(manifest_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  const size_t pos = text.find("GPS-MANIFEST 4");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 14, "GPS-MANIFEST 9");
  {
    std::ofstream out(manifest_path, std::ios::trunc);
    out << text;
  }

  auto resumed = ShardedEngine::ResumeFromCheckpoints(
      std::vector<std::string>{manifest_path});
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resumed.status().message().find("version"), std::string::npos)
      << resumed.status().ToString();

  auto merged = ShardedEngine::MergeFromCheckpoints(
      std::vector<std::string>{manifest_path});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

TEST(EngineResumeTest, RejectsTamperedStreamOffset) {
  // A v2 offset that disagrees with the shards' arrival counts points at
  // a corrupt or mixed-up checkpoint set; resuming from it would lie
  // about the stream position.
  const std::vector<Edge> stream = TestStream(851);
  const std::filesystem::path dir = FreshDir("offset");
  const std::string manifest_path =
      CheckpointPrefix(stream, stream.size() / 2, EngineOptions(2, 59), dir);

  ShardManifest manifest;
  {
    std::ifstream in(manifest_path, std::ios::binary);
    auto parsed = DeserializeManifest(in);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    manifest = *parsed;
  }
  manifest.stream_offset += 1000;
  {
    std::ofstream out(manifest_path, std::ios::trunc | std::ios::binary);
    ASSERT_TRUE(SerializeManifest(manifest, StreamSink(out)).ok());
  }

  auto resumed = ShardedEngine::ResumeFromCheckpoints(
      std::vector<std::string>{manifest_path});
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("stream offset"),
            std::string::npos)
      << resumed.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(EngineResumeTest, RejectsInconsistentOffsetsRegardlessOfOrder) {
  // A v1 manifest (offset unknown) combined with a v2 manifest whose
  // offset disagrees with the shards' arrival counts must be rejected no
  // matter which file is listed first — validation is a property of the
  // set, not of the argument order.
  const std::vector<Edge> stream = TestStream(871);
  const std::filesystem::path dir = FreshDir("mixed");
  const std::string manifest_path =
      CheckpointPrefix(stream, stream.size() / 2, EngineOptions(2, 67), dir);

  ShardManifest full;
  {
    std::ifstream in(manifest_path, std::ios::binary);
    auto parsed = DeserializeManifest(in);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    full = *parsed;
  }
  ASSERT_EQ(full.entries.size(), 2u);
  // Host A covers shard 0 with no recorded offset (v1-style unknown);
  // host B covers shard 1 with a WRONG offset.
  ShardManifest host_a = full;
  host_a.entries.assign(full.entries.begin(), full.entries.begin() + 1);
  host_a.stream_offset = 0;
  ShardManifest host_b = full;
  host_b.entries.assign(full.entries.begin() + 1, full.entries.end());
  host_b.stream_offset = full.stream_offset + 1000;
  const std::string path_a = (dir / "host-a.gpsm").string();
  const std::string path_b = (dir / "host-b.gpsm").string();
  {
    std::ofstream out(path_a, std::ios::binary);
    ASSERT_TRUE(SerializeManifest(host_a, StreamSink(out)).ok());
  }
  {
    std::ofstream out(path_b, std::ios::binary);
    ASSERT_TRUE(SerializeManifest(host_b, StreamSink(out)).ok());
  }

  for (const auto& order :
       {std::vector<std::string>{path_a, path_b},
        std::vector<std::string>{path_b, path_a}}) {
    auto resumed = ShardedEngine::ResumeFromCheckpoints(order);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(resumed.status().message().find("stream offset"),
              std::string::npos)
        << resumed.status().ToString();
  }

  // Two nonzero offsets that disagree with EACH OTHER are also rejected
  // in both orders, before any shard file is read.
  ShardManifest host_a2 = host_a;
  host_a2.stream_offset = full.stream_offset;
  ShardManifest host_b2 = host_b;  // still offset + 1000
  {
    std::ofstream out(path_a, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(SerializeManifest(host_a2, StreamSink(out)).ok());
  }
  for (const auto& order :
       {std::vector<std::string>{path_a, path_b},
        std::vector<std::string>{path_b, path_a}}) {
    auto resumed = ShardedEngine::ResumeFromCheckpoints(order);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(resumed.status().message().find("stream offset"),
              std::string::npos)
        << resumed.status().ToString();
  }
  std::filesystem::remove_all(dir);
}

TEST(EngineResumeTest, RejectsBadResumeOptions) {
  const std::vector<Edge> stream = TestStream(861);
  const std::filesystem::path dir = FreshDir("badopts");
  const std::string manifest_path =
      CheckpointPrefix(stream, stream.size() / 2, EngineOptions(2, 61), dir);

  ShardedResumeOptions zero_batch;
  zero_batch.batch_size = 0;
  auto r1 = ShardedEngine::ResumeFromCheckpoints(
      std::vector<std::string>{manifest_path}, zero_batch);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

  ShardedResumeOptions zero_ring;
  zero_ring.ring_capacity = 0;
  auto r2 = ShardedEngine::ResumeFromCheckpoints(
      std::vector<std::string>{manifest_path}, zero_ring);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gps
