// Resume determinism regression tests for the sharded engine.
//
// Contract: interrupt a sharded run at ANY stream offset, checkpoint,
// ResumeFromCheckpoints, feed the suffix — and the per-shard reservoirs
// and merged estimates are byte-identical to a run that was never
// interrupted, for K in {1, 2, 4, 8}, also when the resumed engine runs
// another batch size than the interrupted one. A manifest of any version
// but the one writers emit fails with a typed error naming the version.

#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/in_stream.h"
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

engine_test::ScopedTempDir FreshDir(const std::string& name) {
  return engine_test::ScopedTempDir("engine_resume", name);
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
using engine_test::ShardBytes;

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

TEST(EngineResumeTest, SingleShardCheckpointBetweenHelperSpans) {
  // At K=1 a long ProcessEdges span runs the estimation stage on a helper
  // thread. A checkpoint taken between two such spans must hold exactly
  // the bytes the one-thread estimator writes at that point: the shard
  // file equals a serial estimator's, and its digest equals the one this
  // layout's checkpoint had before the stages were split. The resumed
  // engine must finish exactly as the uninterrupted one.
  EdgeList graph = GenerateBarabasiAlbert(2000, 5, 0.4, 811).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 812);
  const size_t cut = 5000;
  ASSERT_GE(cut, kMinHelperSpan);
  ASSERT_GE(stream.size() - cut, kMinHelperSpan);
  ShardedEngineOptions options = EngineOptions(1, 813);
  options.sampler.capacity = 3000;
  const std::span<const Edge> prefix = std::span(stream).first(cut);
  const std::span<const Edge> suffix = std::span(stream).subspan(cut);

  const auto dir = FreshDir("k1_helper");
  ShardedEngine engine(options);
  engine.ProcessEdges(prefix);
  ASSERT_TRUE(engine.SerializeShards(dir.string()).ok());
  engine.ProcessEdges(suffix);
  engine.Finish();

  InStreamEstimator serial(options.sampler);
  for (const Edge& e : prefix) serial.Process(e);
  const ShardManifest manifest = engine_test::ReadManifest(dir);
  ASSERT_EQ(manifest.digests.size(), 1u);
  EXPECT_EQ(manifest.digests[0], 0x22aade04112ecd27ull);
  std::ifstream file(dir / "shard-0000-22aade04112ecd27.gps",
                     std::ios::binary);
  std::ostringstream shard_file;
  shard_file << file.rdbuf();
  EXPECT_EQ(shard_file.str(), engine_test::InStreamBytes(serial));

  auto resumed = ShardedEngine::ResumeFromCheckpoints(ManifestPath(dir));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  (*resumed)->ProcessEdges(suffix);
  (*resumed)->Finish();
  EXPECT_EQ(ShardBytes(**resumed, 0), ShardBytes(engine, 0));
  ExpectExactlyEqual((*resumed)->MergedEstimates(), engine.MergedEstimates());
  ExpectExactlyEqual((*resumed)->MergedPostStreamEstimates(),
                     engine.MergedPostStreamEstimates());
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
    // state exactly. It runs the default batch size (1024), not the
    // interrupted engine's 128: batch granularity does not affect the
    // sample path.
    for (const size_t cut : {size_t{0}, stream.size() / 4,
                             stream.size() / 2, stream.size() - 1}) {
      SCOPED_TRACE("K=" + std::to_string(k) +
                   " cut=" + std::to_string(cut));
      const auto dir =
          FreshDir("k" + std::to_string(k) + "_c" + std::to_string(cut));
      const std::string manifest =
          CheckpointPrefix(stream, cut, options, dir);

      auto resumed = ShardedEngine::ResumeFromCheckpoints(manifest);
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
        EXPECT_EQ(ShardBytes(**resumed, s), ShardBytes(uninterrupted, s))
            << "shard " << s;
      }
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

  const auto dir = FreshDir("repeats");
  const std::string manifest = CheckpointPrefix(stream, cut, options, dir);
  auto resumed = ShardedEngine::ResumeFromCheckpoints(manifest);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ((*resumed)->edges_processed(), cut);
  for (size_t i = cut; i < stream.size(); ++i) (*resumed)->Process(stream[i]);
  (*resumed)->Finish();
  EXPECT_EQ((*resumed)->edges_processed(), stream.size());
  ExpectExactlyEqual((*resumed)->MergedEstimates(),
                     uninterrupted.MergedEstimates());
  for (uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(ShardBytes(**resumed, s), ShardBytes(uninterrupted, s))
        << "shard " << s;
  }
}

TEST(EngineResumeTest, ChainedResumeMatchesUninterrupted) {
  // checkpoint -> resume -> checkpoint -> resume: interruption is
  // composable (`gps_cli resume-shards --save` chains this way).
  const std::vector<Edge> stream = TestStream(811);
  const ShardedEngineOptions options = EngineOptions(4, 41);

  ShardedEngine uninterrupted(options);
  for (const Edge& e : stream) uninterrupted.Process(e);
  uninterrupted.Finish();

  const size_t third = stream.size() / 3;
  const auto dir1 = FreshDir("hop1");
  const auto dir2 = FreshDir("hop2");
  const std::string manifest1 =
      CheckpointPrefix(stream, third, options, dir1);

  auto hop = ShardedEngine::ResumeFromCheckpoints(manifest1);
  ASSERT_TRUE(hop.ok()) << hop.status().ToString();
  for (size_t i = third; i < 2 * third; ++i) (*hop)->Process(stream[i]);
  ASSERT_TRUE((*hop)->SerializeShards(dir2.string()).ok());

  auto final_hop = ShardedEngine::ResumeFromCheckpoints(ManifestPath(dir2));
  ASSERT_TRUE(final_hop.ok()) << final_hop.status().ToString();
  EXPECT_EQ((*final_hop)->edges_processed(), 2 * third);
  for (size_t i = 2 * third; i < stream.size(); ++i) {
    (*final_hop)->Process(stream[i]);
  }
  (*final_hop)->Finish();
  ExpectExactlyEqual((*final_hop)->MergedEstimates(),
                     uninterrupted.MergedEstimates());
}

TEST(EngineResumeTest, ResumeRestoresMonitoringCadence) {
  // Ticks fall at absolute stream positions, so a resumed monitor keeps
  // the uninterrupted run's sampling schedule and values. The monitored
  // run checkpoints itself every 2.5 ticks, the way gps_cli monitor
  // does: every second checkpoint lands on a tick and is written right
  // after its merge passes, on the writer threads, and the last one — the
  // resume cut — falls between two ticks, so the resumed loop must take
  // its next tick from edges_processed() rather than count a fresh
  // interval from the cut.
  const std::vector<Edge> stream = TestStream(821);
  constexpr uint64_t kEvery = 300;
  constexpr uint64_t kCheckpointEvery = 750;
  constexpr uint64_t kCut = 150;  // divides both
  const size_t cut = stream.size() / kCheckpointEvery * kCheckpointEvery;
  ASSERT_GE(cut, 2 * kCheckpointEvery);  // one checkpoint on a tick
  ASSERT_NE(cut % kEvery, 0u);           // the resume cut between ticks
  for (const uint32_t k : {2u, 4u}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    const ShardedEngineOptions options = EngineOptions(k, 43);
    const auto dir = FreshDir("monitor-k" + std::to_string(k));

    std::vector<MonitorRecord> full_records;
    ShardedEngine full(options);
    engine_test::FeedCutAt(full, stream, kCut, [&](uint64_t pos) {
      if (pos % kEvery == 0) full_records.push_back(full.MergedRecord());
      if (pos % kCheckpointEvery == 0) {
        const Status s = full.SerializeShards(dir.string());
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
    });
    full.Finish();

    auto resumed = ShardedEngine::ResumeFromCheckpoints(ManifestPath(dir));
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ((*resumed)->edges_processed(), cut);
    std::vector<MonitorRecord> tail_records;
    engine_test::FeedCutAt(
        **resumed, std::span<const Edge>(stream).subspan(cut), kEvery,
        [&](uint64_t) { tail_records.push_back((*resumed)->MergedRecord()); });
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
  }
}

TEST(EngineResumeTest, MotifSuiteResumesByteIdentically) {
  // Each shard file carries its motif accumulators; a resumed run must
  // continue the suite mid-stream and land on exactly the uninterrupted
  // run's motif estimates (estimation is deterministic given the sample
  // path, and the sample path round-trips exactly).
  const std::vector<Edge> stream = TestStream(851);
  for (const uint32_t k : {1u, 4u}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    ShardedEngineOptions options = EngineOptions(k, 59);
    options.motifs = {"4cycle", "4clique", "3path"};

    ShardedEngine uninterrupted(options);
    for (const Edge& e : stream) uninterrupted.Process(e);
    uninterrupted.Finish();
    const std::vector<MotifEstimate> expected =
        uninterrupted.MergedMotifEstimates();

    const size_t cut = stream.size() / 3;
    const auto dir = FreshDir("motif-k" + std::to_string(k));
    const std::string manifest = CheckpointPrefix(stream, cut, options, dir);

    auto resumed = ShardedEngine::ResumeFromCheckpoints(manifest);
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
      EXPECT_EQ(ShardBytes(**resumed, s), ShardBytes(uninterrupted, s))
          << "shard " << s;
    }
  }
}

TEST(EngineResumeTest, RejectsUnknownManifestVersion) {
  // Every version but the one writers emit is refused by name, older ones
  // included, by resume and merge alike: the reader takes only version 6.
  const std::vector<Edge> stream = TestStream(841);
  const auto dir = FreshDir("versions");
  const std::string manifest_path =
      CheckpointPrefix(stream, stream.size() / 2, EngineOptions(2, 53), dir);
  std::string original;
  {
    std::ifstream in(manifest_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    original = buffer.str();
  }
  ASSERT_EQ(original.rfind("GPS-MANIFEST 6\n", 0), 0u) << original;

  for (const int version : {1, 2, 3, 4, 5, 9}) {
    SCOPED_TRACE("version " + std::to_string(version));
    std::string text = original;
    text.replace(0, 14, "GPS-MANIFEST " + std::to_string(version));
    {
      std::ofstream out(manifest_path, std::ios::trunc);
      out << text;
    }
    const std::string named =
        "unsupported checkpoint version " + std::to_string(version);

    auto resumed = ShardedEngine::ResumeFromCheckpoints(manifest_path);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(resumed.status().message().find(named), std::string::npos)
        << resumed.status().ToString();

    auto merged = engine_test::MergeCheckpoints(manifest_path);
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(merged.status().message().find(named), std::string::npos)
        << merged.status().ToString();
  }
}

TEST(EngineResumeTest, RejectsTamperedStreamOffset) {
  // An offset that disagrees with the shards' arrival counts points at a
  // corrupt or mixed-up checkpoint set; resuming from it would lie about
  // the stream position.
  const std::vector<Edge> stream = TestStream(851);
  const auto dir = FreshDir("offset");
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

  auto resumed = ShardedEngine::ResumeFromCheckpoints(manifest_path);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("stream offset"),
            std::string::npos)
      << resumed.status().ToString();
}

}  // namespace
}  // namespace gps
