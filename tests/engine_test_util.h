// Helpers shared by the engine test suites (sharded / checkpoint /
// resume / merge / metrics): byte-level reservoir comparison, exact
// estimate equality, self-removing per-test temp directories, the
// caller-driven tick loop, and the checkpoint merge as merge-checkpoints
// runs it. One definition each, so a change to the serialization format
// or the GraphEstimates field set tightens every byte-identity test at
// once instead of whichever copies got updated.

#ifndef GPS_TESTS_ENGINE_TEST_UTIL_H_
#define GPS_TESTS_ENGINE_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "core/estimates.h"
#include "core/in_stream.h"
#include "core/motifs.h"
#include "core/serialize.h"
#include "engine/sharded_engine.h"
#include "util/status.h"

namespace gps {
namespace engine_test {

/// A unique temp directory for the current gtest case, emptied when the
/// guard is made and removed with everything in it when the guard goes
/// out of scope, also when an ASSERT returns early. ctest runs suites in
/// parallel processes, so every path must be unique per (suite, test,
/// name). Only a named guard converts to its path: a path taken from a
/// temporary guard would name a directory nothing removes.
class ScopedTempDir {
 public:
  ScopedTempDir(const std::string& prefix, const std::string& name) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::path(testing::TempDir()) /
            (prefix + "_" + std::string(info ? info->name() : "unknown") +
             "_" + name);
    std::filesystem::remove_all(path_);
  }
  ~ScopedTempDir() {
    std::error_code ignored;  // a destructor must not throw
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  operator const std::filesystem::path&() const& { return path_; }
  operator const std::filesystem::path&() const&& = delete;
  std::filesystem::path operator/(const std::filesystem::path& leaf) const {
    return path_ / leaf;
  }
  std::string string() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

inline std::string ManifestPath(const std::filesystem::path& dir) {
  return (dir / kShardManifestFilename).string();
}

/// The manifest a checkpoint directory holds.
inline ShardManifest ReadManifest(const std::filesystem::path& dir) {
  std::ifstream in(ManifestPath(dir), std::ios::binary);
  Result<ShardManifest> manifest = DeserializeManifest(in);
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  return manifest.ok() ? *manifest : ShardManifest();
}

/// Path of shard s's file in checkpoint directory `dir`, as its manifest
/// names it.
inline std::filesystem::path ShardPath(const std::filesystem::path& dir,
                                       uint32_t s) {
  return dir / ShardFileName(s, ReadManifest(dir).digests.at(s));
}

/// The reservoir's full serialized state; equal strings mean equal
/// records, threshold, RNG state, and heap layout.
inline std::string ReservoirBytes(const GpsReservoir& reservoir) {
  std::ostringstream out;
  EXPECT_TRUE(SerializeReservoir(reservoir, out).ok());
  return out.str();
}

/// An in-stream estimator's full state as its GPS-INSTREAM shard file with
/// `motifs` beside it: the snapshot accumulators, the motif accumulators,
/// and the reservoir with each record's covariance accumulators (which
/// ReservoirBytes writes as zeros: a bare reservoir holds none).
inline std::string InStreamBytes(const InStreamEstimator& estimator,
                                 const MotifSuite& motifs = MotifSuite()) {
  std::ostringstream out;
  EXPECT_TRUE(
      SerializeInStreamEstimator(estimator, motifs, StreamSink(out)).ok());
  return out.str();
}

/// Shard s's full state as bytes: its shard file for an in-stream engine,
/// its reservoir for a post-stream one.
inline std::string ShardBytes(const ShardedEngine& engine, uint32_t s) {
  const ShardWorker& shard = engine.shard(s);
  if (engine.options().merge_mode != MergeMode::kInStreamPlusCross) {
    return ReservoirBytes(shard.reservoir());
  }
  return InStreamBytes(shard.in_stream_estimator(), shard.motif_suite());
}

/// Exact (bitwise, not approximate) equality of every estimate field.
inline void ExpectExactlyEqual(const GraphEstimates& a,
                               const GraphEstimates& b) {
  EXPECT_EQ(a.triangles.value, b.triangles.value);
  EXPECT_EQ(a.triangles.variance, b.triangles.variance);
  EXPECT_EQ(a.wedges.value, b.wedges.value);
  EXPECT_EQ(a.wedges.variance, b.wedges.variance);
  EXPECT_EQ(a.tri_wedge_cov, b.tri_wedge_cov);
}

/// Exact equality of two merged motif-estimate sets (names, values,
/// variances, snapshot counts).
inline void ExpectMotifsExactlyEqual(const std::vector<MotifEstimate>& a,
                                     const std::vector<MotifEstimate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t m = 0; m < a.size(); ++m) {
    EXPECT_EQ(a[m].name, b[m].name) << m;
    EXPECT_EQ(a[m].estimate.value, b[m].estimate.value) << a[m].name;
    EXPECT_EQ(a[m].estimate.variance, b[m].estimate.variance) << a[m].name;
    EXPECT_EQ(a[m].snapshots, b[m].snapshots) << a[m].name;
  }
}

/// The loop gps_cli monitor runs: feeds `stream` through ProcessEdges,
/// cut at every absolute multiple of `period` (absolute: counted from
/// edge 0 of the whole stream, so a resumed engine keeps the cadence),
/// and calls `at_cut(position)` after each cut that lands on one.
template <typename AtCut>
void FeedCutAt(ShardedEngine& engine, std::span<const Edge> stream,
               uint64_t period, AtCut&& at_cut) {
  while (!stream.empty()) {
    const uint64_t pos = engine.edges_processed();
    const size_t take = static_cast<size_t>(
        std::min<uint64_t>(stream.size(), (pos / period + 1) * period - pos));
    engine.ProcessEdges(stream.first(take));
    stream = stream.subspan(take);
    if (engine.edges_processed() % period == 0) {
      at_cut(engine.edges_processed());
    }
  }
}

/// Everything merge-checkpoints prints for a checkpoint.
struct MergedCheckpoint {
  GraphEstimates graph;
  std::vector<MotifEstimate> motifs;
  double edge_count = 0.0;
};

/// Merges a checkpoint the way merge-checkpoints does: resume it, feed
/// nothing, finish, and read the merged estimates.
inline Result<MergedCheckpoint> MergeCheckpoints(
    const std::string& manifest_path) {
  auto engine = ShardedEngine::ResumeFromCheckpoints(manifest_path);
  if (!engine.ok()) return engine.status();
  (*engine)->Finish();
  MergedCheckpoint merged;
  merged.graph = (*engine)->MergedEstimates();
  merged.motifs = (*engine)->MergedMotifEstimates();
  merged.edge_count = (*engine)->MergedEdgeCountEstimate();
  return merged;
}

}  // namespace engine_test
}  // namespace gps

#endif  // GPS_TESTS_ENGINE_TEST_UTIL_H_
