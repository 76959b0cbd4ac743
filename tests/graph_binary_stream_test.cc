// Tests for GPS-STREAM v1 (graph/binary_stream.h): round trips, strict
// named refusals on every corruption class, and the zero-copy engine
// feed's byte-identity with a per-edge Process loop: block spans aliasing
// the mapping go straight into ShardedEngine::ProcessEdges.

#include "graph/binary_stream.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/sharded_engine.h"
#include "engine_test_util.h"
#include "graph/types.h"
#include "util/digest.h"

namespace gps {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Recomputes the header digest after a deliberate header edit, so the
/// reader gets past the digest check and reaches the field being tested.
void FixHeaderDigest(std::string* bytes) {
  const uint64_t digest = Fnv1a64Words(bytes->data(), 32);
  std::memcpy(bytes->data() + 32, &digest, sizeof(digest));
}

std::vector<Edge> SampleEdges() {
  // Duplicates, a reversed arrival, and a self loop: a STREAM carries all
  // of them — conversion must not simplify.
  return {{0, 1}, {1, 2}, {2, 1}, {1, 2}, {3, 3}, {100000, 7}};
}

class BinaryStreamTest : public testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : cleanup_) std::remove(path.c_str());
  }
  std::string Track(const std::string& path) {
    cleanup_.push_back(path);
    return path;
  }
  std::vector<std::string> cleanup_;
};

TEST_F(BinaryStreamTest, RoundTripPreservesOrderAndDuplicates) {
  const std::vector<Edge> edges = SampleEdges();
  const std::string path = Track(TempPath("bs_roundtrip.gps"));
  ASSERT_TRUE(WriteBinaryStream(path, edges).ok());

  auto reader = BinaryStreamReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->edge_count(), edges.size());
  EXPECT_EQ(reader->num_blocks(), 1u);
  ASSERT_TRUE(reader->VerifyAll().ok());

  auto block = reader->Block(0);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  ASSERT_EQ(block->size(), edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ((*block)[i], edges[i]) << "edge " << i;
  }
}

TEST_F(BinaryStreamTest, EmptyStreamRoundTrip) {
  const std::string path = Track(TempPath("bs_empty.gps"));
  ASSERT_TRUE(WriteBinaryStream(path, {}).ok());
  auto reader = BinaryStreamReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->edge_count(), 0u);
  EXPECT_EQ(reader->num_blocks(), 0u);
  EXPECT_TRUE(reader->VerifyAll().ok());
  EXPECT_EQ(ReadFileBytes(path).size(), kBinaryStreamHeaderBytes);
}

TEST_F(BinaryStreamTest, ShortFinalBlock) {
  std::vector<Edge> edges;
  for (NodeId i = 0; i < 10; ++i) edges.push_back({i, i + 1});
  const std::string path = Track(TempPath("bs_blocks.gps"));
  BinaryStreamWriteOptions options;
  options.block_edges = 4;
  ASSERT_TRUE(WriteBinaryStream(path, edges, options).ok());

  auto reader = BinaryStreamReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->block_edges(), 4u);
  EXPECT_EQ(reader->num_blocks(), 3u);
  auto last = reader->Block(2);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->size(), 2u);  // 10 = 4 + 4 + 2
  EXPECT_EQ((*last)[1], (Edge{9, 10}));
  // One past the end is a named OutOfRange, not UB.
  auto beyond = reader->Block(3);
  ASSERT_FALSE(beyond.ok());
  EXPECT_EQ(beyond.status().code(), StatusCode::kOutOfRange);
}

TEST_F(BinaryStreamTest, LooksLikeBinaryStreamSniffsMagic) {
  const std::string binary = Track(TempPath("bs_sniff.gps"));
  ASSERT_TRUE(WriteBinaryStream(binary, SampleEdges()).ok());
  EXPECT_TRUE(LooksLikeBinaryStream(binary));

  const std::string text = Track(TempPath("bs_sniff.txt"));
  WriteFileBytes(text, "0 1\n2 3\n");
  EXPECT_FALSE(LooksLikeBinaryStream(text));
  EXPECT_FALSE(LooksLikeBinaryStream(TempPath("bs_sniff_missing.gps")));
}

TEST_F(BinaryStreamTest, WriterRejectsInvalidNodeSentinel) {
  const std::vector<Edge> edges = {{0, 1}, {kInvalidNode, 2}};
  const std::string path = Track(TempPath("bs_invalid_write.gps"));
  Status s = WriteBinaryStream(path, edges);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("invalid-node sentinel"), std::string::npos);
}

TEST_F(BinaryStreamTest, FailedWriteKeepsPreviousFile) {
  // The writer stages "<path>.tmp" and renames it over the target. With a
  // directory squatting on the temp name the write fails, naming the temp
  // file, and the previous file keeps its bytes.
  const std::string path = Track(TempPath("bs_staged.gps"));
  const std::string old_bytes = "previous stream\n";
  WriteFileBytes(path, old_bytes);
  std::filesystem::remove_all(path + ".tmp");
  ASSERT_TRUE(std::filesystem::create_directory(path + ".tmp"));
  const Status s = WriteBinaryStream(path, SampleEdges());
  std::filesystem::remove_all(path + ".tmp");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.ToString().find(path + ".tmp"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(ReadFileBytes(path), old_bytes);

  // A successful write replaces the file and leaves no temp file behind.
  ASSERT_TRUE(WriteBinaryStream(path, SampleEdges()).ok());
  EXPECT_NE(ReadFileBytes(path), old_bytes);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(BinaryStreamTest, WriterRejectsBlockEdgesOutOfRange) {
  BinaryStreamWriteOptions options;
  options.block_edges = 0;
  const std::string path = Track(TempPath("bs_badblock.gps"));
  EXPECT_FALSE(WriteBinaryStream(path, SampleEdges(), options).ok());
  options.block_edges = kBinaryStreamMaxBlockEdges + 1;
  EXPECT_FALSE(WriteBinaryStream(path, SampleEdges(), options).ok());
}

// ---- Corruption refusals: each class rejected by name --------------------

class CorruptionTest : public BinaryStreamTest {
 protected:
  /// A fresh valid two-block file plus its raw bytes.
  void SetUp() override {
    path_ = Track(TempPath("bs_corrupt.gps"));
    std::vector<Edge> edges;
    for (NodeId i = 0; i < 6; ++i) edges.push_back({i, i + 1});
    BinaryStreamWriteOptions options;
    options.block_edges = 4;
    ASSERT_TRUE(WriteBinaryStream(path_, edges, options).ok());
    bytes_ = ReadFileBytes(path_);
  }

  Status OpenError(const std::string& mutated) {
    WriteFileBytes(path_, mutated);
    auto reader = BinaryStreamReader::Open(path_);
    if (!reader.ok()) return reader.status();
    return reader->VerifyAll();
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(CorruptionTest, RejectsBadMagic) {
  std::string mutated = bytes_;
  mutated[0] = 'X';
  const Status s = OpenError(mutated);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("not a GPS-STREAM file (bad magic)"),
            std::string::npos);
}

TEST_F(CorruptionTest, RejectsFutureVersion) {
  std::string mutated = bytes_;
  mutated[8] = 2;  // version u32 LE at offset 8
  FixHeaderDigest(&mutated);  // a valid v2 writer would digest its header
  const Status s = OpenError(mutated);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("unsupported GPS-STREAM version 2"),
            std::string::npos);
  EXPECT_NE(s.ToString().find("this build reads v1"), std::string::npos);
}

TEST_F(CorruptionTest, RejectsUnknownFlags) {
  std::string mutated = bytes_;
  mutated[12] = 1;  // flags u32 LE at offset 12
  FixHeaderDigest(&mutated);
  const Status s = OpenError(mutated);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("unknown GPS-STREAM flags"),
            std::string::npos);
}

TEST_F(CorruptionTest, RejectsUnsupportedNodeWidth) {
  std::string mutated = bytes_;
  mutated[16] = 8;  // node-id width at offset 16
  FixHeaderDigest(&mutated);
  const Status s = OpenError(mutated);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("node-id width 8"), std::string::npos);
}

TEST_F(CorruptionTest, RejectsCorruptHeaderByDigest) {
  std::string mutated = bytes_;
  mutated[20] ^= 0x01;  // flip one edge-count bit, leave digest stale
  const Status s = OpenError(mutated);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("header digest mismatch"), std::string::npos);
}

TEST_F(CorruptionTest, RejectsTruncatedHeader) {
  const Status s = OpenError(bytes_.substr(0, 17));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("truncated GPS-STREAM header"),
            std::string::npos);
}

TEST_F(CorruptionTest, RejectsTruncatedBlock) {
  const Status s = OpenError(bytes_.substr(0, bytes_.size() - 5));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("truncated GPS-STREAM file"),
            std::string::npos);
}

TEST_F(CorruptionTest, RejectsTrailingBytes) {
  const Status s = OpenError(bytes_ + "extra");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("trailing bytes"), std::string::npos);
}

TEST_F(CorruptionTest, RejectsFlippedPayloadByte) {
  std::string mutated = bytes_;
  mutated[kBinaryStreamHeaderBytes + 3] ^= 0x40;  // inside block 0 payload
  const Status s = OpenError(mutated);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("block 0 digest mismatch"),
            std::string::npos);
}

TEST_F(CorruptionTest, RejectsFlippedDigestByte) {
  std::string mutated = bytes_;
  mutated[mutated.size() - 1] ^= 0x01;  // last byte = block 1's digest
  const Status s = OpenError(mutated);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("block 1 digest mismatch"),
            std::string::npos);
}

TEST_F(CorruptionTest, RejectsSmuggledInvalidNodeId) {
  // A hand-crafted file can carry the kInvalidNode sentinel WITH a valid
  // digest; the reader must still refuse it before it reaches an
  // estimator.
  std::string mutated = bytes_;
  const size_t payload0 = kBinaryStreamHeaderBytes;
  const uint32_t invalid = kInvalidNode;
  std::memcpy(mutated.data() + payload0, &invalid, sizeof(invalid));
  const size_t block0_payload_bytes = 4 * sizeof(Edge);
  const uint64_t digest =
      Fnv1a64Words(mutated.data() + payload0, block0_payload_bytes);
  std::memcpy(mutated.data() + payload0 + block0_payload_bytes, &digest,
              sizeof(digest));
  const Status s = OpenError(mutated);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("invalid node id in GPS-STREAM block 0"),
            std::string::npos);
}

TEST_F(CorruptionTest, RejectsDirectory) {
  auto reader = BinaryStreamReader::Open(testing::TempDir());
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().ToString().find("is a directory"),
            std::string::npos);
}

TEST_F(CorruptionTest, RejectsMissingFile) {
  auto reader = BinaryStreamReader::Open(TempPath("bs_missing.gps"));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

// ---- Zero-copy engine feed -----------------------------------------------

TEST_F(BinaryStreamTest, MappedBlockSpansFeedEngineLikeProcessLoop) {
  // The acceptance contract: feeding the engine straight from mapped
  // blocks must be byte-identical to the per-edge Process loop over the
  // same stream — same reservoirs, same estimates, same counters. The
  // spans alias the mapping while a K=3 engine routes them into its
  // worker rings.
  std::vector<Edge> stream;
  uint32_t x = 12345;
  for (int i = 0; i < 20000; ++i) {
    x = x * 1664525 + 1013904223;  // LCG: deterministic pseudo-stream
    stream.push_back({x % 500, (x >> 16) % 500});
  }
  const std::string path = Track(TempPath("bs_engine_feed.gps"));
  BinaryStreamWriteOptions options;
  options.block_edges = 1000;
  ASSERT_TRUE(WriteBinaryStream(path, stream, options).ok());

  ShardedEngineOptions engine_options;
  engine_options.sampler.capacity = 700;
  engine_options.sampler.seed = 42;
  engine_options.num_shards = 3;

  ShardedEngine from_file(engine_options);
  auto reader = BinaryStreamReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->num_blocks(), 20u);
  for (size_t b = 0; b < reader->num_blocks(); ++b) {
    auto block = reader->Block(b);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    from_file.ProcessEdges(*block);
  }
  from_file.Finish();

  ShardedEngine from_loop(engine_options);
  for (const Edge& e : stream) from_loop.Process(e);
  from_loop.Finish();

  EXPECT_EQ(from_file.edges_processed(), stream.size());
  EXPECT_EQ(from_loop.edges_processed(), stream.size());
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(engine_test::ReservoirBytes(from_file.shard(s).reservoir()),
              engine_test::ReservoirBytes(from_loop.shard(s).reservoir()))
        << "shard " << s;
  }
  const GraphEstimates a = from_file.MergedEstimates();
  const GraphEstimates b = from_loop.MergedEstimates();
  EXPECT_EQ(a.triangles.value, b.triangles.value);
  EXPECT_EQ(a.triangles.variance, b.triangles.variance);
  EXPECT_EQ(a.wedges.value, b.wedges.value);
  EXPECT_EQ(a.wedges.variance, b.wedges.variance);
}

}  // namespace
}  // namespace gps
