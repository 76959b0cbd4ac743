// Tests for GPS-STREAM v1 (graph/binary_stream.h): round trips, strict
// named refusals on every corruption class and on seeded mutants, a file
// cut short while it is read, and the block feed's byte-identity with a
// per-edge Process loop: block spans from the reader's buffer go straight
// into ShardedEngine::ProcessEdges.

#include "graph/binary_stream.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
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

  // A FIFO with no writer: the sniff returns at once instead of waiting
  // for one, and the reader refuses it by name.
  const engine_test::ScopedTempDir dir("bs", "sniff");
  std::filesystem::create_directories(dir);
  const std::string fifo = dir / "fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  EXPECT_FALSE(LooksLikeBinaryStream(fifo));
  auto reader = BinaryStreamReader::Open(fifo);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("is not a regular file"),
            std::string::npos)
      << reader.status().ToString();
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

TEST_F(BinaryStreamTest, FileCutShortAfterOpenIsANamedError) {
  // A reader opened on a file several pages long, which is then cut to
  // 4096 bytes: reading a later block is an IoError naming the block and
  // where the file ended, not a fault.
  std::vector<Edge> edges;
  for (NodeId i = 0; i < 8192; ++i) edges.push_back({i, i + 1});
  const std::string path = Track(TempPath("bs_cut_short.gps"));
  BinaryStreamWriteOptions options;
  options.block_edges = 1024;
  ASSERT_TRUE(WriteBinaryStream(path, edges, options).ok());
  const uintmax_t size = std::filesystem::file_size(path);
  auto reader = BinaryStreamReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->num_blocks(), 8u);
  ASSERT_TRUE(reader->Block(0).ok());

  std::filesystem::resize_file(path, 4096);
  auto block = reader->Block(5);
  ASSERT_FALSE(block.ok());
  EXPECT_EQ(block.status().code(), StatusCode::kIoError);
  EXPECT_EQ(block.status().message(),
            "GPS-STREAM block 5: '" + path +
                "' was cut short while being read: it ended at byte 4096 "
                "of the " +
                std::to_string(size) + " it held when opened");
  EXPECT_FALSE(reader->VerifyAll().ok());
}

TEST_F(BinaryStreamTest, BufferHoldsTheBlockNotTheDeclaredBlockSize) {
  // Two edges under a header declaring 2^24-edge blocks: one 2-edge
  // block. The reader's buffer holds those 2 edges, not the 128 MiB a
  // full declared block would take.
  const std::vector<Edge> edges = {{3, 4}, {5, 6}};
  const std::string path = Track(TempPath("bs_huge_blocks.gps"));
  BinaryStreamWriteOptions options;
  options.block_edges = kBinaryStreamMaxBlockEdges;
  ASSERT_TRUE(WriteBinaryStream(path, edges, options).ok());

  rusage before;
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  auto reader = BinaryStreamReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->block_edges(), kBinaryStreamMaxBlockEdges);
  ASSERT_EQ(reader->num_blocks(), 1u);
  auto block = reader->Block(0);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ(std::vector<Edge>(block->begin(), block->end()), edges);
  rusage after;
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 32 * 1024)  // KiB
      << "peak RSS grew by " << after.ru_maxrss - before.ru_maxrss
      << " KiB reading a 2-edge block";
}

// ---- Seeded mutants --------------------------------------------------------

/// The blocks a structurally valid GPS-STREAM byte string holds, decoded
/// from the bytes alone: the reference for an accepted mutant.
std::vector<std::vector<Edge>> DecodeBlocks(const std::string& bytes) {
  uint64_t edge_count = 0;
  uint32_t block_edges = 0;
  std::memcpy(&edge_count, bytes.data() + 20, sizeof(edge_count));
  std::memcpy(&block_edges, bytes.data() + 28, sizeof(block_edges));
  std::vector<std::vector<Edge>> blocks;
  size_t at = kBinaryStreamHeaderBytes;
  for (uint64_t left = edge_count; left > 0;) {
    const uint64_t n = std::min<uint64_t>(left, block_edges);
    std::vector<Edge>& block = blocks.emplace_back(n);
    std::memcpy(block.data(), bytes.data() + at, n * sizeof(Edge));
    at += n * sizeof(Edge) + 8;
    left -= n;
  }
  return blocks;
}

TEST_F(BinaryStreamTest, SeededMutantsEndInAStatus) {
  // GPS-STREAM files are untrusted input. Seeded mutants of a valid
  // 10-edge file in three blocks (4 + 4 + 2 edges) — byte flips, every
  // truncation, a trailing byte, spliced blocks, header-field edits and
  // payload edits behind recomputed digests — must each end in Ok or in
  // a status that names the format and the file: no abort, no sanitizer
  // report. An accepted mutant reads exactly the edges its bytes hold.
  std::vector<Edge> edges;
  for (NodeId i = 0; i < 10; ++i) edges.push_back({i, 2 * i + 1});
  const std::string path = Track(TempPath("bs_mutants.gps"));
  BinaryStreamWriteOptions options;
  options.block_edges = 4;
  ASSERT_TRUE(WriteBinaryStream(path, edges, options).ok());
  const std::string valid = ReadFileBytes(path);
  ASSERT_EQ(valid.size(), 40u + (32 + 8) + (32 + 8) + (16 + 8));

  const auto set_u32 = [](std::string bytes, size_t at, uint32_t value) {
    std::memcpy(bytes.data() + at, &value, sizeof(value));
    FixHeaderDigest(&bytes);
    return bytes;
  };
  const auto set_u64 = [](std::string bytes, size_t at, uint64_t value) {
    std::memcpy(bytes.data() + at, &value, sizeof(value));
    FixHeaderDigest(&bytes);
    return bytes;
  };
  const auto set_byte = [](std::string bytes, size_t at, char value) {
    bytes[at] = value;
    FixHeaderDigest(&bytes);
    return bytes;
  };
  const size_t block_at[] = {40, 80, 120};
  const size_t block_bytes[] = {40, 40, 24};

  std::vector<std::pair<std::string, std::string>> mutants;
  std::mt19937_64 rng(20170904);
  for (int i = 0; i < 300; ++i) {
    std::string m = valid;
    m[rng() % m.size()] ^= static_cast<char>(1u << (rng() % 8));
    mutants.emplace_back("byte flip " + std::to_string(i), m);
  }
  for (size_t n = 0; n < valid.size(); ++n) {
    mutants.emplace_back("truncated to " + std::to_string(n),
                         valid.substr(0, n));
  }
  mutants.emplace_back("trailing byte", valid + '\0');
  for (size_t from = 0; from < 3; ++from) {
    for (size_t to = 0; to < 3; ++to) {
      if (from == to) continue;
      mutants.emplace_back(
          "block " + std::to_string(from) + " over block " +
              std::to_string(to),
          valid.substr(0, block_at[to]) +
              valid.substr(block_at[from], block_bytes[from]) +
              valid.substr(block_at[to] + block_bytes[to]));
    }
  }
  for (uint32_t version : {0u, 2u}) {
    mutants.emplace_back("version " + std::to_string(version),
                         set_u32(valid, 8, version));
  }
  for (uint32_t flags : {1u, 0x80000000u}) {
    mutants.emplace_back("flags " + std::to_string(flags),
                         set_u32(valid, 12, flags));
  }
  for (char width : {0, 8}) {
    mutants.emplace_back("node width " + std::to_string(width),
                         set_byte(valid, 16, width));
  }
  for (size_t at : {17, 18, 19}) {
    mutants.emplace_back("reserved byte " + std::to_string(at),
                         set_byte(valid, at, 1));
  }
  for (uint64_t count : {9u, 11u}) {
    mutants.emplace_back("edge count " + std::to_string(count),
                         set_u64(valid, 20, count));
  }
  for (uint32_t block : {0u, 1u, kBinaryStreamMaxBlockEdges,
                         kBinaryStreamMaxBlockEdges + 1}) {
    mutants.emplace_back("block_edges " + std::to_string(block),
                         set_u32(valid, 28, block));
  }
  for (uint32_t id : {uint32_t{77}, kInvalidNode}) {
    // An edge of block 1 rewritten, behind a recomputed block digest.
    std::string m = valid;
    std::memcpy(m.data() + block_at[1] + 12, &id, sizeof(id));
    const uint64_t digest = Fnv1a64Words(m.data() + block_at[1], 32);
    std::memcpy(m.data() + block_at[1] + 32, &digest, sizeof(digest));
    mutants.emplace_back("payload id " + std::to_string(id), m);
  }

  size_t accepted = 0;
  for (const auto& [name, bytes] : mutants) {
    SCOPED_TRACE(name);
    WriteFileBytes(path, bytes);
    auto reader = BinaryStreamReader::Open(path);
    Status s = reader.ok() ? reader->VerifyAll() : reader.status();
    if (!s.ok()) {
      EXPECT_NE(s.message().find("GPS-STREAM"), std::string::npos)
          << s.ToString();
      EXPECT_NE(s.message().find(path), std::string::npos) << s.ToString();
      continue;
    }
    ++accepted;
    const std::vector<std::vector<Edge>> want = DecodeBlocks(bytes);
    ASSERT_EQ(reader->num_blocks(), want.size());
    for (size_t b = 0; b < want.size(); ++b) {
      auto block = reader->Block(b);
      ASSERT_TRUE(block.ok()) << block.status().ToString();
      EXPECT_EQ(std::vector<Edge>(block->begin(), block->end()), want[b])
          << "block " << b;
    }
  }
  // Only the equal-size splices and the valid payload edit keep every
  // digest and the file size: each is a different valid stream.
  EXPECT_EQ(accepted, 3u);
}

// ---- Block feed into the engine ------------------------------------------

TEST_F(BinaryStreamTest, BlockSpansFeedEngineLikeProcessLoop) {
  // The acceptance contract: feeding the engine straight from the
  // reader's blocks must be byte-identical to the per-edge Process loop
  // over the same stream — same reservoirs, same estimates, same
  // counters. Each span points into the reader's buffer while a K=3
  // engine routes it into its worker rings.
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
    EXPECT_EQ(engine_test::ShardBytes(from_file, s),
              engine_test::ShardBytes(from_loop, s))
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
