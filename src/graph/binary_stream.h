// GPS-STREAM v1: the versioned binary edge-stream format and its block
// reader.
//
// Text edge lists bound ingest: even the strict bulk parser spends its
// time classifying characters. GPS-STREAM stores the stream the way the
// engine consumes it — fixed-width little-endian (u, v) pairs — so a
// reader's only per-byte work is the integrity digest: each block is
// read into one buffer and served as edges with no per-edge decode.
//
// Design mirrors the GPS-MANIFEST philosophy (core/serialize.h) and
// mccortex's versioned graph files: magic, version, typed header,
// per-block digests, and strict NAMED refusals on any mismatch — a
// corrupt or future-format file is rejected before a single edge reaches
// an estimator.
//
// Layout (all integers little-endian):
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     8  magic "GPSSTRM\0"
//        8     4  version (this build writes and reads 1)
//       12     4  flags (v1 defines none; nonzero bits refused by name)
//       16     1  node-id width in bytes (v1: 4)
//       17     3  reserved, must be zero
//       20     8  edge count
//       28     4  block_edges: edges per full block (last may be short)
//       32     8  header digest: word-wise FNV-1a64 of bytes [0, 32)
//   ------  ----  -----------------------------------------------------
//   then ceil(edge_count / block_edges) blocks, each:
//       n * 8 bytes  payload: n edges as (u: u32 LE, v: u32 LE)
//       8 bytes      block digest: word-wise FNV-1a64 of the payload
//
// Digests are WORD-wise FNV-1a (util/digest.h Fnv1a64Words): the classic
// xor-multiply chain fed 8-byte little-endian words — every digested
// range here is structurally a multiple of 8 bytes — so integrity
// checking costs one multiply per edge instead of eight and stays off
// the reader's critical path. Any flipped bit still flips the digest.
//
// The total file size is fully determined by the header; a shorter file
// is refused as truncated, a longer one as trailing bytes. On
// little-endian hosts a block's payload bytes are its Edge array, so the
// reader reads them straight into an Edge buffer.

#ifndef GPS_GRAPH_BINARY_STREAM_H_
#define GPS_GRAPH_BINARY_STREAM_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "util/input_file.h"
#include "util/status.h"

namespace gps {

/// The GPS-STREAM version this build writes and the only one it reads.
/// Exposed for compat triage (`gps_cli version`).
int BinaryStreamFormatVersion();

/// Magic bytes at offset 0 ("GPSSTRM\0").
inline constexpr char kBinaryStreamMagic[8] = {'G', 'P', 'S', 'S',
                                               'T', 'R', 'M', '\0'};
inline constexpr size_t kBinaryStreamHeaderBytes = 40;

/// Default edges per block: 64K edges = 512 KiB payload, large enough to
/// amortize the per-block digest bookkeeping, small enough that a
/// corruption is localized and a streaming consumer stays cache-resident.
inline constexpr uint32_t kBinaryStreamDefaultBlockEdges = 1u << 16;
/// Ceiling on block_edges a header may declare (bounds per-block trust).
inline constexpr uint32_t kBinaryStreamMaxBlockEdges = 1u << 24;

struct BinaryStreamWriteOptions {
  uint32_t block_edges = kBinaryStreamDefaultBlockEdges;
};

/// Writes `edges` as a GPS-STREAM v1 file, preserving arrival order and
/// duplicates (it is a STREAM, not a simplified graph). Refuses edges
/// carrying the kInvalidNode sentinel by name, and block_edges outside
/// [1, kBinaryStreamMaxBlockEdges]. The write is staged
/// (util/staged_file.h): on failure the previous file keeps its bytes.
Status WriteBinaryStream(const std::string& path,
                         std::span<const Edge> edges,
                         const BinaryStreamWriteOptions& options = {});

/// True if `path` is a regular file that starts with the GPS-STREAM
/// magic (how gps_cli picks the decoder for --input). False for anything
/// InputFile refuses (a FIFO at once) and for short files — callers fall
/// back to the text parser, whose errors name the real problem.
bool LooksLikeBinaryStream(const std::string& path);

/// Block reader over a GPS-STREAM file. Open() validates the complete
/// header (magic, version, flags, node width, digest, exact file size);
/// Block(i) reads and digest-checks one block.
class BinaryStreamReader {
 public:
  static Result<BinaryStreamReader> Open(const std::string& path);

  uint64_t edge_count() const { return edge_count_; }
  uint32_t block_edges() const { return block_edges_; }
  size_t num_blocks() const { return num_blocks_; }

  /// Edges of block `index`, read into the reader's buffer (sized by the
  /// block's own edge count) and digest-verified there: a flipped payload
  /// or digest byte is an InvalidArgument naming the block, a file cut
  /// short since Open an IoError naming it. Valid until the next Block.
  Result<std::span<const Edge>> Block(size_t index);

  /// Verifies every block digest (the `convert` post-write check).
  Status VerifyAll();

 private:
  explicit BinaryStreamReader(InputFile file) : file_(std::move(file)) {}

  InputFile file_;
  uint64_t edge_count_ = 0;
  uint32_t block_edges_ = 1;
  size_t num_blocks_ = 0;
  /// One block's payload followed by its digest (as one more Edge).
  std::vector<Edge> block_;
};

}  // namespace gps

#endif  // GPS_GRAPH_BINARY_STREAM_H_
