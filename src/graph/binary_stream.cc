#include "graph/binary_stream.h"

#include <bit>
#include <cstring>
#include <string_view>

#include "util/digest.h"
#include "util/staged_file.h"
#include "util/text_writer.h"

namespace gps {
namespace {

// A block payload IS an Edge array: the reader reads its bytes straight
// into an Edge buffer. Pin every assumption that relies on at compile
// time.
static_assert(sizeof(Edge) == 8, "GPS-STREAM stores edges as 8 bytes");
static_assert(sizeof(NodeId) == 4, "GPS-STREAM v1 is 4-byte node ids");
static_assert(std::is_trivially_copyable_v<Edge>);
static_assert(std::endian::native == std::endian::little,
              "GPS-STREAM block reads require a little-endian host; "
              "add a byte-swapping copy path before porting");

constexpr uint32_t kVersion = 1;
constexpr uint8_t kNodeWidth = 4;
constexpr size_t kBlockDigestBytes = 8;
/// Header bytes covered by the header digest (everything before it).
constexpr size_t kHeaderDigestedBytes = 32;

void StoreU32(unsigned char* p, uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

void StoreU64(unsigned char* p, uint64_t v) {
  StoreU32(p, static_cast<uint32_t>(v));
  StoreU32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t LoadU32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t LoadU64(const unsigned char* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         (static_cast<uint64_t>(LoadU32(p + 4)) << 32);
}

size_t BlockCount(uint64_t edge_count, uint32_t block_edges) {
  return edge_count == 0
             ? 0
             : static_cast<size_t>((edge_count + block_edges - 1) /
                                   block_edges);
}

std::string HexFlags(uint32_t flags) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", flags);
  return buf;
}

}  // namespace

int BinaryStreamFormatVersion() { return static_cast<int>(kVersion); }

Status WriteBinaryStream(const std::string& path,
                         std::span<const Edge> edges,
                         const BinaryStreamWriteOptions& options) {
  if (options.block_edges < 1 ||
      options.block_edges > kBinaryStreamMaxBlockEdges) {
    return Status::InvalidArgument(
        "GPS-STREAM block size " + std::to_string(options.block_edges) +
        " out of range [1, " + std::to_string(kBinaryStreamMaxBlockEdges) +
        "]");
  }
  for (size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].u == kInvalidNode || edges[i].v == kInvalidNode) {
      return Status::InvalidArgument(
          "edge " + std::to_string(i) +
          " carries the invalid-node sentinel; refusing to write it into "
          "a GPS-STREAM file");
    }
  }

  // Staged (util/staged_file.h): a failed or interrupted write leaves the
  // previous file at `path` intact.
  Result<StagedFile> file = StagedFile::Create(path);
  if (!file.ok()) return file.status();
  TextWriter out([&](std::string_view chunk) { return file->Write(chunk); });
  const auto bytes = [](const void* data, size_t n) {
    return std::string_view(static_cast<const char*>(data), n);
  };

  unsigned char header[kBinaryStreamHeaderBytes] = {};
  std::memcpy(header, kBinaryStreamMagic, sizeof(kBinaryStreamMagic));
  StoreU32(header + 8, kVersion);
  StoreU32(header + 12, 0);  // flags: v1 defines none
  header[16] = kNodeWidth;   // bytes 17-19 stay zero (reserved)
  StoreU64(header + 20, edges.size());
  StoreU32(header + 28, options.block_edges);
  StoreU64(header + kHeaderDigestedBytes,
           Fnv1a64Words(header, kHeaderDigestedBytes));
  out.Text(bytes(header, sizeof(header)));

  const size_t blocks = BlockCount(edges.size(), options.block_edges);
  for (size_t b = 0; b < blocks; ++b) {
    const size_t begin = b * options.block_edges;
    const size_t n =
        std::min<size_t>(options.block_edges, edges.size() - begin);
    const size_t payload_bytes = n * sizeof(Edge);
    out.Text(bytes(edges.data() + begin, payload_bytes));
    unsigned char digest[kBlockDigestBytes];
    StoreU64(digest, Fnv1a64Words(edges.data() + begin, payload_bytes));
    out.Text(bytes(digest, sizeof(digest)));
  }
  if (Status s = out.Finish(); !s.ok()) return s;
  return file->Commit();
}

bool LooksLikeBinaryStream(const std::string& path) {
  Result<InputFile> file = InputFile::Open(path);
  char magic[sizeof(kBinaryStreamMagic)];
  return file.ok() && file->size() >= sizeof(magic) &&
         file->ReadAt(0, magic, sizeof(magic)).ok() &&
         std::memcmp(magic, kBinaryStreamMagic, sizeof(magic)) == 0;
}

Result<BinaryStreamReader> BinaryStreamReader::Open(
    const std::string& path) {
  auto file = InputFile::Open(path);
  if (!file.ok()) return file.status();

  BinaryStreamReader reader(std::move(*file));
  const uint64_t size = reader.file_.size();
  if (size < kBinaryStreamHeaderBytes) {
    return Status::InvalidArgument(
        "truncated GPS-STREAM header in '" + path + "' (" +
        std::to_string(size) + " bytes, need " +
        std::to_string(kBinaryStreamHeaderBytes) + ")");
  }
  unsigned char bytes[kBinaryStreamHeaderBytes];
  if (Status s = reader.file_.ReadAt(0, bytes, sizeof(bytes)); !s.ok()) {
    return s;
  }
  if (std::memcmp(bytes, kBinaryStreamMagic, sizeof(kBinaryStreamMagic)) !=
      0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a GPS-STREAM file (bad magic)");
  }
  // Digest before interpretation: a corrupt header must not be trusted
  // even for its error message. A future-version writer keeps this digest
  // scheme, so a valid v2 file reaches the version refusal below.
  const uint64_t header_digest = LoadU64(bytes + kHeaderDigestedBytes);
  if (Fnv1a64Words(bytes, kHeaderDigestedBytes) != header_digest) {
    return Status::InvalidArgument("GPS-STREAM header digest mismatch in '" +
                                   path + "' (corrupt header)");
  }
  const uint32_t version = LoadU32(bytes + 8);
  if (version != kVersion) {
    return Status::InvalidArgument(
        "unsupported GPS-STREAM version " + std::to_string(version) +
        " in '" + path + "' (this build reads v" +
        std::to_string(kVersion) + ")");
  }
  const uint32_t flags = LoadU32(bytes + 12);
  if (flags != 0) {
    return Status::InvalidArgument("unknown GPS-STREAM flags " +
                                   HexFlags(flags) + " in '" + path +
                                   "' (v1 defines none)");
  }
  if (bytes[16] != kNodeWidth) {
    return Status::InvalidArgument(
        "unsupported GPS-STREAM node-id width " +
        std::to_string(static_cast<int>(bytes[16])) + " in '" + path +
        "' (this build reads " + std::to_string(kNodeWidth) + "-byte ids)");
  }
  if (bytes[17] != 0 || bytes[18] != 0 || bytes[19] != 0) {
    return Status::InvalidArgument(
        "nonzero reserved header bytes in GPS-STREAM file '" + path + "'");
  }
  reader.edge_count_ = LoadU64(bytes + 20);
  reader.block_edges_ = LoadU32(bytes + 28);
  if (reader.block_edges_ < 1 ||
      reader.block_edges_ > kBinaryStreamMaxBlockEdges) {
    return Status::InvalidArgument(
        "GPS-STREAM block size " + std::to_string(reader.block_edges_) +
        " out of range [1, " + std::to_string(kBinaryStreamMaxBlockEdges) +
        "] in '" + path + "'");
  }
  // The header fully determines the file size; enforce it exactly so a
  // truncated tail or appended garbage is a refusal, not a silent
  // short/long read. Guard the arithmetic against absurd headers first.
  if (reader.edge_count_ > (uint64_t{1} << 55)) {
    return Status::InvalidArgument(
        "implausible GPS-STREAM edge count " +
        std::to_string(reader.edge_count_) + " in '" + path + "'");
  }
  reader.num_blocks_ = BlockCount(reader.edge_count_, reader.block_edges_);
  const uint64_t expected = kBinaryStreamHeaderBytes +
                            reader.edge_count_ * sizeof(Edge) +
                            reader.num_blocks_ * kBlockDigestBytes;
  if (size < expected) {
    return Status::InvalidArgument(
        "truncated GPS-STREAM file '" + path + "' (" + std::to_string(size) +
        " bytes, header implies " + std::to_string(expected) + ")");
  }
  if (size > expected) {
    return Status::InvalidArgument(
        "trailing bytes after the final GPS-STREAM block in '" + path +
        "' (" + std::to_string(size) + " bytes, header implies " +
        std::to_string(expected) + ")");
  }
  return reader;
}

Result<std::span<const Edge>> BinaryStreamReader::Block(size_t index) {
  if (index >= num_blocks_) {
    return Status::OutOfRange("GPS-STREAM block index " +
                              std::to_string(index) + " out of range (" +
                              std::to_string(num_blocks_) + " blocks)");
  }
  const uint64_t full_block_bytes =
      uint64_t{block_edges_} * sizeof(Edge) + kBlockDigestBytes;
  const uint64_t offset = kBinaryStreamHeaderBytes + index * full_block_bytes;
  // Open checked the file size against the header, so n edges are in the
  // file as opened; the buffer holds them and the digest word.
  const size_t n =
      index + 1 < num_blocks_
          ? block_edges_
          : static_cast<size_t>(edge_count_ -
                                static_cast<uint64_t>(index) * block_edges_);
  block_.resize(n + 1);
  if (Status s = file_.ReadAt(offset, block_.data(), (n + 1) * sizeof(Edge));
      !s.ok()) {
    return s.WithContext("GPS-STREAM block " + std::to_string(index));
  }
  const size_t payload_bytes = n * sizeof(Edge);
  const uint64_t stored =
      LoadU64(reinterpret_cast<const unsigned char*>(block_.data() + n));
  if (Fnv1a64Words(block_.data(), payload_bytes) != stored) {
    return Status::InvalidArgument(
        "GPS-STREAM block " + std::to_string(index) +
        " digest mismatch in '" + file_.path() +
        "' (corrupt payload or digest)");
  }
  // A digest-valid but hand-crafted file could still smuggle the
  // invalid-node sentinel past the writer's refusal; keep it out of the
  // estimators. Cheap next to the per-byte digest pass above.
  for (size_t i = 0; i < n; ++i) {
    if (block_[i].u == kInvalidNode || block_[i].v == kInvalidNode) {
      return Status::InvalidArgument(
          "invalid node id in GPS-STREAM block " + std::to_string(index) +
          " of '" + file_.path() + "'");
    }
  }
  return std::span<const Edge>(block_.data(), n);
}

Status BinaryStreamReader::VerifyAll() {
  for (size_t b = 0; b < num_blocks_; ++b) {
    if (auto block = Block(b); !block.ok()) return block.status();
  }
  return Status::Ok();
}

}  // namespace gps
