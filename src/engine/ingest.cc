#include "engine/ingest.h"

#include "graph/binary_stream.h"

namespace gps {

Result<uint64_t> IngestBinaryStream(const std::string& path,
                                    ShardedEngine& engine) {
  auto reader = BinaryStreamReader::Open(path);
  if (!reader.ok()) return reader.status();
  uint64_t fed = 0;
  for (size_t b = 0; b < reader->num_blocks(); ++b) {
    auto block = reader->Block(b);
    if (!block.ok()) {
      return block.status().WithContext(
          path + " block " + std::to_string(b) + " of " +
          std::to_string(reader->num_blocks()));
    }
    engine.ProcessBlock(*block);
    fed += block->size();
  }
  return fed;
}

}  // namespace gps
