// Read-only input files, read by offset. Both stream readers
// (graph/binary_stream, EdgeList::Load) read through this one reader
// into buffers they own, so a file cut short while it is read is a named
// error, never a fault on a page that no longer exists.

#ifndef GPS_UTIL_INPUT_FILE_H_
#define GPS_UTIL_INPUT_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace gps {

/// An open regular file. Move-only; closes on destruction.
class InputFile {
 public:
  /// Opens `path` without blocking, so a FIFO with no writer is refused
  /// at once. Named refusals: missing or unreadable file (IoError), a
  /// directory or any other non-regular file (InvalidArgument).
  static Result<InputFile> Open(const std::string& path);

  InputFile(InputFile&& other) noexcept;
  ~InputFile();

  const std::string& path() const { return path_; }
  /// The file's size when it was opened.
  uint64_t size() const { return size_; }

  /// Fills `out` with the `size` bytes at `offset`. A file that now ends
  /// before them is an IoError naming the path, where the file ended and
  /// its size at open.
  Status ReadAt(uint64_t offset, void* out, size_t size) const;

 private:
  InputFile() = default;

  int fd_ = -1;
  uint64_t size_ = 0;
  std::string path_;
};

}  // namespace gps

#endif  // GPS_UTIL_INPUT_FILE_H_
