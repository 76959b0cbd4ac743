// Streaming text formatter for the checkpoint formats.
//
// TextWriter formats text, integers and doubles into one fixed buffer and
// hands the buffer to a ByteSink each time it fills, so a writer holds at
// most kChunkBytes of its output however large the payload. Numbers go
// through std::to_chars: integers in decimal, doubles with 17 significant
// digits in chars_format::general — the same bytes as printf("%.17g"),
// which round-trip every double exactly, without printf's format parsing
// or locale.

#ifndef GPS_UTIL_TEXT_WRITER_H_
#define GPS_UTIL_TEXT_WRITER_H_

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <string_view>
#include <utility>

#include "util/status.h"

namespace gps {

/// Receives a writer's output in order, one chunk at a time. A non-OK
/// return aborts the write: the sink is not called again, and the writer
/// reports that status.
using ByteSink = std::function<Status(std::string_view chunk)>;

/// A sink that appends every chunk to `out`; IoError once the stream fails.
inline ByteSink StreamSink(std::ostream& out) {
  return [&out](std::string_view chunk) {
    out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    return out ? Status::Ok()
               : Status::IoError("write failure while serializing");
  };
}

class TextWriter {
 public:
  /// Buffer size: no chunk handed to the sink is larger.
  static constexpr size_t kChunkBytes = size_t{64} << 10;

  explicit TextWriter(ByteSink sink)
      : sink_(std::move(sink)), buf_(new char[kChunkBytes]) {}

  TextWriter(const TextWriter&) = delete;
  TextWriter& operator=(const TextWriter&) = delete;

  TextWriter& Text(std::string_view text) {
    while (!text.empty()) {
      if (used_ == kChunkBytes) Flush();
      const size_t n = std::min(text.size(), kChunkBytes - used_);
      std::memcpy(buf_.get() + used_, text.data(), n);
      used_ += n;
      text.remove_prefix(n);
    }
    return *this;
  }

  TextWriter& Char(char c) {
    if (used_ == kChunkBytes) Flush();
    buf_[used_++] = c;
    return *this;
  }

  template <std::integral T>
  TextWriter& Int(T value) {
    char* out = Reserve();
    Advance(std::to_chars(out, out + kMaxField, value).ptr);
    return *this;
  }

  /// Round-trip-exact: the bytes of printf("%.17g", value).
  TextWriter& Double(double value) {
    char* out = Reserve();
    Advance(std::to_chars(out, out + kMaxField, value,
                          std::chars_format::general, 17)
                .ptr);
    return *this;
  }

  /// Hands the buffered tail to the sink. Returns the first sink error,
  /// or OK once every byte has been accepted.
  Status Finish() {
    Flush();
    return status_;
  }

 private:
  /// Room one number needs: "%.17g" is at most 24 characters (sign, 17
  /// digits, point, "e-308"), a 64-bit integer at most 20.
  static constexpr size_t kMaxField = 32;

  char* Reserve() {
    if (kChunkBytes - used_ < kMaxField) Flush();
    return buf_.get() + used_;
  }

  void Advance(const char* end) {
    used_ = static_cast<size_t>(end - buf_.get());
  }

  void Flush() {
    if (status_.ok() && used_ > 0) {
      status_ = sink_(std::string_view(buf_.get(), used_));
    }
    used_ = 0;
  }

  ByteSink sink_;
  std::unique_ptr<char[]> buf_;
  size_t used_ = 0;
  Status status_;
};

}  // namespace gps

#endif  // GPS_UTIL_TEXT_WRITER_H_
