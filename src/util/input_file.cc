#include "util/input_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace gps {

InputFile::InputFile(InputFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      size_(other.size_),
      path_(std::move(other.path_)) {}

InputFile::~InputFile() {
  if (fd_ >= 0) ::close(fd_);
}

Result<InputFile> InputFile::Open(const std::string& path) {
  InputFile file;  // closes the descriptor on every refusal below
  // Without O_NONBLOCK, opening a FIFO for reading waits for a writer.
  // It changes nothing for the regular files this reader accepts.
  file.fd_ = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (file.fd_ < 0) {
    return Status::IoError("cannot open '" + path +
                           "' for reading: " + std::strerror(errno));
  }
  struct stat st;
  if (fstat(file.fd_, &st) != 0) {
    return Status::IoError("cannot stat '" + path +
                           "': " + std::strerror(errno));
  }
  if (S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("'" + path +
                                   "' is a directory, not a file");
  }
  if (!S_ISREG(st.st_mode)) {
    return Status::InvalidArgument("'" + path + "' is not a regular file");
  }
  file.size_ = static_cast<uint64_t>(st.st_size);
  file.path_ = path;
  return file;
}

Status InputFile::ReadAt(uint64_t offset, void* out, size_t size) const {
  for (size_t done = 0; done < size;) {
    const ssize_t n = ::pread(fd_, static_cast<char*>(out) + done,
                              size - done, static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Status::IoError("cannot read '" + path_ + "' at byte " +
                             std::to_string(offset + done) + ": " +
                             std::strerror(errno));
    }
    if (n == 0) {  // the file ends before this read does
      struct stat st;
      const uint64_t end = fstat(fd_, &st) == 0
                               ? static_cast<uint64_t>(st.st_size)
                               : offset + done;
      return Status::IoError(
          "'" + path_ + "' was cut short while being read: it ended at byte " +
          std::to_string(end) + " of the " + std::to_string(size_) +
          " it held when opened");
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace gps
