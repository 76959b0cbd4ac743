#include "util/staged_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <filesystem>
#include <system_error>
#include <utility>

namespace gps {
namespace {

/// strerror text for `err`; thread-safe, unlike strerror itself (shard
/// files are written from several threads at once).
std::string ErrnoText(int err) {
  return std::generic_category().message(err);
}

}  // namespace

Status CheckReplaceableTarget(const std::string& path) {
  // Publish() renames over the target: a device node, FIFO or directory
  // there would be replaced by (or refuse) a regular file.
  struct stat target;
  if (::stat(path.c_str(), &target) == 0 && !S_ISREG(target.st_mode)) {
    return Status::IoError("cannot replace '" + path +
                           "': not a regular file");
  }
  return Status::Ok();
}

Result<StagedFile> StagedFile::Create(const std::string& path) {
  if (Status s = CheckReplaceableTarget(path); !s.ok()) return s;
  std::string temp_path = path + ".tmp";
  // A stale temp file (a killed run's) goes, and the name is created anew:
  // opening whatever sits there would follow a symlink, or truncate a
  // file shared through a hard link, and write the new bytes into it.
  int fd = -1;
  if (::unlink(temp_path.c_str()) == 0 || errno == ENOENT) {
    fd = ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                0666);
  }
  if (fd < 0) {
    const int err = errno;
    return Status::IoError("cannot create '" + temp_path +
                           "': " + ErrnoText(err));
  }
  return StagedFile(path, std::move(temp_path), fd);
}

StagedFile::StagedFile(StagedFile&& other) noexcept
    : path_(std::move(other.path_)),
      temp_path_(std::move(other.temp_path_)),
      fd_(std::exchange(other.fd_, -1)),
      owns_temp_(std::exchange(other.owns_temp_, false)) {}

StagedFile::~StagedFile() {
  if (fd_ >= 0) ::close(fd_);
  if (owns_temp_) ::unlink(temp_path_.c_str());
}

Status StagedFile::Write(std::string_view bytes) {
  assert(fd_ >= 0 && "Write after Sync");
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd_, bytes.data(), bytes.size());
    if (n < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      return Status::IoError("cannot write '" + temp_path_ +
                             "': " + ErrnoText(err));
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return Status::Ok();
}

Status StagedFile::Sync() {
  assert(fd_ >= 0 && "Sync called twice");
  if (::fsync(fd_) != 0) {
    const int err = errno;
    return Status::IoError("cannot fsync '" + temp_path_ +
                           "': " + ErrnoText(err));
  }
  if (::close(std::exchange(fd_, -1)) != 0) {
    const int err = errno;
    return Status::IoError("cannot close '" + temp_path_ +
                           "': " + ErrnoText(err));
  }
  return Status::Ok();
}

Status StagedFile::Publish() { return PublishAs(path_); }

Status StagedFile::PublishAs(const std::string& path) {
  assert(fd_ < 0 && owns_temp_ && "Publish needs a synced, unpublished file");
  if (Status s = CheckReplaceableTarget(path); !s.ok()) return s;
  if (::rename(temp_path_.c_str(), path.c_str()) != 0) {
    const int err = errno;
    return Status::IoError("cannot rename '" + temp_path_ + "' over '" +
                           path + "': " + ErrnoText(err));
  }
  owns_temp_ = false;
  return Status::Ok();
}

Status StagedFile::Commit() {
  if (Status s = Sync(); !s.ok()) return s;
  if (Status s = Publish(); !s.ok()) return s;
  return SyncDirectory(std::filesystem::path(path_).parent_path().string());
}

Status SyncDirectory(const std::string& dir) {
  const std::string name = dir.empty() ? "." : dir;
  const int fd = ::open(name.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    return Status::IoError("cannot open directory '" + name +
                           "': " + ErrnoText(err));
  }
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  // EINVAL: the filesystem cannot sync a directory; its renames are then
  // as durable as it makes them.
  if (rc != 0 && err != EINVAL) {
    return Status::IoError("cannot fsync directory '" + name +
                           "': " + ErrnoText(err));
  }
  return Status::Ok();
}

}  // namespace gps
