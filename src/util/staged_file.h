// Crash-consistent file replacement: write a temp file, fsync, rename.
//
// StagedFile writes a file's new contents beside it, under "<path>.tmp",
// with POSIX write(2). Sync() makes them durable and Publish() renames
// the temp file over the target, so the target holds either its old bytes
// or the complete new ones — never a torn mix, even across a crash. A
// StagedFile that is destroyed before it is published removes its temp
// file, so every failure path cleans up after itself.
//
// Writers of several files that must appear together (a checkpoint
// directory) Sync every file, then Publish them in a safe order with a
// SyncDirectory between steps; a single file just calls Commit().

#ifndef GPS_UTIL_STAGED_FILE_H_
#define GPS_UTIL_STAGED_FILE_H_

#include <string>
#include <string_view>
#include <utility>

#include "util/status.h"

namespace gps {

/// The target rule of StagedFile::Create: an IoError naming `path` when
/// something other than a regular file (a device node, a FIFO, a
/// directory) already sits there, which Publish() would replace or fail
/// on. A caller that writes its file at the end of a long run checks the
/// target up front with it.
Status CheckReplaceableTarget(const std::string& path);

class StagedFile {
 public:
  /// Creates "<path>.tmp" for writing, after removing whatever file or
  /// link sits at that name: a link there is never followed, so its
  /// target keeps its bytes. Fails as CheckReplaceableTarget(path) does,
  /// and with an IoError naming the temp file when it cannot be created —
  /// for example when a directory already sits at that name.
  static Result<StagedFile> Create(const std::string& path);

  StagedFile(StagedFile&& other) noexcept;
  StagedFile& operator=(StagedFile&&) = delete;
  /// Closes the temp file and removes it unless it was published.
  ~StagedFile();

  /// Appends `bytes` to the temp file.
  Status Write(std::string_view bytes);

  /// Flushes the temp file to stable storage (fsync) and closes it.
  Status Sync();

  /// Renames the synced temp file over the target. Requires Sync(). The
  /// rename survives a crash once the directory is synced
  /// (SyncDirectory).
  Status Publish();

  /// Publish() to `path` instead of the target, for a file whose name
  /// depends on its bytes (a checkpoint's digest-named shard files). Both
  /// refuse a target that fails CheckReplaceableTarget.
  Status PublishAs(const std::string& path);

  /// Sync, Publish, then SyncDirectory of the target's directory.
  Status Commit();

 private:
  StagedFile(std::string path, std::string temp_path, int fd)
      : path_(std::move(path)), temp_path_(std::move(temp_path)), fd_(fd) {}

  std::string path_;
  std::string temp_path_;
  int fd_ = -1;             // open until Sync()
  bool owns_temp_ = true;   // false once published or moved from
};

/// fsyncs directory `dir` ("" means the working directory) so renames
/// inside it survive a crash.
Status SyncDirectory(const std::string& dir);

}  // namespace gps

#endif  // GPS_UTIL_STAGED_FILE_H_
