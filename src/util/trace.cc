#include "util/trace.h"

#include <cstdio>
#include <sstream>

#include "util/staged_file.h"

namespace gps {

TraceBuffer* TraceEventSink::MakeBuffer(int tid, std::string thread_name) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.emplace_back(TraceBuffer(tid, std::move(thread_name)));
  return &buffers_.back();
}

size_t TraceEventSink::SpanCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& b : buffers_) total += b.spans_.size();
  return total;
}

uint64_t TraceEventSink::DroppedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& b : buffers_) total += b.dropped_;
  return total;
}

Status TraceEventSink::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  // Thread-name metadata events so chrome://tracing labels each track.
  for (const auto& b : buffers_) {
    out << (first ? "" : ",\n")
        << R"({"name":"thread_name","ph":"M","pid":0,"tid":)" << b.tid_
        << R"(,"args":{"name":")" << b.thread_name_ << "\"}}";
    first = false;
  }
  // Complete ("X") events; trace_event timestamps are microseconds, kept
  // fractional to preserve nanosecond resolution.
  for (const auto& b : buffers_) {
    for (const auto& s : b.spans_) {
      char ts[32], dur[32];
      std::snprintf(ts, sizeof(ts), "%.3f", s.start_ns / 1e3);
      std::snprintf(dur, sizeof(dur), "%.3f",
                    (s.end_ns - s.start_ns) / 1e3);
      out << (first ? "" : ",\n") << R"({"name":")" << s.name
          << R"(","ph":"X","pid":0,"tid":)" << b.tid_ << R"(,"ts":)" << ts
          << R"(,"dur":)" << dur;
      if (s.arg_name != nullptr) {
        out << R"(,"args":{")" << s.arg_name << "\":" << s.arg << "}";
      }
      out << "}";
      first = false;
    }
  }
  out << "\n]}\n";

  // Staged (util/staged_file.h): a failed or interrupted write leaves the
  // previous trace at `path` intact.
  Result<StagedFile> file = StagedFile::Create(path);
  if (!file.ok()) return file.status();
  if (Status s = file->Write(out.str()); !s.ok()) return s;
  return file->Commit();
}

}  // namespace gps
