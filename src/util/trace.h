// Chrome trace_event recorder: per-thread span buffers flushed to a
// chrome://tracing / Perfetto-loadable JSON file.
//
// Usage: the owner (ShardedEngine) creates one TraceEventSink, hands each
// worker a TraceBuffer* via MakeBuffer(tid, thread_name), and workers
// record spans through the RAII TraceSpan helper. Buffers are append-only
// and touched by exactly one thread; the sink only walks them in
// WriteJson(), which callers invoke after workers quiesce (post-Drain).
//
// Tracing is runtime-gated, not compile-gated: a null TraceBuffer* makes
// every TraceSpan a no-op (two branch instructions per span, paid once per
// *batch*, not per edge). Like metrics, tracing is observation-only and
// never perturbs sampling decisions.

#ifndef GPS_UTIL_TRACE_H_
#define GPS_UTIL_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace gps {

class TraceEventSink;

/// Single-writer span buffer. Obtained from TraceEventSink::MakeBuffer;
/// owned by the sink, written by one thread.
class TraceBuffer {
 public:
  /// One completed span ("ph":"X" in trace_event terms).
  struct Span {
    const char* name;    // static-lifetime label, e.g. "batch"
    uint64_t start_ns;   // relative to the sink's epoch
    uint64_t end_ns;
    int64_t arg = -1;    // optional numeric arg (batch index, victim id...)
    const char* arg_name = nullptr;  // static-lifetime arg key
  };

  void AddSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
               const char* arg_name = nullptr, int64_t arg = -1) {
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{name, start_ns, end_ns, arg, arg_name});
  }

  uint64_t dropped() const { return dropped_; }

 private:
  friend class TraceEventSink;
  // Cap memory per thread: 1M spans x 40B is the pathological ceiling; a
  // 1M-edge run with batch=1024 records ~1k spans per worker.
  static constexpr size_t kMaxSpans = 1 << 20;

  TraceBuffer(int tid, std::string thread_name)
      : tid_(tid), thread_name_(std::move(thread_name)) {}

  int tid_;
  std::string thread_name_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Owns all TraceBuffers for one engine run and serializes them to Chrome
/// trace JSON. MakeBuffer is thread-safe; WriteJson requires writers to be
/// quiescent.
class TraceEventSink {
 public:
  TraceEventSink() : epoch_(std::chrono::steady_clock::now()) {}
  TraceEventSink(const TraceEventSink&) = delete;
  TraceEventSink& operator=(const TraceEventSink&) = delete;

  /// Registers a new single-writer buffer shown as thread `tid` named
  /// `thread_name` in the trace viewer. The sink keeps ownership.
  TraceBuffer* MakeBuffer(int tid, std::string thread_name);

  /// Nanoseconds since the sink was created (span timestamp base).
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Writes all recorded spans as {"traceEvents":[...]} to `path`,
  /// staged (util/staged_file.h): on failure the previous file keeps its
  /// bytes. Call only after all writing threads have quiesced.
  Status WriteJson(const std::string& path) const;

  /// Total spans recorded across all buffers (for tests/diagnostics).
  size_t SpanCount() const;
  /// Total spans dropped due to per-buffer caps.
  uint64_t DroppedCount() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;                // guards buffers_ growth
  std::deque<TraceBuffer> buffers_;      // deque: stable addresses
};

/// RAII span recorder. Null `buffer` disables recording. The name (and
/// optional arg name) must have static lifetime.
class TraceSpan {
 public:
  TraceSpan(TraceEventSink* sink, TraceBuffer* buffer, const char* name)
      : sink_(sink), buffer_(buffer), name_(name) {
    if (buffer_ != nullptr) start_ns_ = sink_->NowNs();
  }
  ~TraceSpan() {
    if (buffer_ != nullptr) {
      buffer_->AddSpan(name_, start_ns_, sink_->NowNs(), arg_name_, arg_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches one numeric argument shown in the viewer's detail pane.
  void SetArg(const char* arg_name, int64_t value) {
    arg_name_ = arg_name;
    arg_ = value;
  }

 private:
  TraceEventSink* sink_;
  TraceBuffer* buffer_;
  const char* name_;
  uint64_t start_ns_ = 0;
  const char* arg_name_ = nullptr;
  int64_t arg_ = -1;
};

}  // namespace gps

#endif  // GPS_UTIL_TRACE_H_
