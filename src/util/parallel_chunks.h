// Fixed-chunk parallel driver whose output never depends on the thread
// count.
//
// The caller cuts its work into chunks of a FIXED size (a constant, never
// derived from the thread count), the threads claim chunk indices from a
// shared counter, and the caller reduces the per-chunk results in chunk
// order afterwards. Each chunk's result is then a pure function of its
// index, so a floating-point reduction in chunk order yields the same bits
// on one thread or sixteen — which thread ran which chunk is never
// observable.

#ifndef GPS_UTIL_PARALLEL_CHUNKS_H_
#define GPS_UTIL_PARALLEL_CHUNKS_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace gps {

/// Number of chunks of `chunk_size` items covering `items` items.
inline size_t NumChunks(size_t items, size_t chunk_size) {
  return (items + chunk_size - 1) / chunk_size;
}

/// Threads ForEachChunk runs on at most: min(threads, num_chunks), at
/// least 1. Size per-worker scratch with it.
inline unsigned ChunkWorkers(size_t num_chunks, unsigned threads) {
  return static_cast<unsigned>(
      std::max<size_t>(1, std::min<size_t>(threads, num_chunks)));
}

/// Calls fn(chunk, worker) once for every chunk in [0, num_chunks) on up
/// to ChunkWorkers(num_chunks, threads) threads — the calling thread is
/// worker 0 — and returns once every call has finished. `worker` indexes
/// per-worker scratch; which worker runs which chunk is unspecified. If a
/// thread cannot be started the others take its chunks (the result is the
/// same); the first exception fn throws is rethrown here after every
/// thread has joined.
template <typename Fn>
void ForEachChunk(size_t num_chunks, unsigned threads, Fn&& fn) {
  const unsigned workers = ChunkWorkers(num_chunks, threads);
  if (workers == 1) {
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) fn(chunk, 0u);
    return;
  }
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu
  const auto run = [&](unsigned worker) {
    try {
      for (size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
           chunk < num_chunks;
           chunk = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(chunk, worker);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned worker = 1; worker < workers; ++worker) {
    try {
      pool.emplace_back(run, worker);
    } catch (const std::system_error&) {
      break;
    }
  }
  run(0);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace gps

#endif  // GPS_UTIL_PARALLEL_CHUNKS_H_
