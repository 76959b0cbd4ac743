// SlotLog: the hand-off from Algorithm 3's sampling stage to its
// estimation stage when the two run on different threads
// (core/in_stream.h).
//
// The log is a ring of kChunks fixed chunks of kChunkWords 32-bit words
// with one writer and one reader. The writer fills the chunk it holds and
// publishes it when the next unit does not fit; the reader consumes
// published chunks in order and hands each back once it has read it. A
// record may span any number of chunks (a hub's block can be larger than
// one), but its units never straddle two: a record header, a matched
// pair and an admission each sit in one chunk, and a run of block slots
// is read chunk by chunk.
//
// One record per arrival that reaches the sampling step, in arrival
// order:
//
//   z* (2 words)  wedge count n (1)       the header
//   (k1, k2) ...  kNoSlot                 matched pairs, emission order
//   n slot ids                            u's block, then v's
//   admitted slot or kNoSlot, weight (2)  the admission
//
// Waits spin on sched_yield. Both sides wait only while the ring is full
// or empty, so a wait is as short as the other side's work on one chunk.
// A sleeping hand-off was measured against it: the same chunks passed
// through two engine/ring_buffer.h BatchRings (filled chunks one way,
// recycled ones back), with the helper kept off the producer's CPU by
// the same affinity mask (engine/shard.cc). On a K=1 soc-orkut-sim
// ingest (capacity 100000, 4-vCPU VM):
//   * on a quiet host, 12 interleaved rounds: median wall 0.806 s
//     sleeping against 0.803 s spinning, the spin faster in 9 of 12
//     rounds (median ratio 1.05); process CPU 1.40 s against 1.60 s (one
//     thread: 1.41 s wall);
//   * while other guests loaded the host, 12 rounds: median wall 2.71 s
//     sleeping (16K-word chunks: 1.73 s) against 1.02 s spinning, the
//     spin faster in 11 of 12; sleeping runs took up to 3.96 s, more than
//     twice a one-thread ingest.
// A woken side waits for the scheduler once per chunk, and on a busy
// host that wait outlasts the chunk's work. The spin costs system time
// instead: 0.15-0.25 s of sched_yield calls per such ingest.

#ifndef GPS_CORE_SLOT_LOG_H_
#define GPS_CORE_SLOT_LOG_H_

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

#include "graph/intersect.h"

namespace gps {

class SlotLog {
 public:
  /// Words per chunk. Chunks of 4096 words measured as fast as 16K-word
  /// chunks.
  static constexpr size_t kChunkWords = 4096;
  /// Chunks in the ring: the writer runs at most this many chunks ahead.
  static constexpr size_t kChunks = 4;

  /// One record's header.
  struct Header {
    double z_star = 0.0;
    uint32_t wedge_slots = 0;
  };

  SlotLog()
      : words_(new uint32_t[kChunks * kChunkWords]),
        w_begin_(words_.get()),
        w_pos_(w_begin_),
        w_end_(w_begin_ + kChunkWords) {}
  SlotLog(const SlotLog&) = delete;
  SlotLog& operator=(const SlotLog&) = delete;

  // ---- Writer (the sampling stage) ----

  void PutHeader(double z_star, uint32_t wedge_slots) {
    uint32_t* out = Reserve(3);
    std::memcpy(out, &z_star, sizeof(z_star));
    out[2] = wedge_slots;
  }

  void PutPair(SlotId k1, SlotId k2) {
    uint32_t* out = Reserve(2);
    out[0] = k1;
    out[1] = k2;
  }

  void EndPairs() { *Reserve(1) = kNoSlot; }

  /// Appends the slot ids of `block`'s entries, in block order.
  void PutSlots(std::span<const AdjEntry> block) {
    while (!block.empty()) {
      if (w_pos_ == w_end_) NextWriteChunk();
      const size_t n =
          std::min(block.size(), static_cast<size_t>(w_end_ - w_pos_));
      for (size_t i = 0; i < n; ++i) w_pos_[i] = block[i].slot;
      w_pos_ += n;
      block = block.subspan(n);
    }
  }

  void PutAdmission(SlotId slot, double weight) {
    uint32_t* out = Reserve(3);
    out[0] = slot;
    std::memcpy(out + 1, &weight, sizeof(weight));
  }

  /// Publishes what is written and ends the log: the reader stops once it
  /// has read every published chunk.
  void Close() {
    if (w_pos_ != w_begin_) Publish();
    closed_.store(true, std::memory_order_release);
  }

  // ---- Reader (the estimation stage) ----

  /// Reads the next record's header; false once the log is closed and
  /// every record has been read.
  bool NextRecord(Header* header) {
    if (r_pos_ == r_end_ && !NextReadChunk()) return false;
    std::memcpy(&header->z_star, r_pos_, sizeof(header->z_star));
    header->wedge_slots = r_pos_[2];
    r_pos_ += 3;
    return true;
  }

  /// Reads the record's next matched pair; false at the end of its pairs.
  bool NextPair(SlotId* k1, SlotId* k2) {
    if (r_pos_ == r_end_) NextChunkInRecord();
    const SlotId first = *r_pos_;
    if (first == kNoSlot) {
      ++r_pos_;
      return false;
    }
    *k1 = first;
    *k2 = r_pos_[1];
    r_pos_ += 2;
    return true;
  }

  /// The next run of at most `max` (> 0) block slot ids: everything left
  /// of them in the current chunk.
  std::span<const uint32_t> ReadSlots(size_t max) {
    if (r_pos_ == r_end_) NextChunkInRecord();
    const size_t n = std::min(max, static_cast<size_t>(r_end_ - r_pos_));
    const std::span<const uint32_t> run(r_pos_, n);
    r_pos_ += n;
    return run;
  }

  /// Reads the record's admission: the slot the arrival was stored in
  /// (kNoSlot if it was not sampled) and its weight.
  void ReadAdmission(SlotId* slot, double* weight) {
    if (r_pos_ == r_end_) NextChunkInRecord();
    *slot = r_pos_[0];
    std::memcpy(weight, r_pos_ + 1, sizeof(*weight));
    r_pos_ += 3;
  }

 private:
  uint32_t* Chunk(uint64_t n) {
    return words_.get() + (n % kChunks) * kChunkWords;
  }

  /// Room for `n` contiguous words in the chunk being written.
  uint32_t* Reserve(size_t n) {
    if (static_cast<size_t>(w_end_ - w_pos_) < n) NextWriteChunk();
    uint32_t* out = w_pos_;
    w_pos_ += n;
    return out;
  }

  void Publish() {
    sizes_[w_published_ % kChunks] =
        static_cast<uint32_t>(w_pos_ - w_begin_);
    published_.store(++w_published_, std::memory_order_release);
  }

  void NextWriteChunk() {
    Publish();
    // The next chunk is free once the reader has handed back the one
    // kChunks behind it.
    while (w_published_ - consumed_.load(std::memory_order_acquire) >=
           kChunks) {
      sched_yield();
    }
    w_begin_ = w_pos_ = Chunk(w_published_);
    w_end_ = w_begin_ + kChunkWords;
  }

  /// Hands the chunk being read back and waits for the next one; false
  /// once the log is closed and drained.
  bool NextReadChunk() {
    if (r_pos_ != nullptr) {
      consumed_.store(++r_chunks_, std::memory_order_release);
      r_pos_ = r_end_ = nullptr;
    }
    for (;;) {
      // Read `closed_` first: a writer publishes before it closes, so a
      // closed log with nothing newly published is drained.
      const bool closed = closed_.load(std::memory_order_acquire);
      if (published_.load(std::memory_order_acquire) > r_chunks_) break;
      if (closed) return false;
      sched_yield();
    }
    r_pos_ = Chunk(r_chunks_);
    r_end_ = r_pos_ + sizes_[r_chunks_ % kChunks];
    assert(r_pos_ != r_end_);
    return true;
  }

  /// A record continues in the next chunk: the writer closes the log
  /// only between records.
  void NextChunkInRecord() {
    const bool more = NextReadChunk();
    assert(more && "log closed inside a record");
    (void)more;
  }

  std::unique_ptr<uint32_t[]> words_;
  uint32_t sizes_[kChunks] = {};  // words written, per published chunk

  // What each side writes sits on its own cache line.
  alignas(64) std::atomic<uint64_t> published_{0};
  std::atomic<bool> closed_{false};
  alignas(64) std::atomic<uint64_t> consumed_{0};

  // Writer-only state.
  alignas(64) uint32_t* w_begin_ = nullptr;
  uint32_t* w_pos_ = nullptr;
  uint32_t* w_end_ = nullptr;
  uint64_t w_published_ = 0;

  // Reader-only state.
  alignas(64) const uint32_t* r_pos_ = nullptr;
  const uint32_t* r_end_ = nullptr;
  uint64_t r_chunks_ = 0;
};

}  // namespace gps

#endif  // GPS_CORE_SLOT_LOG_H_
