// PackedSampleStore: budget-sized SoA storage for reservoir edge records.
//
// The reservoir used to keep an AoS std::vector<EdgeRecord> whose size was
// `--capacity` guesswork. This store packs the same records into parallel
// structure-of-arrays columns (edge keys, weights, priorities, liveness)
// sized ONCE from a StoreLayout, so a `--mem`
// byte budget translates into a derived capacity and a predictable
// resident footprint instead of allocator noise. The idiom follows
// mccortex's packed gpath_hash (fixed arena, capacity derived from the
// memory argument) and plf_hive's stable-slot storage: slots are recycled
// through a free list, so a SlotId handed out for an admitted edge stays
// valid — and keeps meaning that edge — until the edge is freed, no
// matter how much churn surrounds it. Snapshot, serialize, and adjacency
// code all hold SlotIds across evictions and depend on that stability.
//
// Who owns what: the store holds what sampling needs, 25 B per slot. The
// in-stream covariance accumulators C̃_k(△) and C̃_k(Λ) of Algorithm 3
// belong to the estimation stage, so InStreamEstimator keeps them in its
// own per-slot records (24 B with a copy of the weight; core/in_stream.h),
// and a post-stream reservoir carries none.
//
// Layout terms (StoreLayout): the store's slot columns, the in-stream
// records (only in a run that keeps Algorithm 3's estimator), the
// priority heap, the adjacency arena and the node index, each m times its
// per-slot bytes, plus a flat fixed overhead. A budget derives the
// largest m whose terms fit.
//
// Concurrency: the store is single-writer (the thread that runs the
// reservoir's sampling stage); readers take it only under the engine's
// drain handshake.

#ifndef GPS_CORE_PACKED_STORE_H_
#define GPS_CORE_PACKED_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/sampled_graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace gps {

/// Per-sampled-edge record, materialized from the SoA columns. (Formerly
/// nested in GpsReservoir; hoisted so the store does not depend on the
/// reservoir. GpsReservoir::EdgeRecord remains an alias.)
struct EdgeRecord {
  Edge edge;
  double weight = 0.0;
  double priority = 0.0;
};

/// How a reservoir's bytes were sized: either an explicit capacity
/// (budget_bytes == 0, the legacy `--capacity` path) or a `--mem` budget
/// from which the capacity was derived. The byte fields are the
/// derivation formula's terms, surfaced verbatim in the startup
/// allocation report.
struct StoreLayout {
  uint64_t budget_bytes = 0;  ///< 0 = explicit capacity, no budget.
  size_t capacity = 0;        ///< reservoir capacity m.
  uint64_t slot_bytes = 0;       ///< the store's SoA record columns.
  uint64_t record_bytes = 0;     ///< in-stream records (0 without).
  uint64_t heap_bytes = 0;       ///< priority min-heap items.
  uint64_t adjacency_bytes = 0;  ///< arena blocks (incl. size-class slack).
  uint64_t node_index_bytes = 0; ///< open-addressing node table at its
                                 ///< 7/8 load-factor cap.
  uint64_t total_bytes = 0;
};

/// Derivation-formula terms, exposed for tests and documentation.
/// Per-slot costs (bytes per reservoir slot, counting the +1 transient):
///   slots: 8 (edge key) + 2*8 (weight/priority) + 1 (live)
///   in-stream records: 3*8 (weight, cov_tri, cov_wedge), only in a run
///                      that keeps Algorithm 3's estimator
///   heap:  16 (priority + slot, padded)
///   adjacency: 2 directed entries * 8 bytes, doubled for pow2
///              size-class slack
///   node index: <= 2 nodes/edge * 17 bytes/bucket (key + block ref +
///               ctrl), doubled for the 7/8 load cap + pow2 rounding
inline constexpr uint64_t kStoreSlotBytes = 25;
inline constexpr uint64_t kInStreamRecordBytes = 24;
inline constexpr uint64_t kStoreHeapBytes = 16;
inline constexpr uint64_t kStoreAdjacencyBytes = 32;
inline constexpr uint64_t kStoreNodeIndexBytes = 48;
/// Bytes per slot of a reservoir alone (a post-stream run).
inline constexpr uint64_t kStoreBytesPerSlot =
    kStoreSlotBytes + kStoreHeapBytes + kStoreAdjacencyBytes +
    kStoreNodeIndexBytes;
/// Budget headroom reserved for fixed structures (vector headers, free
/// list) independent of capacity.
inline constexpr uint64_t kStoreFixedBytes = 4096;

/// Bytes per slot of a run: the reservoir's, plus the in-stream record
/// when the run keeps Algorithm 3's estimator (`in_stream`).
constexpr uint64_t BytesPerSlot(bool in_stream) {
  return kStoreBytesPerSlot + (in_stream ? kInStreamRecordBytes : 0);
}

/// The layout an explicit capacity implies (budget recorded verbatim;
/// pass 0 for the legacy path). `in_stream` as for BytesPerSlot.
StoreLayout LayoutForCapacity(size_t capacity, uint64_t budget_bytes,
                              bool in_stream);

/// Derives the largest capacity whose layout fits `budget_bytes`
/// (monotone formula, so this is exact, not a guess). Named refusal when
/// the budget cannot hold even one slot.
Result<StoreLayout> DeriveStoreLayout(uint64_t budget_bytes, bool in_stream);

/// Multi-line human-readable allocation report, printed at startup when
/// a budget is in force and archived next to bench artifacts in CI.
std::string FormatAllocationReport(const StoreLayout& layout);

class PackedSampleStore {
 public:
  /// Preallocates every column for `capacity` + 1 slots (the transient
  /// candidate during a full-reservoir insert). No allocation happens
  /// after construction; growth past the layout is a named refusal.
  explicit PackedSampleStore(size_t capacity);

  /// Hands out a stable SlotId: recycled from the free list when
  /// available (plf_hive idiom — ids freed by evictions are reused, ids
  /// of live records never move), else the next unused slot. Refuses —
  /// by name, not by reallocating — if the preallocated layout is
  /// exhausted.
  Result<SlotId> TryAllocate();

  /// TryAllocate for callers whose invariants guarantee room (the
  /// reservoir evicts before allocating); asserts instead of refusing.
  SlotId Allocate();

  /// Returns `slot` to the free list. The record's columns are left
  /// as-is; liveness is cleared.
  void Free(SlotId slot);

  /// Writes all columns of `slot` from `record` and marks it live.
  void Store(SlotId slot, const EdgeRecord& record);

  /// Materializes the record held in `slot`.
  EdgeRecord Record(SlotId slot) const {
    return EdgeRecord{EdgeFromKey(keys_[slot]), weights_[slot],
                      priorities_[slot]};
  }

  // Column accessors for hot paths that need one field, not a
  // materialized record.
  Edge edge(SlotId slot) const { return EdgeFromKey(keys_[slot]); }
  double weight(SlotId slot) const { return weights_[slot]; }
  double priority(SlotId slot) const { return priorities_[slot]; }

  bool live(SlotId slot) const { return live_[slot] != 0; }

  /// Slots ever touched (high-water mark) and currently live.
  size_t num_slots() const { return used_; }
  size_t live_slots() const { return used_ - free_.size(); }
  size_t slot_capacity() const { return cap_; }

 private:
  size_t cap_ = 0;   // preallocated slots (capacity + 1)
  size_t used_ = 0;  // high-water mark of handed-out slots
  std::vector<uint64_t> keys_;
  std::vector<double> weights_;
  std::vector<double> priorities_;
  std::vector<uint8_t> live_;
  std::vector<SlotId> free_;
};

}  // namespace gps

#endif  // GPS_CORE_PACKED_STORE_H_
