// PackedSampleStore: budget-sized SoA storage for reservoir edge records.
//
// The reservoir used to keep an AoS std::vector<EdgeRecord> whose size was
// `--capacity` guesswork. This store packs the same records into parallel
// structure-of-arrays columns (edge keys, weights, priorities, covariance
// accumulators, liveness) sized ONCE from a StoreLayout, so a `--mem`
// byte budget translates into a derived capacity and a predictable
// resident footprint instead of allocator noise. The idiom follows
// mccortex's packed gpath_hash (fixed arena, capacity derived from the
// memory argument) and plf_hive's stable-slot storage: slots are recycled
// through a free list, so a SlotId handed out for an admitted edge stays
// valid — and keeps meaning that edge — until the edge is freed, no
// matter how much churn surrounds it. Snapshot, serialize, and adjacency
// code all hold SlotIds across evictions and depend on that stability.
//
// Concurrency: the store is single-writer by default (the shard worker
// that owns the reservoir). In steal mode the owner re-binds stolen
// batches while monitor/metrics readers may walk live slots, so
// EnableConcurrentAdmission() arms bucket-level striped locks: every slot
// write (Store/Free/Allocate) takes the stripe mutex for its slot bucket,
// never a store-global mutex. Determinism is unaffected — stripe locks
// order nothing; the engine's batch-index re-bind sequencing does (see
// src/engine/README.md "Memory budgeting").

#ifndef GPS_CORE_PACKED_STORE_H_
#define GPS_CORE_PACKED_STORE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
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
  /// Cumulative covariance accumulators for in-stream estimation
  /// (Algorithm 3: C̃_k(△) and C̃_k(Λ)); zeroed on insertion, discarded on
  /// eviction. Unused by post-stream estimation.
  double cov_tri = 0.0;
  double cov_wedge = 0.0;
};

/// Base pointers of the columns Algorithm 3 reads and updates for every
/// sampled edge adjacent to an arrival (see core/in_stream.h).
struct InStreamColumns {
  const double* weight;
  double* cov_tri;
  double* cov_wedge;
};

/// How a reservoir's bytes were sized: either an explicit capacity
/// (budget_bytes == 0, the legacy `--capacity` path) or a `--mem` budget
/// from which the capacity was derived. The byte fields are the
/// derivation formula's terms, surfaced verbatim in the startup
/// allocation report and re-checkable from a manifest (capacity
/// provenance).
struct StoreLayout {
  uint64_t budget_bytes = 0;  ///< 0 = explicit capacity, no budget.
  size_t capacity = 0;        ///< reservoir capacity m.
  uint64_t slot_bytes = 0;       ///< SoA record columns.
  uint64_t heap_bytes = 0;       ///< priority min-heap items.
  uint64_t adjacency_bytes = 0;  ///< arena blocks (incl. size-class slack).
  uint64_t node_index_bytes = 0; ///< open-addressing node table at its
                                 ///< 7/8 load-factor cap.
  uint64_t total_bytes = 0;
};

/// Derivation-formula terms, exposed for tests and documentation.
/// Per-slot costs (bytes per reservoir slot, counting the +1 transient):
///   slots: 8 (edge key) + 4*8 (weight/priority/cov columns) + 1 (live)
///   heap:  16 (priority + slot, padded)
///   adjacency: 2 directed entries * 8 bytes, doubled for pow2
///              size-class slack
///   node index: <= 2 nodes/edge * 17 bytes/bucket (key + block ref +
///               ctrl), doubled for the 7/8 load cap + pow2 rounding
inline constexpr uint64_t kStoreSlotBytes = 41;
inline constexpr uint64_t kStoreHeapBytes = 16;
inline constexpr uint64_t kStoreAdjacencyBytes = 32;
inline constexpr uint64_t kStoreNodeIndexBytes = 48;
inline constexpr uint64_t kStoreBytesPerSlot =
    kStoreSlotBytes + kStoreHeapBytes + kStoreAdjacencyBytes +
    kStoreNodeIndexBytes;
/// Budget headroom reserved for fixed structures (vector headers, stripe
/// locks, free lists) independent of capacity.
inline constexpr uint64_t kStoreFixedBytes = 4096;

/// The layout an explicit capacity implies (budget recorded verbatim;
/// pass 0 for the legacy path).
StoreLayout LayoutForCapacity(size_t capacity, uint64_t budget_bytes);

/// Derives the largest capacity whose layout fits `budget_bytes`
/// (monotone formula, so this is exact, not a guess). Named refusal when
/// the budget cannot hold even one slot.
Result<StoreLayout> DeriveStoreLayout(uint64_t budget_bytes);

/// Multi-line human-readable allocation report, printed at startup when
/// a budget is in force and archived next to bench artifacts in CI.
std::string FormatAllocationReport(const StoreLayout& layout);

class PackedSampleStore {
 public:
  static constexpr size_t kLockStripes = 64;

  /// Preallocates every column for `capacity` + 1 slots (the transient
  /// candidate during a full-reservoir insert). No allocation happens
  /// after construction; growth past the layout is a named refusal.
  explicit PackedSampleStore(size_t capacity);

  PackedSampleStore(const PackedSampleStore& other);
  PackedSampleStore& operator=(const PackedSampleStore& other);
  PackedSampleStore(PackedSampleStore&&) = default;
  PackedSampleStore& operator=(PackedSampleStore&&) = default;

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
                      priorities_[slot], cov_tri_[slot], cov_wedge_[slot]};
  }

  // Column accessors for hot paths that need one field, not a
  // materialized record.
  Edge edge(SlotId slot) const { return EdgeFromKey(keys_[slot]); }
  double weight(SlotId slot) const { return weights_[slot]; }
  double priority(SlotId slot) const { return priorities_[slot]; }

  /// The three columns in-stream estimation touches per sampled neighbour,
  /// indexed by SlotId: weights are read, and the covariance accumulators
  /// are updated in place (the one mutation that outlives Store). The
  /// columns are preallocated, so Allocate never moves them: the pointers
  /// stay valid until the store is assigned to or destroyed. No stripe
  /// lock is taken.
  InStreamColumns in_stream_columns() {
    return {weights_.data(), cov_tri_.data(), cov_wedge_.data()};
  }

  bool live(SlotId slot) const { return live_[slot] != 0; }

  /// Slots ever touched (high-water mark) and currently live.
  size_t num_slots() const { return used_; }
  size_t live_slots() const { return used_ - free_.size(); }
  size_t slot_capacity() const { return cap_; }

  /// Bytes preallocated for the SoA columns.
  uint64_t soa_bytes() const {
    return static_cast<uint64_t>(cap_) * kStoreSlotBytes;
  }

  /// Arms bucket-level striped locking of slot writes (steal mode).
  void EnableConcurrentAdmission();
  bool concurrent_admission() const { return stripes_ != nullptr; }

  /// The stripe mutex guarding `slot`'s bucket; valid only after
  /// EnableConcurrentAdmission.
  std::mutex& StripeFor(SlotId slot) {
    return (*stripes_)[slot % kLockStripes];
  }

 private:
  using StripeArray = std::array<std::mutex, kLockStripes>;

  size_t cap_ = 0;   // preallocated slots (capacity + 1)
  size_t used_ = 0;  // high-water mark of handed-out slots
  std::vector<uint64_t> keys_;
  std::vector<double> weights_;
  std::vector<double> priorities_;
  std::vector<double> cov_tri_;
  std::vector<double> cov_wedge_;
  std::vector<uint8_t> live_;
  std::vector<SlotId> free_;
  // Mutexes are not copyable/movable; held indirectly so the store stays
  // movable. Copies re-arm fresh (unlocked) locks. The free list is a
  // single shared structure, so it gets its own mutex rather than a
  // stripe (stripes guard per-slot column writes only).
  std::unique_ptr<StripeArray> stripes_;
  std::unique_ptr<std::mutex> free_mu_;
};

}  // namespace gps

#endif  // GPS_CORE_PACKED_STORE_H_
