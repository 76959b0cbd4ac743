// GpsReservoir: the Graph Priority Sampling reservoir (paper Algorithm 1).
//
// Maintains a fixed-capacity weighted sample K̂ of stream edges. Each
// arriving edge k receives priority r(k) = w(k)/u(k), u(k) ~ Uni(0,1]; the
// reservoir keeps the m highest-priority edges seen so far, and the running
// threshold z* is the largest priority ever evicted (equivalently the
// (m+1)-st highest priority). Conditional on z*, edge k is in the sample
// with probability p(k) = min{1, w(k)/z*} — the Horvitz–Thompson
// renormalization of GPSNORMALIZE.
//
// Structure:
//   * a binary min-heap over (priority, slot) gives O(1) access to the
//     lowest-priority edge and O(log m) insert/evict;
//   * a PackedSampleStore holds per-edge records as SoA columns
//     (endpoints, weight, priority, and the in-stream covariance
//     accumulators of Algorithm 3) with stable recycled SlotIds, sized
//     once — optionally from a --mem byte budget (core/packed_store.h);
//   * a SampledGraph adjacency indexes the sampled topology so weight
//     functions and estimators can query neighborhoods in O(min deg).
//
// The reservoir is deliberately estimation-agnostic: it never looks at
// triangles or wedges itself (the paper's separation of sampling and
// estimation, property S2/S3).

#ifndef GPS_CORE_RESERVOIR_H_
#define GPS_CORE_RESERVOIR_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/packed_store.h"
#include "graph/sampled_graph.h"
#include "graph/types.h"
#include "util/binary_heap.h"
#include "util/metrics.h"
#include "util/random.h"

namespace gps {

/// Observation-only sampling counters (no-ops under GPS_METRICS=0).
/// Embedded in each reservoir so shard-local updates never contend; the
/// engine registers them with its MetricsRegistry under shared names.
/// Copyable along with the reservoir (see util/metrics.h copy semantics).
struct ReservoirMetrics {
  /// Arrivals rejected by the O(1) z*-precheck before touching the heap.
  Counter precheck_rejects;
  /// Edges that entered the sample (Process draws and Admit re-binds).
  Counter admissions;
  /// Sampled edges evicted to make room for a higher priority.
  Counter evictions;

  /// Folds another reservoir's counts into this one (steal mode: a
  /// detached mini-reservoir's activity is attributed to its owner shard
  /// at re-bind time).
  void Absorb(const ReservoirMetrics& other) {
    precheck_rejects.Add(other.precheck_rejects.Value());
    admissions.Add(other.admissions.Value());
    evictions.Add(other.evictions.Value());
  }
};

/// Reservoir configuration.
struct GpsOptions {
  /// Reservoir capacity m (> 0).
  size_t capacity = 100000;
  /// Seed for the priority randomization u(k).
  uint64_t seed = 1;
  /// Provenance of `capacity`: the --mem byte budget it was derived from,
  /// or 0 when the capacity was given explicitly. Never affects the
  /// sample path — a budget-derived run is byte-identical to an explicit
  /// --capacity run of the same size; recorded so manifests and
  /// allocation reports can state where the number came from.
  uint64_t mem_bytes = 0;
};

class GpsReservoir {
 public:
  /// Per-sampled-edge record (hoisted to core/packed_store.h; the nested
  /// name remains for the many existing users).
  using EdgeRecord = gps::EdgeRecord;

  /// Outcome of processing one arrival.
  struct ProcessResult {
    /// True if the arriving edge survived the provisional-inclusion step.
    bool inserted = false;
    /// True if a previously sampled edge was evicted to make room.
    bool evicted = false;
    /// Slot of the arriving edge if inserted, else kNoSlot.
    SlotId slot = kNoSlot;
  };

  explicit GpsReservoir(GpsOptions options);

  /// Processes one arriving edge with externally computed weight w(k) > 0
  /// (GPSUPDATE). Self loops and edges already in the sample are ignored.
  ///
  /// Fast path: once the reservoir is full, an arriving priority at or
  /// below z* cannot enter the sample (and cannot raise the threshold), so
  /// it is rejected after ONE comparison against the cached threshold —
  /// before touching the heap or the slot store. On full reservoirs with
  /// skewed priorities this is the common case for the sampling step.
  ProcessResult Process(const Edge& e, double weight);

  // ---- Scheduler / merge hooks (engine/shard.h steal mode) ---------------
  //
  // The work-stealing scheduler processes detached batches into
  // mini-reservoirs with counter-based priorities (core/seeding.h
  // DeriveBatchSeed) and re-binds them to the owner shard by merging the
  // mini records back, in batch-index order. Because the priorities are a
  // pure function of (batch, offset) rather than of a sequential RNG,
  // "top-m by priority" composes exactly: merging per-batch top-m samples
  // reproduces the top-m (and threshold) of the full candidate set. These
  // hooks expose the pieces of that merge; they are NOT part of the
  // streaming API.

  /// Inserts a record with an externally fixed priority (no RNG draw).
  /// Duplicate edges and self loops are ignored (earlier-merged batches
  /// win, which is deterministic under in-order merging). Does not count
  /// as an arrival — pair with NoteExternalArrivals.
  ProcessResult Admit(const EdgeRecord& record);

  /// Accounts `n` arrivals processed externally (by a mini-reservoir whose
  /// sampled records are re-bound through Admit).
  void NoteExternalArrivals(uint64_t n) { processed_ += n; }

  /// Raises z* to at least `z` (the threshold evidence a merged
  /// mini-reservoir carries: priorities it evicted internally).
  void RaiseThreshold(double z) {
    if (z > z_star_) z_star_ = z;
  }

  /// Arms bucket-level striped locking of the store's slot writes so
  /// re-bind admission can proceed against concurrent slot readers
  /// without a store-global mutex (steal mode; see packed_store.h).
  void EnableConcurrentAdmission() { store_.EnableConcurrentAdmission(); }

  /// Number of edges currently sampled, |K̂| = min(t, m).
  size_t size() const { return heap_.size(); }

  size_t capacity() const { return options_.capacity; }

  /// Total arrivals processed (including ignored duplicates/loops).
  uint64_t edges_processed() const { return processed_; }

  /// The current threshold z*: the (m+1)-st highest priority seen, or 0
  /// while no edge has ever been evicted.
  double threshold() const { return z_star_; }

  /// Conditional inclusion probability min{1, w/z*} for a given weight;
  /// 1 while z* == 0 (every edge so far is kept with certainty).
  double ProbabilityForWeight(double weight) const {
    if (z_star_ <= 0.0) return 1.0;
    const double p = weight / z_star_;
    return p < 1.0 ? p : 1.0;
  }

  /// Inclusion probability of the sampled edge in `slot`.
  double Probability(SlotId slot) const {
    return ProbabilityForWeight(store_.weight(slot));
  }

  /// Sampled topology (node -> neighbors with slot payloads).
  const SampledGraph& graph() const { return graph_; }

  /// Materializes the record in `slot` from the store's SoA columns.
  EdgeRecord Record(SlotId slot) const { return store_.Record(slot); }

  /// In-stream estimation's covariance-accumulator updates (Algorithm 3
  /// lines 16-19 / 24-27) — the only record mutation that happens after
  /// admission; replaces the old MutableRecord escape hatch.
  void AddCovTri(SlotId slot, double delta) {
    store_.AddCovTri(slot, delta);
  }
  void AddCovWedge(SlotId slot, double delta) {
    store_.AddCovWedge(slot, delta);
  }
  double cov_tri(SlotId slot) const { return store_.cov_tri(slot); }
  double cov_wedge(SlotId slot) const { return store_.cov_wedge(slot); }

  /// Calls fn(slot, record) for each sampled edge (heap order).
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    ForEachSlot([&](SlotId slot) { fn(slot, store_.Record(slot)); });
  }

  /// Calls fn(slot) for each sampled edge's slot in ForEachEdge's heap
  /// order — the order checkpoints preserve, so sums taken in it stay
  /// bit-identical across resume.
  template <typename Fn>
  void ForEachSlot(Fn&& fn) const {
    for (const HeapItem& item : heap_.Items()) fn(item.slot);
  }

  /// Validates internal invariants (heap property, graph <-> slot
  /// consistency). O(m); intended for tests.
  bool CheckInvariants() const;

  /// Reservoir configuration.
  const GpsOptions& options() const { return options_; }

  /// Packed slot storage (SoA columns + free list).
  const PackedSampleStore& store() const { return store_; }

  /// Sampling counters (precheck rejects / admissions / evictions).
  const ReservoirMetrics& metrics() const { return metrics_; }
  ReservoirMetrics* mutable_metrics() { return &metrics_; }

  /// Current RNG state, for checkpointing (see core/serialize.h).
  std::array<uint64_t, 4> RngState() const { return rng_.SaveState(); }

  /// Reconstructs a reservoir from checkpointed parts. `records` must hold
  /// at most `options.capacity` edges with distinct endpoints; priorities
  /// and weights are taken verbatim. Used by deserialization.
  static GpsReservoir FromParts(const GpsOptions& options, double z_star,
                                uint64_t processed,
                                const std::array<uint64_t, 4>& rng_state,
                                std::span<const EdgeRecord> records);

 private:
  struct HeapItem {
    double priority;
    SlotId slot;
  };
  struct PriorityLess {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      return a.priority < b.priority;
    }
  };

  /// Shared insertion step of Process and Admit: the canonical edge `e`
  /// (not a loop, not sampled) enters with a fixed priority; the minimum
  /// of the m+1 candidates is discarded and z* updated.
  ProcessResult InsertWithPriority(const Edge& e, const EdgeRecord& record);

  GpsOptions options_;
  Rng rng_;
  BinaryMinHeap<HeapItem, PriorityLess> heap_;
  PackedSampleStore store_;
  SampledGraph graph_;
  double z_star_ = 0.0;
  uint64_t processed_ = 0;
  ReservoirMetrics metrics_;
};

}  // namespace gps

#endif  // GPS_CORE_RESERVOIR_H_
