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
//     (endpoints, weight, priority) with stable recycled SlotIds, sized
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

/// Observation-only sampling counters. Embedded in each reservoir so
/// shard-local updates never contend; the engine's metrics snapshot sums
/// them across shards under one name each. Copyable along with the
/// reservoir (see util/metrics.h copy semantics).
struct ReservoirMetrics {
  /// Arrivals rejected by the O(1) z*-precheck before touching the heap.
  Counter precheck_rejects;
  /// Edges that entered the sample.
  Counter admissions;
  /// Sampled edges evicted to make room for a higher priority.
  Counter evictions;
};

/// Reservoir configuration.
struct GpsOptions {
  /// Reservoir capacity m (> 0).
  size_t capacity = 100000;
  /// Seed for the priority randomization u(k).
  uint64_t seed = 1;
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

  /// Accounts `n` arrivals that never reached Process: a duplicate or
  /// self loop the caller refused before Process (as Process itself
  /// would, without an RNG draw).
  void NoteExternalArrivals(uint64_t n) { processed_ += n; }

  /// Number of edges currently sampled, |K̂| = min(t, m).
  size_t size() const { return heap_.size(); }

  size_t capacity() const { return options_.capacity; }

  /// Total arrivals processed (including ignored duplicates/loops).
  uint64_t edges_processed() const { return processed_; }

  /// The current threshold z*: the (m+1)-st highest priority seen, or 0
  /// while no edge has ever been evicted.
  double threshold() const { return z_star_; }

  /// Conditional inclusion probability min{1, w/z*} for a given weight
  /// and threshold; 1 while z* == 0 (every edge so far is kept with
  /// certainty). Static so hot loops can hold z* in a register.
  static double InclusionProbability(double weight, double z_star) {
    if (z_star <= 0.0) return 1.0;
    const double p = weight / z_star;
    return p < 1.0 ? p : 1.0;
  }

  /// InclusionProbability at the current threshold.
  double ProbabilityForWeight(double weight) const {
    return InclusionProbability(weight, z_star_);
  }

  /// Inclusion probability of the sampled edge in `slot`.
  double Probability(SlotId slot) const {
    return ProbabilityForWeight(store_.weight(slot));
  }

  /// Sampled topology (node -> neighbors with slot payloads).
  const SampledGraph& graph() const { return graph_; }

  /// Materializes the record in `slot` from the store's SoA columns.
  EdgeRecord Record(SlotId slot) const { return store_.Record(slot); }

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

  /// Current RNG state, for checkpointing (see core/serialize.h).
  std::array<uint64_t, 4> RngState() const { return rng_.SaveState(); }

  /// Reconstructs a reservoir from checkpointed parts. `records` must hold
  /// at most `options.capacity` edges with distinct endpoints; priorities
  /// and weights are taken verbatim, and record i is stored in slot i.
  /// Used by deserialization.
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
