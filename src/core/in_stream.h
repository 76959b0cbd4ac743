// In-stream estimation (paper Algorithm 3, Section 5).
//
// Instead of querying the sample after the fact, in-stream estimation takes
// Martingale "snapshots" of subgraph estimators at stopping times during the
// stream: when edge k3 arrives and completes a triangle whose first two
// edges (k1, k2) are currently sampled, the snapshot Ŝ^{T_{k3}}_{{k1,k2}} =
// 1/(q1 q2) is frozen and added to the running triangle count (Theorem 6);
// analogously each sampled edge adjacent to an arriving edge contributes a
// wedge snapshot 1/q. Snapshots are not subject to later eviction, which is
// why in-stream estimates have lower variance than post-stream estimates on
// the same sample path (paper Table 1/3).
//
// Variance and triangle-wedge covariance are maintained incrementally with
// per-edge cumulative covariance accumulators C̃_k(△), C̃_k(Λ), held in the
// estimator's own per-slot records and discarded on eviction (Algorithm 3
// lines 16-19, 24-27, 39-40; unbiasedness from Theorems 5 and 7).
//
// The estimation step runs BEFORE the sampling step for the arriving edge,
// so snapshot probabilities are measured at the stopping time T_k (the slot
// immediately before k's arrival).
//
// Two stages. Nothing GPSESTIMATE computes feeds GPSUPDATE, so an arrival
// splits into
//   * the sampling stage: the duplicate check, the intersection of the two
//     endpoint blocks (whose match count is the weight function's
//     |Γ̂(u) ∩ Γ̂(v)|), the weight and GpsReservoir::Process; it reads
//     and writes the reservoir, never the snapshot state;
//   * the estimation stage: Algorithm 3 lines 9-27 and 39-40 over the
//     estimator's per-slot records {weight, cov_tri, cov_wedge} (24 B,
//     indexed by SlotId) and the five running sums; it never reads the
//     reservoir. What it needs of an arrival is z* at T_k, the matched
//     (slot_k1, slot_k2) pairs in emission order, the slots of u's block
//     then v's, and the admitted slot with its weight.
// Process runs both on one thread, per arrival, the estimation stage
// reading the live blocks with no copy. Sample and Estimate run them on
// two threads: Sample appends one SlotLog record (core/slot_log.h) per
// arrival that reaches the sampling step, and Estimate applies the
// records in log order. The snapshot updates are the same code either
// way (UpdateTriangle, UpdateWedges, Admit).
//
// Per-arrival cost: two node-table lookups (one per endpoint), one binary
// search of the smaller endpoint block (the duplicate check), one
// intersection of the two blocks (the triangle updates), and one pass over
// both blocks (the wedge updates) — plus the reservoir update. z* is read
// once per arrival, and the five running sums are written back once.
//
// The order of the floating-point operations is part of the byte-identity
// contract: estimates, monitor rows and checkpoints must keep their bytes,
// so a rewrite must perform the same operations in the same order
// (triangles in ascending common-neighbour order, then u's block, then
// v's, each in ascending neighbour order). The split keeps that order: a
// log record lists the pairs and slots in exactly the order Process
// visits them, Estimate applies records in arrival order, and an
// admission reaches the per-slot records after the arrival's own updates
// and before the next arrival's, as in Process. core_in_stream_test's
// GoldenAlgorithm3Bits pins the results.

#ifndef GPS_CORE_IN_STREAM_H_
#define GPS_CORE_IN_STREAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/estimates.h"
#include "core/gps.h"
#include "core/reservoir.h"
#include "core/slot_log.h"
#include "graph/types.h"

namespace gps {

class InStreamEstimator {
 public:
  /// Uses the same options as GpsSampler. With identical options/seed, the
  /// sample path (reservoir contents over time) is byte-identical to a
  /// GpsSampler fed the same stream — estimation consumes no randomness.
  explicit InStreamEstimator(GpsSamplerOptions options = {});

  /// Processes one arriving edge: snapshot estimation (GPSESTIMATE), then
  /// the reservoir update (GPSUPDATE). A self loop or a repeat of a sampled
  /// edge is counted as an arrival and otherwise skipped.
  void Process(const Edge& e);

  /// The sampling stage of Process: the reservoir update, with the record
  /// the estimation stage needs appended to `log`. Skips self loops and
  /// repeats as Process does, with no record. The writer side of the log.
  void Sample(const Edge& e, SlotLog& log);

  /// The estimation stage of Process: applies the log's records in order
  /// until the log is closed and drained. The reader side of the log, on
  /// another thread than Sample's; between the two, state that Process
  /// changes is changed exactly as Process changes it.
  void Estimate(SlotLog& log);

  /// Current unbiased estimates of N_t(△), N_t(Λ), their variances, the
  /// triangle-wedge covariance, and the derived clustering coefficient.
  GraphEstimates Estimates() const;

  /// Underlying reservoir (identical in distribution — and, for equal
  /// seeds, identical in realization — to a post-stream GPS reservoir).
  const GpsReservoir& reservoir() const { return reservoir_; }

  /// Arrivals processed, including skipped duplicates and self loops (as
  /// GpsSampler counts them).
  uint64_t edges_processed() const { return reservoir_.edges_processed(); }

  /// Snapshot-accumulator state, exposed for checkpointing
  /// (see core/serialize.h).
  struct Accumulators {
    double n_tri = 0.0;
    double v_tri = 0.0;
    double n_wed = 0.0;
    double v_wed = 0.0;
    double cov_tw = 0.0;
  };
  Accumulators SaveAccumulators() const {
    return {n_tri_, v_tri_, n_wed_, v_wed_, cov_tw_};
  }

  const WeightFunction& weight_function() const { return weight_fn_; }

  /// Algorithm 3's state for one sampled edge: its weight, copied at
  /// admission so the estimation stage never reads the reservoir, and its
  /// covariance accumulators C̃_k(△) and C̃_k(Λ), zeroed at admission and
  /// dropped with the slot at eviction (lines 18-19, 27, 39-40).
  struct SlotRecord {
    double weight = 0.0;
    double cov_tri = 0.0;
    double cov_wedge = 0.0;
  };

  /// The record of the sampled edge in `slot` (a live reservoir slot).
  const SlotRecord& slot_record(SlotId slot) const { return slots_[slot]; }

  /// Reconstructs an estimator from checkpointed parts. `slots` holds the
  /// record of each reservoir slot in slot order (GpsReservoir::FromParts
  /// stores record i in slot i).
  static InStreamEstimator FromParts(const WeightOptions& weight,
                                     GpsReservoir reservoir,
                                     const Accumulators& acc,
                                     std::span<const SlotRecord> slots);

 private:
  InStreamEstimator(const WeightOptions& weight, GpsReservoir reservoir);

  /// Writes the record of an arrival admitted into `slot`. Slots are
  /// handed out in increasing order the first time (PackedSampleStore), so
  /// a new slot is always the next record.
  void Admit(SlotId slot, double weight) {
    if (slot == slots_.size()) {
      slots_.push_back({weight, 0.0, 0.0});
    } else {
      slots_[slot] = {weight, 0.0, 0.0};
    }
  }

  WeightFunction weight_fn_;
  GpsReservoir reservoir_;

  // Estimation-stage state: the per-slot records, reserved for every slot
  // of the store so the helper thread never allocates, and the sums.
  std::vector<SlotRecord> slots_;

  // Running snapshot accumulators (Algorithm 3 state).
  double n_tri_ = 0.0;
  double v_tri_ = 0.0;
  double n_wed_ = 0.0;
  double v_wed_ = 0.0;
  double cov_tw_ = 0.0;
};

}  // namespace gps

#endif  // GPS_CORE_IN_STREAM_H_
