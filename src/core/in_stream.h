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
// per-edge cumulative covariance accumulators C̃_k(△), C̃_k(Λ) stored in the
// reservoir's edge records and discarded on eviction (Algorithm 3 lines
// 16-19, 24-27, 39-40; unbiasedness from Theorems 5 and 7).
//
// The estimation step runs BEFORE the sampling step for the arriving edge,
// so snapshot probabilities are measured at the stopping time T_k (the slot
// immediately before k's arrival).
//
// Per-arrival cost: two node-table lookups (one per endpoint), one binary
// search of the smaller endpoint block (the duplicate check), one
// intersection of the two blocks (the triangle updates, whose match count
// is also the weight function's |Γ̂(u) ∩ Γ̂(v)|), and one pass over both
// blocks (the wedge updates) — plus the reservoir update. z* and the slot
// column bases are read once per arrival, and the five running sums are
// written back once.
//
// The order of the floating-point operations in Process is part of the
// byte-identity contract: estimates, monitor rows and checkpoints must keep
// their bytes, so a rewrite must perform the same operations in the same
// order (triangles in ascending common-neighbour order, then u's block, then
// v's, each in ascending neighbour order). core_in_stream_test's
// GoldenAlgorithm3Bits pins the results.

#ifndef GPS_CORE_IN_STREAM_H_
#define GPS_CORE_IN_STREAM_H_

#include <cstdint>

#include "core/estimates.h"
#include "core/gps.h"
#include "core/reservoir.h"
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

  /// Reconstructs an estimator from checkpointed parts.
  static InStreamEstimator FromParts(const WeightOptions& weight,
                                     GpsReservoir reservoir,
                                     const Accumulators& acc);

 private:
  InStreamEstimator(const WeightOptions& weight, GpsReservoir reservoir)
      : weight_fn_(weight), reservoir_(std::move(reservoir)) {}

  WeightFunction weight_fn_;
  GpsReservoir reservoir_;

  // Running snapshot accumulators (Algorithm 3 state).
  double n_tri_ = 0.0;
  double v_tri_ = 0.0;
  double n_wed_ = 0.0;
  double v_wed_ = 0.0;
  double cov_tw_ = 0.0;
};

}  // namespace gps

#endif  // GPS_CORE_IN_STREAM_H_
