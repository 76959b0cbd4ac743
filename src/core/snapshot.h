// Generic in-stream snapshot estimation (paper Section 5.1).
//
// The Martingale snapshot theorem (Theorem 4) is not triangle-specific:
// for ANY motif class, whenever an arriving edge completes a motif whose
// remaining edges are currently sampled, freezing the product of their
// inverse inclusion probabilities yields an unbiased contribution to the
// motif count — "if we only need to estimate the number of such subgraphs,
// it suffices to add the inverse probability of each matching subgraph to
// a counter."
//
// InStreamMotifCounter packages that recipe behind a user-supplied
// enumerator: on each arrival it invokes the enumerator, which reports the
// sampled edge sets of all motif instances the arriving edge completes;
// the counter freezes their snapshots, then performs the normal GPS
// sampling step. Built-in enumerators cover triangles, wedges, 4-cliques
// and 3-paths; writing a custom one is ~10 lines. Named, registry-backed
// access to the built-ins (and the multi-motif suite that shares one
// reservoir) lives in core/motifs.h.
//
// Variance: per Theorem 5(iii), Σ Ŝ(Ŝ-1) over snapshots unbiasedly
// estimates the sum of individual snapshot variances; because snapshot
// covariances are nonnegative (Theorem 5(ii)) this is a LOWER estimate of
// the total variance. The specialized InStreamEstimator additionally
// tracks the pairwise covariance terms for triangles/wedges; the generic
// counter exposes the conservative bound instead.

#ifndef GPS_CORE_SNAPSHOT_H_
#define GPS_CORE_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <span>

#include "core/estimates.h"
#include "core/gps.h"
#include "core/reservoir.h"
#include "graph/sampled_graph.h"
#include "graph/types.h"

namespace gps {

/// Serializable snapshot-accumulator state of one motif statistic: the
/// running count, the conservative variance estimate, and the number of
/// snapshots frozen. Shard files (GPS-INSTREAM v2) carry these verbatim
/// so motif estimation can resume mid-stream (core/serialize.h).
struct MotifAccumulator {
  /// Σ of frozen snapshots: unbiased estimate of the number of motif
  /// instances whose edges have all arrived (Theorem 4(ii)).
  double count = 0.0;
  /// Σ Ŝ(Ŝ-1): conservative (downward-biased) variance estimate, omitting
  /// the nonnegative pairwise snapshot covariances.
  double variance = 0.0;
  /// Snapshots frozen so far.
  uint64_t snapshots = 0;

  /// The accumulator as a point estimate with its conservative variance.
  Estimate ToEstimate() const {
    return Estimate{count, variance > 0.0 ? variance : 0.0};
  }
};

class InStreamMotifCounter {
 public:
  /// Callback the enumerator uses to report one completed motif instance:
  /// the sampled constituent edges, EXCLUDING the arriving edge (whose
  /// indicator is deterministically 1 at its own arrival slot).
  using Emitter = std::function<void(std::span<const Edge>)>;

  /// Enumerates all motif instances completed by `arriving` whose other
  /// edges are present in the sampled adjacency, calling `emit` once per
  /// instance. Enumerators see only topology (never probabilities), so the
  /// same enumerator drives both in-stream snapshot estimation and the
  /// engine's post-stream pass over the merged union sample
  /// (engine/merge.cc).
  using EnumerateFn = std::function<void(
      const Edge& arriving, const SampledGraph& graph, const Emitter& emit)>;

  InStreamMotifCounter(GpsSamplerOptions options, EnumerateFn enumerate);

  /// Snapshot estimation for motifs completed by e, then the GPS sampling
  /// step. A self loop or a repeat of a sampled edge is counted as an
  /// arrival and otherwise skipped.
  void Process(const Edge& e);

  /// Unbiased estimate of the number of motif instances whose edges have
  /// all arrived (Theorem 4(ii)).
  double Count() const { return acc_.count; }

  /// Conservative (downward-biased) variance estimate: the sum of
  /// single-snapshot variance estimators, omitting nonnegative pairwise
  /// covariances.
  double VarianceLowerEstimate() const { return acc_.variance; }

  /// Number of snapshots frozen so far.
  uint64_t SnapshotsTaken() const { return acc_.snapshots; }

  /// The full accumulator state, for checkpointing and merging.
  const MotifAccumulator& accumulator() const { return acc_; }

  const GpsReservoir& reservoir() const { return reservoir_; }

 private:
  WeightFunction weight_fn_;
  GpsReservoir reservoir_;
  EnumerateFn enumerate_;
  MotifAccumulator acc_;
};

/// Freezes one snapshot per motif instance `enumerate` reports for the
/// arriving canonical edge `e` (not yet sampled): each instance contributes
/// the product of inverse inclusion probabilities of its sampled member
/// edges, measured at the stopping time T_k (before e's sampling step).
/// Instances reporting an unsampled member are ignored. Shared by
/// InStreamMotifCounter and MotifSuite (core/motifs.h).
void AccumulateMotifSnapshots(const Edge& e, const GpsReservoir& reservoir,
                              const InStreamMotifCounter::EnumerateFn& enumerate,
                              MotifAccumulator* acc);

/// Built-in enumerator: triangles completed by the arriving edge (the two
/// sampled edges to each common neighbor).
InStreamMotifCounter::EnumerateFn TriangleEnumerator();

/// Built-in enumerator: wedges formed by the arriving edge with each
/// sampled adjacent edge.
InStreamMotifCounter::EnumerateFn WedgeEnumerator();

/// Built-in enumerator: 4-cliques completed by the arriving edge (u,v) —
/// pairs of common neighbors w1, w2 with the sampled edge (w1,w2) present;
/// five sampled edges per instance.
InStreamMotifCounter::EnumerateFn FourCliqueEnumerator();

/// Built-in enumerator: simple paths of length 3 (4 distinct nodes)
/// completed by the arriving edge, which may be the middle or either end
/// edge of the path; two sampled edges per instance.
InStreamMotifCounter::EnumerateFn ThreePathEnumerator();

/// Built-in enumerator: 4-cycles (C4, chords allowed) closed by the
/// arriving edge (u,v) — sampled paths u–y, y–x, x–v for x ∈ Γ̂(v),
/// y ∈ Γ̂(u), x ≠ y; three sampled edges per instance.
InStreamMotifCounter::EnumerateFn FourCycleEnumerator();

/// Built-in enumerator: 5-cliques completed by the arriving edge (u,v) —
/// triples of common neighbors w1, w2, w3 with all three bridge edges
/// sampled; nine sampled edges per instance.
InStreamMotifCounter::EnumerateFn FiveCliqueEnumerator();

/// Built-in enumerator: tailed triangles (a triangle plus one pendant
/// edge at a triangle vertex, 4 distinct nodes) completed by the arriving
/// edge, which may be the pendant tail or one of the triangle edges;
/// three sampled edges per instance.
InStreamMotifCounter::EnumerateFn TailedTriangleEnumerator();

}  // namespace gps

#endif  // GPS_CORE_SNAPSHOT_H_
