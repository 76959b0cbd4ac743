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
// AccumulateMotifSnapshots applies that recipe for one arrival: it calls
// an enumerator, a plain function that reports the sampled edge sets of
// all motif instances the arriving edge completes, and freezes their
// snapshots into a MotifAccumulator. The built-in enumerators below cover
// 4-cliques, 3-paths, 4-cycles, 5-cliques and tailed triangles; the named
// registry that points at them, and MotifSuite, which runs a set of them
// against one shared reservoir, live in core/motifs.h. Triangles and
// wedges have no generic enumerator: Algorithm 3 (core/in_stream.h)
// estimates them with their covariances.
//
// Variance: per Theorem 5(iii), Σ Ŝ(Ŝ-1) over snapshots unbiasedly
// estimates the sum of individual snapshot variances; because snapshot
// covariances are nonnegative (Theorem 5(ii)) this is a LOWER estimate of
// the total variance, and an interval built from it is narrower than a
// 95% CI.

#ifndef GPS_CORE_SNAPSHOT_H_
#define GPS_CORE_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <span>

#include "core/estimates.h"
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

/// Callback an enumerator uses to report one completed motif instance:
/// the sampled constituent edges, EXCLUDING the arriving edge (whose
/// indicator is deterministically 1 at its own arrival slot).
using Emitter = std::function<void(std::span<const Edge>)>;

/// Enumerates all motif instances completed by `arriving` whose other
/// edges are present in the sampled adjacency, calling `emit` once per
/// instance. Enumerators see only topology (never probabilities), so the
/// same enumerator drives both in-stream snapshot estimation and the
/// engine's post-stream pass over the merged union sample
/// (engine/merge.cc).
using EnumerateFn = void (*)(const Edge& arriving, const SampledGraph& graph,
                             const Emitter& emit);

/// Freezes one snapshot per motif instance `enumerate` reports for the
/// arriving canonical edge `e` (not yet sampled): each instance contributes
/// the product of inverse inclusion probabilities of its sampled member
/// edges, measured at the stopping time T_k (before e's sampling step).
/// Instances reporting an unsampled member are ignored. MotifSuite
/// (core/motifs.h) calls it once per configured motif.
void AccumulateMotifSnapshots(const Edge& e, const GpsReservoir& reservoir,
                              EnumerateFn enumerate, MotifAccumulator* acc);

/// 4-cliques completed by the arriving edge (u,v): pairs of common
/// neighbors w1, w2 with the sampled edge (w1,w2) present; five sampled
/// edges per instance.
void EnumerateFourCliques(const Edge& arriving, const SampledGraph& graph,
                          const Emitter& emit);

/// Simple paths of length 3 (4 distinct nodes) completed by the arriving
/// edge, which may be the middle or either end edge of the path; two
/// sampled edges per instance.
void EnumerateThreePaths(const Edge& arriving, const SampledGraph& graph,
                         const Emitter& emit);

/// 4-cycles (C4, chords allowed) closed by the arriving edge (u,v):
/// sampled paths u–y, y–x, x–v for x ∈ Γ̂(v), y ∈ Γ̂(u), x ≠ y; three
/// sampled edges per instance.
void EnumerateFourCycles(const Edge& arriving, const SampledGraph& graph,
                         const Emitter& emit);

/// 5-cliques completed by the arriving edge (u,v): triples of common
/// neighbors w1, w2, w3 with all three bridge edges sampled; nine sampled
/// edges per instance.
void EnumerateFiveCliques(const Edge& arriving, const SampledGraph& graph,
                          const Emitter& emit);

/// Tailed triangles (a triangle plus one pendant edge at a triangle
/// vertex, 4 distinct nodes) completed by the arriving edge, which may be
/// the pendant tail or one of the triangle edges; three sampled edges per
/// instance.
void EnumerateTailedTriangles(const Edge& arriving,
                              const SampledGraph& graph,
                              const Emitter& emit);

}  // namespace gps

#endif  // GPS_CORE_SNAPSHOT_H_
