// Merging per-shard GPS samples into whole-graph estimates.
//
// Edge-hash sharding splits the stream into K disjoint substreams, so the
// triangle population decomposes exactly (shard assignment is a
// deterministic function of the edge, not a random event):
//
//   N(tri) = N(all three edges in one shard) + N(edges span >= 2 shards)
//
// and likewise for wedges (both edges same shard vs. spanning). The two
// strata are estimated by different machinery:
//
//   * within-shard: each shard's in-stream estimator (Algorithm 3) already
//     produces unbiased counts/variances of the subgraphs inside its
//     substream; shard RNGs are independent (core/seeding.h), so the sums
//     of values and variances over shards are themselves unbiased
//     (Theorems 5-7 applied per shard + independence);
//   * cross-shard: a post-stream Horvitz-Thompson pass — the one
//     Algorithm-2 kernel of core/algorithm2.h — over the UNION of the
//     shard reservoirs, restricted to subgraphs whose edges span >= 2
//     shards. Each edge keeps the inclusion probability q = min{1, w/z*_s}
//     of its OWN shard's threshold; cross-shard edge inclusions are
//     genuinely independent, so product estimators and their variance
//     estimators keep the paper's form.
//
// Documented approximation (see src/engine/README.md): the merged variance
// omits the covariance between the in-stream stratum and the cross-shard
// correction stratum (they estimate disjoint subgraph populations but
// share sample-path randomness). K=1 has no cross-shard stratum, so the
// engine's estimates reduce exactly to the serial estimator's.

#ifndef GPS_ENGINE_MERGE_H_
#define GPS_ENGINE_MERGE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/estimates.h"
#include "core/motifs.h"
#include "core/reservoir.h"
#include "graph/types.h"

namespace gps {

/// How MergedEstimates() combines shard states.
enum class MergeMode {
  /// Sum of per-shard in-stream estimates plus the cross-shard
  /// post-stream correction. Default; lowest variance.
  kInStreamPlusCross,
  /// Pure post-stream estimation over the union sample (all subgraphs,
  /// spanning or not). Works with ShardEstimatorKind::kPostStream shards.
  kPostStreamMerged,
};

/// Sums independent per-shard estimates (values, variances, covariance
/// all add across independent strata).
GraphEstimates SumShardEstimates(std::span<const GraphEstimates> shards);

/// One shard's contribution to the union sample: its reservoir plus an
/// optional per-slot sub-stratum table indexed by reservoir SlotId. The
/// spanning test of the cross pass compares full stratum ids
/// (shard, sub-stratum): with an empty table every edge of the shard
/// shares sub-stratum 0, the shard-granularity decomposition the engine
/// uses (ShardWorker::slot_strata() is always empty); with sub-strata,
/// instances whose edges span different sub-strata of ONE shard also fall
/// into the cross stratum.
struct ShardSampleRef {
  const GpsReservoir* reservoir = nullptr;
  std::span<const uint32_t> slot_strata = {};
};

/// Threads an Algorithm-2 pass or a union update runs on unless the
/// caller says otherwise: every CPU the calling thread may run on
/// (UsableCpus, at least 1). The engine's
/// shard workers sit idle while the producer merges, so the passes borrow
/// their cores; the thread count never changes a result bit
/// (core/algorithm2.h).
unsigned MergeThreads();

/// The union of the shard reservoirs: one sampled adjacency over every
/// shard's sample, each edge carrying its own shard's inclusion
/// probability and its stratum, plus a triangle index — every record's
/// union triangles, the matches one intersection of its endpoint blocks
/// would emit — so the Algorithm-2 passes read triangles instead of
/// intersecting. One union serves every pass over the same drained state
/// (tri/wedge correction, merged post-stream, per-motif correction), and
/// it can live across monitor ticks: Update patches it with the
/// admissions and evictions since the last call, recomputing only the
/// triangle lists they touch, instead of rebuilding the O(sample) index. A
/// patched union gives the same bits as a fresh one — every pass reads the
/// records in shard order, then reservoir heap order, and each node's
/// neighbors in id order, never in index-slot order.
///
/// The passes reuse buffers the union owns (partner sums, scratch, chunk
/// partials), so two passes over one union must not run at once.
class UnionSample {
 public:
  /// An empty union; the first Update is the full build.
  UnionSample();
  ~UnionSample();
  UnionSample(UnionSample&&) noexcept;
  UnionSample& operator=(UnionSample&&) noexcept;

  size_t num_shards() const { return num_shards_; }

  /// Number of sampled edges in the union (0 for < 2 shards, where no
  /// union index is built). Observability only.
  size_t num_edges() const;

  /// Brings the union up to date with the shards' samples: records whose
  /// reservoir slot was freed or now holds another edge are removed, newly
  /// sampled edges are added, and every live record's inclusion
  /// probability (its shard's z* moves) and stratum are recomputed. The
  /// triangle lists of the added records, and of the other two records of
  /// every triangle an added or removed record belongs to, are recomputed.
  /// Graph and index edits run on the calling thread; eviction detection,
  /// the per-record refresh and the list intersections on MergeThreads()
  /// threads. Pass the same shards in the same order at every call (a
  /// different shard count starts over). Below two shards nothing is
  /// indexed: no pass reads the union there. The shards must not change
  /// during the call.
  void Update(std::span<const ShardSampleRef> shards);

 private:
  friend GraphEstimates EstimateCrossShard(const UnionSample& sample,
                                           unsigned num_threads);
  friend GraphEstimates EstimateMergedPostStream(const UnionSample& sample,
                                                 unsigned num_threads);
  friend std::vector<MotifAccumulator> EstimateCrossShardMotifs(
      const UnionSample& sample, std::span<const std::string> motif_names);

  struct Impl;
  std::unique_ptr<Impl> impl_;
  size_t num_shards_ = 0;
};

/// A fresh union of the shard reservoirs (edge-hash sharding keeps them
/// edge-disjoint): UnionSample::Update applied to an empty union, which
/// computes every triangle list on MergeThreads() threads.
UnionSample BuildUnionSample(std::span<const GpsReservoir* const> shards);

/// As above with per-shard sub-stratum tables (see ShardSampleRef).
UnionSample BuildUnionSample(std::span<const ShardSampleRef> shards);

/// Horvitz-Thompson estimates of the subgraphs spanning >= 2 shards, from
/// the union of the shard reservoirs. Returns zeros for < 2 shards.
GraphEstimates EstimateCrossShard(
    std::span<const GpsReservoir* const> shards);

/// As above, over a union sample, on `num_threads` threads (0:
/// MergeThreads()); the result is the same for every thread count.
GraphEstimates EstimateCrossShard(const UnionSample& sample,
                                  unsigned num_threads = 0);

/// Post-stream estimates of ALL subgraphs from the union of the shard
/// reservoirs. A single shard gives EstimatePostStream of its reservoir,
/// bit for bit.
GraphEstimates EstimateMergedPostStream(
    std::span<const GpsReservoir* const> shards);

/// As above, over a union of >= 2 shards (a lone shard has no union; its
/// estimate is EstimatePostStream), on `num_threads` threads (0:
/// MergeThreads()).
GraphEstimates EstimateMergedPostStream(const UnionSample& sample,
                                        unsigned num_threads = 0);

/// Element-wise sum of two estimate sets from independent strata.
GraphEstimates AddEstimates(const GraphEstimates& a, const GraphEstimates& b);

// ---- Generic motif statistics (core/motifs.h registry) -------------------
//
// The motif decomposition mirrors the triangle/wedge one: an instance is
// either entirely inside one shard's substream (estimated by that shard's
// in-stream MotifSuite — counts, conservative variances and snapshot
// counts all sum across independent shards) or its edges span >= 2 shards
// (estimated by a post-stream Horvitz-Thompson pass over the union of the
// shard reservoirs, reusing the registry's streaming enumerators). Both
// strata report the Σ Ŝ(Ŝ-1) variance lower bound, which leaves out the
// non-negative snapshot covariances, so a merged motif interval is
// narrower than a 95% CI (core/snapshot.h).

/// Element-wise sum of per-shard motif accumulators (independent strata).
/// All shards must carry the same suite arity/order; the engine guarantees
/// this by configuring every shard from one ShardedEngineOptions::motifs.
std::vector<MotifAccumulator> SumShardMotifAccumulators(
    std::span<const std::vector<MotifAccumulator>> shards);

/// Post-stream HT estimates of the named motifs' instances spanning >= 2
/// shards, over a union sample. Enumerates each instance once per member
/// edge via the registry enumerator and divides by MotifEntry::num_edges.
/// Returns zeros (one accumulator per name) for < 2 shards. Names must be
/// registered (callers validate).
std::vector<MotifAccumulator> EstimateCrossShardMotifs(
    const UnionSample& sample, std::span<const std::string> motif_names);

/// Combines the two strata into named estimates, in suite order.
std::vector<MotifEstimate> MakeMotifEstimates(
    std::span<const std::string> motif_names,
    std::span<const MotifAccumulator> within,
    std::span<const MotifAccumulator> cross);

// ---- Local-count statistics over the merged sample -----------------------

/// Unbiased estimate of the number of distinct edges that have arrived,
/// summed over the edge-disjoint shard substreams (the sharded analog of
/// core/local_counts.h EstimateEdgeCount).
double EstimateMergedEdgeCount(std::span<const GpsReservoir* const> shards);

/// Unbiased estimate of the degree of v in the arrived graph, summed over
/// shards (each shard holds a disjoint subset of v's edges).
double EstimateMergedDegree(std::span<const GpsReservoir* const> shards,
                            NodeId v);

}  // namespace gps

#endif  // GPS_ENGINE_MERGE_H_
