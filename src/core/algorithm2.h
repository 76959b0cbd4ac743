// The one Algorithm-2 kernel (paper Section 4): post-stream Horvitz–Thompson
// estimates of triangle and wedge counts, their variance estimates and the
// triangle–wedge covariance, computed per sampled edge. Shared by the
// serial estimator (core/post_stream.h) and the engine's union-sample
// passes (engine/merge.h).
//
// The kernel is templated on a record accessor describing the sample:
//
//   const SampledGraph& graph() const;  // sampled adjacency, payload = slot
//   size_t slot_bound() const;          // every slot in graph() is below it
//   Edge edge(SlotId) const;            // the record's canonical edge
//   double inv_q(SlotId) const;         // 1 / its inclusion probability
//   uint64_t stratum(SlotId) const;     // its stratum (read with SpanOnly)
//   void ForEachTriangle(SlotId, const Edge&, Fn&&) const;
//       // fn(slot1, slot2) per sampled triangle at the record, in exactly
//       // the sequence IntersectTriangles emits (below)
//   void Prefetch(SlotId) const;        // hint: inv_q/stratum read soon
//
// The serial reservoir is the one-stratum case: one threshold z* for every
// edge, every subgraph counted (SpanOnly = false). The union of the shard
// reservoirs supplies a per-shard inv_q and a per-record stratum; with
// SpanOnly = true a subgraph counts only when its edges fall in >= 2
// strata, and the pair covariances pair counted subgraphs with counted
// subgraphs (the within-stratum ones belong to the in-stream estimators).
//
// Per sampled edge k = (v1, v2), with Ŝ_J = Π_{j∈J} 1/q_j:
//   * triangles: one adaptive intersection of the two endpoint blocks
//     (graph/intersect.h) yields the common neighbours w in ascending
//     order — the triangles {k, (v1,w), (v2,w)} at k (lines 5-9); the
//     engine's union reads the same sequence from its triangle index. Each
//     triangle is visited once per edge, so count and variance sums carry
//     a final 1/3; pairs of triangles sharing exactly k are summed with a
//     running prefix (lines 14-15) under the factor 2·inv_q·(inv_q − 1)
//     (lines 29-30) and are not divided at aggregation (Theorem 3(iv));
//   * wedges: with the partner sums S = Σ 1/q and Q = Σ 1/q² over the
//     edges that form a counted wedge with k,
//         nk = inv_q·S,   vk = inv_q²·Q − inv_q·S,   ck = (S² − Q)/2,
//     in O(1) (lines 16-28); each wedge is visited twice (final 1/2);
//   * the triangle-wedge covariance of paper Eq. 12,
//         V̂(tri, wedge) = Σ_{τ,λ: τ∩λ≠∅} Ŝ_{τ∪λ} (Ŝ_{τ∩λ} − 1),
//     splits into pairs sharing only k — (Σ_{τ∋k} Ŝ_{τ∖k})·S minus the
//     pairs whose wedge lies inside the triangle, times inv_q·(inv_q − 1)
//     — and pairs with the wedge {k1, k2} inside τ, which the three visits
//     of τ count once each.
//
// Cost: the partner sums take one pass over each node's sorted block
// (O(deg), times the strata at the node with SpanOnly) and each edge one
// intersection, O(min deg · log(max deg / min deg)); the whole estimate is
// O(m + Σ_k min{deg(v1), deg(v2)} · log m), within O(m^{3/2} log m). A
// record set that keeps its triangles (the engine's union) replaces the
// intersections with a read of O(triangles at k).
//
// Parallelism and determinism: per-node and per-edge terms are
// independent (the paper: Algorithm 2 "already has abundant
// parallelism"), so both passes run on the fixed-chunk driver of
// util/parallel_chunks.h. The partner pass walks the node table in fixed
// position ranges; each node writes only its own half of each incident
// record, so the visiting order cannot show. The accumulate pass takes
// chunks of kChunkSize over the caller's record order, keeps per-chunk
// partial sums and reduces them in chunk order, so the bytes never depend
// on the thread count. Every sum is a function of the record order, the
// records' (edge, inv_q, stratum) and the neighbour-sorted blocks only,
// never of slot numbering, node-table layout or insertion history, so a
// union patched across monitor ticks and one built fresh give the same
// bits. Intersections pass no metrics: estimation is not arrival work, and
// the graph's intersect.* counters keep counting arrivals only.

#ifndef GPS_CORE_ALGORITHM2_H_
#define GPS_CORE_ALGORITHM2_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/estimates.h"
#include "graph/intersect.h"
#include "graph/sampled_graph.h"
#include "graph/types.h"
#include "util/parallel_chunks.h"

namespace gps {
namespace algorithm2 {

/// Records per chunk of the accumulate pass. A constant: chunk boundaries
/// must not depend on the thread count.
inline constexpr size_t kChunkSize = 256;

/// Node-table positions per chunk of the partner pass. Any range gives the
/// same bits; the constant only sets the load balance.
inline constexpr size_t kNodeRange = 1024;

/// How many nodes ahead the partner pass prefetches the records and
/// partner sums a block points to; blocks themselves twice as far ahead.
inline constexpr size_t kPrefetchNodes = 4;

/// Additive partial sums of Algorithm 2 over a set of sampled edges.
struct Sums {
  double n_tri = 0.0;
  double v_tri = 0.0;
  double c_tri = 0.0;
  double n_wed = 0.0;
  double v_wed = 0.0;
  double c_wed = 0.0;
  double cov_tw = 0.0;

  void Add(const Sums& other) {
    n_tri += other.n_tri;
    v_tri += other.v_tri;
    c_tri += other.c_tri;
    n_wed += other.n_wed;
    v_wed += other.v_wed;
    c_wed += other.c_wed;
    cov_tw += other.cov_tw;
  }

  /// Lines 32-36: per-subgraph sums over-count by the visits per subgraph
  /// (3 per triangle, 2 per wedge); pair sums went to the shared edge only.
  GraphEstimates Finalize() const {
    GraphEstimates out;
    out.triangles.value = n_tri / 3.0;
    out.triangles.variance = v_tri / 3.0 + c_tri;
    out.wedges.value = n_wed / 2.0;
    out.wedges.variance = v_wed / 2.0 + c_wed;
    out.tri_wedge_cov = cov_tw;
    return out;
  }
};

/// A record's wedge partner sums, one half per endpoint: index 0 holds the
/// terms from its canonical u endpoint's block, 1 from v's. Kept apart so
/// the visits of the two endpoint blocks never write the same word.
struct PartnerSums {
  double s[2] = {0.0, 0.0};  // Σ 1/q
  double q[2] = {0.0, 0.0};  // Σ 1/q²
};

/// Per-worker scratch of the partner pass.
struct NodeScratch {
  struct Group {
    uint64_t key;    // its stratum with SpanOnly, else its entry's position
    double s;        // Σ 1/q over the group's edges, in block order
    double q;        // Σ 1/q² over them
    double other_s;  // the same over every other group
    double other_q;
  };
  std::vector<uint64_t> keys;  // per block entry: its group's key
  std::vector<Group> groups;   // ascending key
  std::vector<std::pair<NodeId, std::span<const AdjEntry>>> blocks;
};

/// The buffers of one pass. A caller that estimates again and again (the
/// engine's union, once per monitor tick) keeps them, so later passes
/// reuse warm pages instead of allocating and faulting in fresh ones.
/// Nothing carries over: a pass writes every entry it reads — the partner
/// halves of every sampled record, the scratch of every node, the partial
/// sums of every chunk.
struct PassBuffers {
  std::vector<PartnerSums> partners;  // by slot
  std::vector<NodeScratch> scratch;   // by worker
  std::vector<Sums> partial;          // by accumulate chunk
};

template <bool SpanOnly, typename Records>
uint64_t StratumOf(const Records& records, SlotId slot) {
  if constexpr (SpanOnly) {
    return records.stratum(slot);
  } else {
    (void)records;
    (void)slot;
    return 0;
  }
}

/// Writes node x's half of the partner sums of every record incident to
/// x. Two edges at x form a counted wedge iff they lie in different groups:
/// with SpanOnly a group is a stratum, otherwise every edge is its own
/// group. A record's half is the OTHER groups' totals, built as (groups
/// before) + (groups after) in ascending key order — never a total minus
/// the record's own term, which would cancel when one record's 1/q
/// dominates the node. Each group sums its edges in block order. With
/// SpanOnly the groups are kept sorted as they appear: O(deg · strata at x).
template <bool SpanOnly, typename Records>
void FillPartnerSums(const Records& records, NodeId x,
                     std::span<const AdjEntry> block, NodeScratch* scratch,
                     PartnerSums* partners) {
  using Group = NodeScratch::Group;
  if (block.size() == 1) {  // no other group: both sums are 0.0 + 0.0
    const AdjEntry& entry = block[0];
    const int half = x < entry.nbr ? 0 : 1;
    partners[entry.slot].s[half] = 0.0;
    partners[entry.slot].q[half] = 0.0;
    return;
  }
  std::vector<uint64_t>& keys = scratch->keys;
  std::vector<Group>& groups = scratch->groups;
  const auto by_key = [](const Group& g, uint64_t key) { return g.key < key; };
  keys.clear();
  groups.clear();
  for (uint32_t pos = 0; pos < block.size(); ++pos) {
    const SlotId slot = block[pos].slot;
    const double inv_q = records.inv_q(slot);
    if constexpr (SpanOnly) {
      const uint64_t key = records.stratum(slot);
      keys.push_back(key);
      auto it = std::lower_bound(groups.begin(), groups.end(), key, by_key);
      if (it == groups.end() || it->key != key) {
        it = groups.insert(it, Group{key, 0.0, 0.0, 0.0, 0.0});
      }
      it->s += inv_q;
      it->q += inv_q * inv_q;
    } else {
      groups.push_back(Group{pos, inv_q, inv_q * inv_q, 0.0, 0.0});
    }
  }
  double later_s = 0.0, later_q = 0.0;
  for (size_t g = groups.size(); g-- > 0;) {
    groups[g].other_s = later_s;
    groups[g].other_q = later_q;
    later_s += groups[g].s;
    later_q += groups[g].q;
  }
  double earlier_s = 0.0, earlier_q = 0.0;
  for (Group& g : groups) {
    g.other_s = earlier_s + g.other_s;
    g.other_q = earlier_q + g.other_q;
    earlier_s += g.s;
    earlier_q += g.q;
  }
  for (uint32_t pos = 0; pos < block.size(); ++pos) {
    const Group& g = [&]() -> const Group& {
      if constexpr (SpanOnly) {
        return *std::lower_bound(groups.begin(), groups.end(), keys[pos],
                                 by_key);
      } else {
        return groups[pos];
      }
    }();
    const AdjEntry& entry = block[pos];
    const int half = x < entry.nbr ? 0 : 1;
    partners[entry.slot].s[half] = g.other_s;
    partners[entry.slot].q[half] = g.other_q;
  }
}

/// Calls fn(slot1, slot2) for every sampled triangle {k, k1, k2} at
/// sampled edge k = edge, in ascending order of its third node w, where k1
/// lies on the endpoint with the smaller block (edge.u's on a tie): the
/// matches of one intersection of the two endpoint blocks, smaller block
/// first. Every ForEachTriangle must emit exactly this sequence — the sums
/// below add in it.
template <typename Fn>
void IntersectTriangles(const SampledGraph& graph, const Edge& edge,
                        Fn&& fn) {
  std::span<const AdjEntry> block1 = graph.Neighbors(edge.u);
  std::span<const AdjEntry> block2 = graph.Neighbors(edge.v);
  if (block1.size() > block2.size()) std::swap(block1, block2);
  IntersectSorted(
      block1.data(), block1.size(), block2.data(), block2.size(),
      /*metrics=*/nullptr,
      [&](NodeId, SlotId slot1, SlotId slot2) { fn(slot1, slot2); });
}

/// Adds sampled edge `slot`'s terms (see the file comment) to *out.
template <bool SpanOnly, typename Records>
void AccumulateEdge(const Records& records, SlotId slot,
                    const PartnerSums& partners, Sums* out) {
  const Edge edge = records.edge(slot);
  const double inv_q = records.inv_q(slot);
  const uint64_t sh = StratumOf<SpanOnly>(records, slot);

  double nk_tri = 0.0, vk_tri = 0.0;
  double run_tri = 0.0;      // prefix sum of 1/(q1 q2) over counted triangles
  double ck_tri = 0.0;       // Σ over pairs of counted triangles at k
  double d_contained = 0.0;  // (triangle, counted wedge {k, k_i} inside it)
  double covb = 0.0;         // (triangle, counted wedge {k1, k2} inside it)
  // k1 = (v1, w) on the smaller-degree endpoint v1, k2 = (v2, w).
  records.ForEachTriangle(slot, edge, [&](SlotId slot1, SlotId slot2) {
    const uint64_t s1 = StratumOf<SpanOnly>(records, slot1);
    const uint64_t s2 = StratumOf<SpanOnly>(records, slot2);
    if (SpanOnly && s1 == sh && s2 == sh) return;  // within one stratum
    const double inv_q1 = records.inv_q(slot1);
    const double inv_q2 = records.inv_q(slot2);
    const double inv_q1q2 = inv_q1 * inv_q2;
    const double est = inv_q * inv_q1q2;
    nk_tri += est;
    vk_tri += est * (est - 1.0);
    ck_tri += run_tri * inv_q1q2;
    run_tri += inv_q1q2;
    if (!SpanOnly || s1 != sh) d_contained += inv_q1q2 * inv_q1;
    if (!SpanOnly || s2 != sh) d_contained += inv_q1q2 * inv_q2;
    if (!SpanOnly || s1 != s2) covb += est * (inv_q1q2 - 1.0);
  });

  const double wed_s = partners.s[0] + partners.s[1];
  const double wed_q = partners.q[0] + partners.q[1];
  const double ck_wed = (wed_s * wed_s - wed_q) / 2.0;
  const double pair_factor = 2.0 * inv_q * (inv_q - 1.0);
  out->n_tri += nk_tri;
  out->v_tri += vk_tri;
  out->c_tri += ck_tri * pair_factor;
  out->n_wed += inv_q * wed_s;
  out->v_wed += inv_q * inv_q * wed_q - inv_q * wed_s;
  out->c_wed += ck_wed * pair_factor;
  out->cov_tw += (run_tri * wed_s - d_contained) * inv_q * (inv_q - 1.0);
  out->cov_tw += covb;
}

/// Algorithm 2 over the records listed in `order` — every sampled slot
/// once, in a resume-stable order — on up to `threads` threads, in
/// `*buffers`. The result is bit-identical for every thread count.
template <bool SpanOnly, typename Records>
GraphEstimates Estimate(const Records& records, std::span<const SlotId> order,
                        unsigned threads, PassBuffers* buffers) {
  const SampledGraph& graph = records.graph();
  if (buffers->partners.size() < records.slot_bound()) {
    buffers->partners.resize(records.slot_bound());
  }
  PartnerSums* partners = buffers->partners.data();
  const size_t ranges = NumChunks(graph.node_table_size(), kNodeRange);
  const unsigned workers = ChunkWorkers(ranges, threads);
  if (buffers->scratch.size() < workers) buffers->scratch.resize(workers);
  ForEachChunk(ranges, threads, [&](size_t range, unsigned worker) {
    // The range's blocks first, so the walk can prefetch ahead: every
    // block, and every record and partner sum it points to, is a random
    // access.
    NodeScratch& scratch = buffers->scratch[worker];
    std::vector<std::pair<NodeId, std::span<const AdjEntry>>>& blocks =
        scratch.blocks;
    blocks.clear();
    graph.ForEachNodeBlockInRange(
        range * kNodeRange, (range + 1) * kNodeRange,
        [&](NodeId x, std::span<const AdjEntry> block) {
          blocks.emplace_back(x, block);
        });
    for (size_t j = 0; j < blocks.size(); ++j) {
      if (j + 2 * kPrefetchNodes < blocks.size()) {
        __builtin_prefetch(blocks[j + 2 * kPrefetchNodes].second.data());
      }
      if (j + kPrefetchNodes < blocks.size()) {
        const std::span<const AdjEntry> ahead =
            blocks[j + kPrefetchNodes].second;
        for (const AdjEntry& entry : ahead) {
          if (ahead.size() > 1) records.Prefetch(entry.slot);
          __builtin_prefetch(&partners[entry.slot], /*rw=*/1);
        }
      }
      FillPartnerSums<SpanOnly>(records, blocks[j].first, blocks[j].second,
                                &scratch, partners);
    }
  });

  const size_t chunks = NumChunks(order.size(), kChunkSize);
  buffers->partial.resize(chunks);
  ForEachChunk(chunks, threads, [&](size_t chunk, unsigned) {
    Sums sums;  // local: neighbouring partials share cache lines
    const size_t end = std::min(order.size(), (chunk + 1) * kChunkSize);
    for (size_t i = chunk * kChunkSize; i < end; ++i) {
      AccumulateEdge<SpanOnly>(records, order[i], partners[order[i]], &sums);
    }
    buffers->partial[chunk] = sums;
  });
  Sums total;
  for (const Sums& sums : buffers->partial) total.Add(sums);
  return total.Finalize();
}

/// As above, on buffers of its own.
template <bool SpanOnly, typename Records>
GraphEstimates Estimate(const Records& records, std::span<const SlotId> order,
                        unsigned threads) {
  PassBuffers buffers;
  return Estimate<SpanOnly>(records, order, threads, &buffers);
}

}  // namespace algorithm2
}  // namespace gps

#endif  // GPS_CORE_ALGORITHM2_H_
