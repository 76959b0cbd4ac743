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
//     order — the triangles {k, (v1,w), (v2,w)} at k (lines 5-9). Each
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
// (O(deg), plus a sort by stratum with SpanOnly) and each edge one
// intersection, O(min deg · log(max deg / min deg)); the whole estimate is
// O(m + Σ_k min{deg(v1), deg(v2)} · log m), within O(m^{3/2} log m).
//
// Parallelism and determinism: per-edge terms are independent (the paper:
// Algorithm 2 "already has abundant parallelism"), so both passes run on
// the fixed-chunk driver of util/parallel_chunks.h — chunks of kChunkSize
// over the caller's record order, per-chunk partial sums, reduction in
// chunk order — and the bytes never depend on the thread count. Every sum
// is a function of the record order, the records' (edge, inv_q, stratum)
// and the neighbour-sorted blocks only, never of slot numbering or
// insertion history, so a union patched across monitor ticks and one built
// fresh give the same bits. Intersections pass no metrics: estimation is
// not arrival work, and the graph's intersect.* counters keep counting
// arrivals only.

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

/// Records per chunk of every pass. A constant: chunk boundaries must not
/// depend on the thread count.
inline constexpr size_t kChunkSize = 256;

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
  struct Entry {
    uint64_t group;
    uint32_t pos;  // index in the node's block
    double inv_q;
  };
  struct Group {
    uint32_t begin;
    uint32_t end;
    double s;        // Σ 1/q over the group
    double q;        // Σ 1/q² over the group
    double later_s;  // the same over the groups after it
    double later_q;
  };
  std::vector<Entry> entries;
  std::vector<Group> groups;
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
/// before) + (groups after) — never a total minus the record's own term,
/// which would cancel when one record's 1/q dominates the node.
template <bool SpanOnly, typename Records>
void FillPartnerSums(const Records& records, NodeId x,
                     std::span<const AdjEntry> block, NodeScratch* scratch,
                     PartnerSums* partners) {
  std::vector<NodeScratch::Entry>& entries = scratch->entries;
  entries.clear();
  for (uint32_t pos = 0; pos < block.size(); ++pos) {
    const SlotId slot = block[pos].slot;
    const uint64_t group = SpanOnly ? StratumOf<SpanOnly>(records, slot) : pos;
    entries.push_back({group, pos, records.inv_q(slot)});
  }
  if constexpr (SpanOnly) {
    std::sort(entries.begin(), entries.end(),
              [](const NodeScratch::Entry& a, const NodeScratch::Entry& b) {
                return a.group != b.group ? a.group < b.group : a.pos < b.pos;
              });
  }

  std::vector<NodeScratch::Group>& groups = scratch->groups;
  groups.clear();
  for (uint32_t begin = 0; begin < entries.size();) {
    NodeScratch::Group g{begin, begin, 0.0, 0.0, 0.0, 0.0};
    for (; g.end < entries.size() && entries[g.end].group == entries[begin].group;
         ++g.end) {
      const double inv_q = entries[g.end].inv_q;
      g.s += inv_q;
      g.q += inv_q * inv_q;
    }
    groups.push_back(g);
    begin = g.end;
  }
  double later_s = 0.0, later_q = 0.0;
  for (size_t g = groups.size(); g-- > 0;) {
    groups[g].later_s = later_s;
    groups[g].later_q = later_q;
    later_s += groups[g].s;
    later_q += groups[g].q;
  }
  double earlier_s = 0.0, earlier_q = 0.0;
  for (const NodeScratch::Group& g : groups) {
    const double s = earlier_s + g.later_s;
    const double q = earlier_q + g.later_q;
    for (uint32_t i = g.begin; i < g.end; ++i) {
      const AdjEntry& entry = block[entries[i].pos];
      const int half = x < entry.nbr ? 0 : 1;
      partners[entry.slot].s[half] = s;
      partners[entry.slot].q[half] = q;
    }
    earlier_s += g.s;
    earlier_q += g.q;
  }
}

/// Adds sampled edge `slot`'s terms (see the file comment) to *out.
template <bool SpanOnly, typename Records>
void AccumulateEdge(const Records& records, SlotId slot,
                    const PartnerSums& partners, Sums* out) {
  const SampledGraph& graph = records.graph();
  const Edge edge = records.edge(slot);
  // k1 = (v1, w) on the smaller-degree endpoint v1, k2 = (v2, w).
  std::span<const AdjEntry> block1 = graph.Neighbors(edge.u);
  std::span<const AdjEntry> block2 = graph.Neighbors(edge.v);
  if (block1.size() > block2.size()) std::swap(block1, block2);
  const double inv_q = records.inv_q(slot);
  const uint64_t sh = StratumOf<SpanOnly>(records, slot);

  double nk_tri = 0.0, vk_tri = 0.0;
  double run_tri = 0.0;      // prefix sum of 1/(q1 q2) over counted triangles
  double ck_tri = 0.0;       // Σ over pairs of counted triangles at k
  double d_contained = 0.0;  // (triangle, counted wedge {k, k_i} inside it)
  double covb = 0.0;         // (triangle, counted wedge {k1, k2} inside it)
  IntersectSorted(
      block1.data(), block1.size(), block2.data(), block2.size(),
      /*metrics=*/nullptr, [&](NodeId, SlotId slot1, SlotId slot2) {
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
/// once, in a resume-stable order — on up to `threads` threads. The result
/// is bit-identical for every thread count.
template <bool SpanOnly, typename Records>
GraphEstimates Estimate(const Records& records, std::span<const SlotId> order,
                        unsigned threads) {
  const SampledGraph& graph = records.graph();
  const size_t chunks = NumChunks(order.size(), kChunkSize);
  std::vector<PartnerSums> partners(records.slot_bound());
  std::vector<NodeScratch> scratch(ChunkWorkers(chunks, threads));
  // Each node is visited once, from the record holding its block's first
  // entry.
  ForEachChunk(chunks, threads, [&](size_t chunk, unsigned worker) {
    const size_t end = std::min(order.size(), (chunk + 1) * kChunkSize);
    for (size_t i = chunk * kChunkSize; i < end; ++i) {
      const Edge edge = records.edge(order[i]);
      for (const NodeId x : {edge.u, edge.v}) {
        const std::span<const AdjEntry> block = graph.Neighbors(x);
        if (block.front().slot != order[i]) continue;
        FillPartnerSums<SpanOnly>(records, x, block, &scratch[worker],
                                  partners.data());
      }
    }
  });

  std::vector<Sums> partial(chunks);
  ForEachChunk(partial.size(), threads, [&](size_t chunk, unsigned) {
    Sums sums;  // local: neighbouring partials share cache lines
    const size_t end = std::min(order.size(), (chunk + 1) * kChunkSize);
    for (size_t i = chunk * kChunkSize; i < end; ++i) {
      AccumulateEdge<SpanOnly>(records, order[i], partners[order[i]], &sums);
    }
    partial[chunk] = sums;
  });
  Sums total;
  for (const Sums& sums : partial) total.Add(sums);
  return total.Finalize();
}

}  // namespace algorithm2
}  // namespace gps

#endif  // GPS_CORE_ALGORITHM2_H_
