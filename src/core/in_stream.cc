#include "core/in_stream.h"

#include <initializer_list>
#include <span>

#include "graph/intersect.h"

namespace gps {
namespace {

// How many adjacency entries ahead the wedge loop prefetches the slot
// columns: the slots of a block are scattered over the store, and eight
// iterations of the loop's divide chain cover a cache miss.
constexpr size_t kPrefetchDistance = 8;

}  // namespace

InStreamEstimator::InStreamEstimator(GpsSamplerOptions options)
    : weight_fn_(options.weight),
      reservoir_(GpsOptions{options.capacity, options.seed,
                            options.mem_bytes}) {}

void InStreamEstimator::Process(const Edge& raw) {
  const Edge e = raw.Canonical();
  const SampledGraph& graph = reservoir_.graph();

  // One node-table lookup per endpoint: the two blocks serve the duplicate
  // check, the intersection and both wedge loops.
  const std::span<const AdjEntry> nu = graph.Neighbors(e.u);
  const std::span<const AdjEntry> nv = graph.Neighbors(e.v);

  // Duplicates/loops carry no new subgraphs under the simple-graph model;
  // skip both estimation and sampling, but count the arrival as
  // GpsReservoir::Process does (defensive: well-formed streams do not
  // contain them). Adjacency is symmetric, so the smaller block decides.
  const bool u_smaller = nu.size() <= nv.size();
  if (e.IsSelfLoop() ||
      SampledGraph::FindInBlock(u_smaller ? nu : nv, u_smaller ? e.v : e.u) !=
          kNoSlot) {
    reservoir_.NoteExternalArrivals(1);
    return;
  }

  // ---- GPSESTIMATE(k): snapshots taken before k's sampling step. ----
  // z* and the column bases stay in registers for the whole arrival: the
  // estimation step changes neither the threshold nor the slot layout.
  const double z_star = reservoir_.threshold();
  const InStreamColumns cols = reservoir_.in_stream_columns();

  // Triangles completed by k = (u, v): one per sampled common neighbor
  // (Algorithm 3 lines 9-19). Updates are independent across triangles
  // because the non-k edges of distinct triangles at k are distinct.
  // The match count doubles as the |Γ̂(u) ∩ Γ̂(v)| the weight function
  // needs below — no second intersection per arrival.
  double n_tri = n_tri_;
  double v_tri = v_tri_;
  double cov_tw_tri = cov_tw_;
  const size_t sampled_triangles = IntersectSorted(
      nu.data(), nu.size(), nv.data(), nv.size(), graph.intersect_metrics(),
      [&, cols, z_star](NodeId, SlotId slot_k1, SlotId slot_k2) {
        const double q1 =
            GpsReservoir::InclusionProbability(cols.weight[slot_k1], z_star);
        const double q2 =
            GpsReservoir::InclusionProbability(cols.weight[slot_k2], z_star);
        const double inv = 1.0 / (q1 * q2);

        n_tri += inv;                // line 14
        v_tri += (inv - 1.0) * inv;  // line 15
        v_tri += 2.0 * (cols.cov_tri[slot_k1] + cols.cov_tri[slot_k2]) *
                 inv;  // line 16
        cov_tw_tri += (cols.cov_wedge[slot_k1] + cols.cov_wedge[slot_k2]) *
                      inv;                                // line 17
        cols.cov_tri[slot_k1] += (1.0 / q1 - 1.0) / q2;  // line 18
        cols.cov_tri[slot_k2] += (1.0 / q2 - 1.0) / q1;  // line 19
      });

  // Wedges formed by k with each sampled edge adjacent to it, u's block
  // then v's (Algorithm 3 lines 20-27; v is not in u's block, nor u in
  // v's, after the duplicate check). Fresh locals: the triangle sums'
  // addresses escape through the simd kernels' callback pointer (hence the
  // by-value captures of z* and the columns above), and these sums must
  // stay in registers across the cov_wedge stores.
  double n_wed = n_wed_;
  double v_wed = v_wed_;
  double cov_tw = cov_tw_tri;
  for (const std::span<const AdjEntry> block : {nu, nv}) {
    const size_t n = block.size();
    for (size_t i = 0; i < n; ++i) {
      if (i + kPrefetchDistance < n) {
        const SlotId ahead = block[i + kPrefetchDistance].slot;
        __builtin_prefetch(cols.weight + ahead);
        __builtin_prefetch(cols.cov_tri + ahead);
        __builtin_prefetch(cols.cov_wedge + ahead, 1);
      }
      const SlotId slot = block[i].slot;
      const double q =
          GpsReservoir::InclusionProbability(cols.weight[slot], z_star);
      const double inv = 1.0 / q;
      n_wed += inv;                               // line 23
      v_wed += inv * (inv - 1.0);                 // line 24
      v_wed += 2.0 * cols.cov_wedge[slot] * inv;  // line 25
      cov_tw += cols.cov_tri[slot] * inv;         // line 26
      cols.cov_wedge[slot] += inv - 1.0;          // line 27
    }
  }

  n_tri_ = n_tri;
  v_tri_ = v_tri;
  n_wed_ = n_wed;
  v_wed_ = v_wed;
  cov_tw_ = cov_tw;

  // ---- GPSUPDATE(k, m): weight, priority, provisional include, evict. ----
  // Eviction discards the evicted edge's covariance accumulators (lines
  // 39-40) automatically: they live in the freed slot and are zeroed when
  // the slot is reused.
  const double weight = weight_fn_.Compute(e, graph, sampled_triangles);
  reservoir_.Process(e, weight);
}

InStreamEstimator InStreamEstimator::FromParts(const WeightOptions& weight,
                                               GpsReservoir reservoir,
                                               const Accumulators& acc) {
  InStreamEstimator est(weight, std::move(reservoir));
  est.n_tri_ = acc.n_tri;
  est.v_tri_ = acc.v_tri;
  est.n_wed_ = acc.n_wed;
  est.v_wed_ = acc.v_wed;
  est.cov_tw_ = acc.cov_tw;
  return est;
}

GraphEstimates InStreamEstimator::Estimates() const {
  GraphEstimates out;
  out.triangles.value = n_tri_;
  out.triangles.variance = v_tri_;
  out.wedges.value = n_wed_;
  out.wedges.variance = v_wed_;
  out.tri_wedge_cov = cov_tw_;
  return out;
}

}  // namespace gps
