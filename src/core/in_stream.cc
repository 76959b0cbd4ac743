#include "core/in_stream.h"

#include <cassert>
#include <initializer_list>
#include <span>

#include "graph/intersect.h"

namespace gps {
namespace {

using SlotRecord = InStreamEstimator::SlotRecord;

// How many entries ahead the wedge loop prefetches the slot records: the
// slots of a block are scattered over the records, and eight iterations
// of the loop's divide chain cover a cache miss.
constexpr size_t kPrefetchDistance = 8;

/// Duplicates/loops carry no new subgraphs under the simple-graph model;
/// both stages skip them (defensive: well-formed streams do not contain
/// them). Adjacency is symmetric, so the smaller block decides.
bool RepeatOrLoop(const Edge& e, std::span<const AdjEntry> nu,
                  std::span<const AdjEntry> nv) {
  const bool u_smaller = nu.size() <= nv.size();
  return e.IsSelfLoop() ||
         SampledGraph::FindInBlock(u_smaller ? nu : nv,
                                   u_smaller ? e.v : e.u) != kNoSlot;
}

/// The triangle k completes with the sampled edges in slots k1 and k2
/// (Algorithm 3 lines 9-19). Updates are independent across triangles
/// because the non-k edges of distinct triangles at k are distinct.
inline void UpdateTriangle(SlotRecord* slots, double z_star, SlotId slot_k1,
                           SlotId slot_k2, double& n_tri, double& v_tri,
                           double& cov_tw) {
  SlotRecord& k1 = slots[slot_k1];
  SlotRecord& k2 = slots[slot_k2];
  const double q1 = GpsReservoir::InclusionProbability(k1.weight, z_star);
  const double q2 = GpsReservoir::InclusionProbability(k2.weight, z_star);
  const double inv = 1.0 / (q1 * q2);

  n_tri += inv;                                     // line 14
  v_tri += (inv - 1.0) * inv;                       // line 15
  v_tri += 2.0 * (k1.cov_tri + k2.cov_tri) * inv;   // line 16
  cov_tw += (k1.cov_wedge + k2.cov_wedge) * inv;    // line 17
  k1.cov_tri += (1.0 / q1 - 1.0) / q2;              // line 18
  k2.cov_tri += (1.0 / q2 - 1.0) / q1;              // line 19
}

/// The wedges k forms with the sampled edges in slots slot_at(0), ...,
/// slot_at(n - 1) (Algorithm 3 lines 20-27).
template <typename SlotAt>
inline void UpdateWedges(SlotRecord* slots, double z_star, size_t n,
                         SlotAt slot_at, double& n_wed, double& v_wed,
                         double& cov_tw) {
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n) {
      // A 24-byte record can straddle two cache lines.
      const char* ahead =
          reinterpret_cast<const char*>(slots + slot_at(i + kPrefetchDistance));
      __builtin_prefetch(ahead, 1);
      __builtin_prefetch(ahead + sizeof(SlotRecord) - 1, 1);
    }
    SlotRecord& r = slots[slot_at(i)];
    const double q = GpsReservoir::InclusionProbability(r.weight, z_star);
    const double inv = 1.0 / q;
    n_wed += inv;                      // line 23
    v_wed += inv * (inv - 1.0);        // line 24
    v_wed += 2.0 * r.cov_wedge * inv;  // line 25
    cov_tw += r.cov_tri * inv;         // line 26
    r.cov_wedge += inv - 1.0;          // line 27
  }
}

}  // namespace

InStreamEstimator::InStreamEstimator(GpsSamplerOptions options)
    : InStreamEstimator(options.weight,
                        GpsReservoir(GpsOptions{options.capacity,
                                                options.seed})) {}

InStreamEstimator::InStreamEstimator(const WeightOptions& weight,
                                     GpsReservoir reservoir)
    : weight_fn_(weight), reservoir_(std::move(reservoir)) {
  slots_.reserve(reservoir_.store().slot_capacity());
}

void InStreamEstimator::Process(const Edge& raw) {
  const Edge e = raw.Canonical();
  const SampledGraph& graph = reservoir_.graph();

  // One node-table lookup per endpoint: the two blocks serve the duplicate
  // check, the intersection and both wedge loops.
  const std::span<const AdjEntry> nu = graph.Neighbors(e.u);
  const std::span<const AdjEntry> nv = graph.Neighbors(e.v);
  if (RepeatOrLoop(e, nu, nv)) {
    // Counted as an arrival, as GpsReservoir::Process counts it.
    reservoir_.NoteExternalArrivals(1);
    return;
  }

  // ---- GPSESTIMATE(k): snapshots taken before k's sampling step. ----
  // z* and the record base stay in registers for the whole arrival.
  const double z_star = reservoir_.threshold();
  SlotRecord* const slots = slots_.data();

  // One triangle per sampled common neighbor. The match count doubles as
  // the |Γ̂(u) ∩ Γ̂(v)| the weight function needs below — no second
  // intersection per arrival.
  double n_tri = n_tri_;
  double v_tri = v_tri_;
  double cov_tw_tri = cov_tw_;
  const size_t sampled_triangles = IntersectSorted(
      nu.data(), nu.size(), nv.data(), nv.size(), graph.intersect_metrics(),
      [&, slots, z_star](NodeId, SlotId slot_k1, SlotId slot_k2) {
        UpdateTriangle(slots, z_star, slot_k1, slot_k2, n_tri, v_tri,
                       cov_tw_tri);
      });

  // Wedges with each sampled edge adjacent to k, u's block then v's (v is
  // not in u's block, nor u in v's, after the duplicate check). Fresh
  // locals: the triangle sums' addresses escape through the simd kernels'
  // callback pointer (hence the by-value captures of z* and the record
  // base above), and these sums must stay in registers across the
  // cov_wedge stores.
  double n_wed = n_wed_;
  double v_wed = v_wed_;
  double cov_tw = cov_tw_tri;
  for (const std::span<const AdjEntry> block : {nu, nv}) {
    UpdateWedges(
        slots, z_star, block.size(),
        [block](size_t i) { return block[i].slot; }, n_wed, v_wed, cov_tw);
  }

  n_tri_ = n_tri;
  v_tri_ = v_tri;
  n_wed_ = n_wed;
  v_wed_ = v_wed;
  cov_tw_ = cov_tw;

  // ---- GPSUPDATE(k, m): weight, priority, provisional include, evict. ----
  const double weight = weight_fn_.Compute(e, graph, sampled_triangles);
  const GpsReservoir::ProcessResult result = reservoir_.Process(e, weight);
  if (result.inserted) Admit(result.slot, weight);
}

void InStreamEstimator::Sample(const Edge& raw, SlotLog& log) {
  const Edge e = raw.Canonical();
  const SampledGraph& graph = reservoir_.graph();
  const std::span<const AdjEntry> nu = graph.Neighbors(e.u);
  const std::span<const AdjEntry> nv = graph.Neighbors(e.v);
  if (RepeatOrLoop(e, nu, nv)) {
    reservoir_.NoteExternalArrivals(1);
    return;
  }

  // The record of what Process's estimation step reads, in the order it
  // reads it; the blocks are copied before Process below can move them.
  log.PutHeader(reservoir_.threshold(),
                static_cast<uint32_t>(nu.size() + nv.size()));
  const size_t sampled_triangles = IntersectSorted(
      nu.data(), nu.size(), nv.data(), nv.size(), graph.intersect_metrics(),
      [&log](NodeId, SlotId slot_k1, SlotId slot_k2) {
        log.PutPair(slot_k1, slot_k2);
      });
  log.EndPairs();
  log.PutSlots(nu);
  log.PutSlots(nv);

  const double weight = weight_fn_.Compute(e, graph, sampled_triangles);
  const GpsReservoir::ProcessResult result = reservoir_.Process(e, weight);
  log.PutAdmission(result.inserted ? result.slot : kNoSlot, weight);
}

void InStreamEstimator::Estimate(SlotLog& log) {
  // The sums stay in locals across records and are written back once.
  double n_tri = n_tri_;
  double v_tri = v_tri_;
  double n_wed = n_wed_;
  double v_wed = v_wed_;
  double cov_tw = cov_tw_;
  SlotLog::Header record;
  while (log.NextRecord(&record)) {
    const double z_star = record.z_star;
    SlotRecord* const slots = slots_.data();
    SlotId slot_k1 = kNoSlot;
    SlotId slot_k2 = kNoSlot;
    while (log.NextPair(&slot_k1, &slot_k2)) {
      UpdateTriangle(slots, z_star, slot_k1, slot_k2, n_tri, v_tri, cov_tw);
    }
    for (size_t left = record.wedge_slots; left > 0;) {
      const std::span<const uint32_t> run = log.ReadSlots(left);
      UpdateWedges(
          slots, z_star, run.size(), [run](size_t i) { return run[i]; },
          n_wed, v_wed, cov_tw);
      left -= run.size();
    }
    SlotId admitted = kNoSlot;
    double weight = 0.0;
    log.ReadAdmission(&admitted, &weight);
    if (admitted != kNoSlot) Admit(admitted, weight);
  }
  n_tri_ = n_tri;
  v_tri_ = v_tri;
  n_wed_ = n_wed;
  v_wed_ = v_wed;
  cov_tw_ = cov_tw;
}

InStreamEstimator InStreamEstimator::FromParts(
    const WeightOptions& weight, GpsReservoir reservoir,
    const Accumulators& acc, std::span<const SlotRecord> slots) {
  InStreamEstimator est(weight, std::move(reservoir));
  assert(slots.size() == est.reservoir_.store().num_slots());
  est.slots_.assign(slots.begin(), slots.end());
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
