#include "core/reservoir.h"

#include <algorithm>
#include <cassert>

namespace gps {

GpsReservoir::GpsReservoir(GpsOptions options)
    : options_(options), rng_(options.seed), store_(options.capacity) {
  assert(options_.capacity > 0);
  heap_.reserve(options_.capacity + 1);
}

GpsReservoir::ProcessResult GpsReservoir::Process(const Edge& raw,
                                                  double weight) {
  ++processed_;
  const Edge e = raw.Canonical();
  if (e.IsSelfLoop() || graph_.HasEdge(e)) return {};

  // Priority r(k) = w(k)/u(k), u ~ Uni(0,1] (Algorithm 1 lines 7-9).
  // The uniform variate is drawn unconditionally so the sample path is a
  // deterministic function of (seed, arrival sequence).
  const double u = rng_.UniformOpenClosed01();
  const double priority = weight / u;

  // O(1) admission pre-check: a full reservoir discards any priority at
  // or below z* — z* <= min surviving priority <= heap top, so the heap
  // comparison below would discard it anyway, and max(z*, priority) is a
  // no-op. One cached-double comparison instead of a heap-array load.
  if (priority <= z_star_ && heap_.size() >= options_.capacity) {
    metrics_.precheck_rejects.Increment();
    return {};
  }

  const EdgeRecord record{e, weight, priority};
  ProcessResult result;
  if (heap_.size() < options_.capacity) {
    const SlotId slot = store_.Allocate();
    store_.Store(slot, record);
    heap_.Push(HeapItem{priority, slot});
    graph_.AddEdge(e, slot);
    result.inserted = true;
    result.slot = slot;
    metrics_.admissions.Increment();
    return result;
  }

  // Reservoir full: provisional inclusion of k makes m+1 candidates; the
  // minimum-priority candidate is discarded and its priority raises z*.
  if (priority <= heap_.Top().priority) {
    // The arriving edge itself is the minimum: discard it.
    z_star_ = std::max(z_star_, priority);
    return result;
  }

  const HeapItem evicted = heap_.PopMin();
  z_star_ = std::max(z_star_, evicted.priority);
  const SlotId removed = graph_.RemoveEdge(store_.edge(evicted.slot));
  (void)removed;
  assert(removed == evicted.slot);
  store_.Free(evicted.slot);

  const SlotId slot = store_.Allocate();
  store_.Store(slot, record);
  heap_.Push(HeapItem{priority, slot});
  graph_.AddEdge(e, slot);
  result.inserted = true;
  result.evicted = true;
  result.slot = slot;
  metrics_.admissions.Increment();
  metrics_.evictions.Increment();
  return result;
}

GpsReservoir GpsReservoir::FromParts(
    const GpsOptions& options, double z_star, uint64_t processed,
    const std::array<uint64_t, 4>& rng_state,
    std::span<const EdgeRecord> records) {
  GpsReservoir res(options);
  res.rng_.RestoreState(rng_state);
  res.z_star_ = z_star;
  res.processed_ = processed;
  for (const EdgeRecord& rec : records) {
    const SlotId slot = res.store_.Allocate();
    res.store_.Store(slot, rec);
    res.heap_.Push(HeapItem{rec.priority, slot});
    res.graph_.AddEdge(rec.edge, slot);
  }
  return res;
}

bool GpsReservoir::CheckInvariants() const {
  if (!heap_.IsValidHeap()) return false;
  if (heap_.size() > options_.capacity) return false;
  if (graph_.NumEdges() != heap_.size()) return false;
  if (store_.live_slots() != heap_.size()) return false;
  for (const HeapItem& item : heap_.Items()) {
    if (!store_.live(item.slot)) return false;
    if (store_.priority(item.slot) != item.priority) return false;
    // Every surviving edge must beat the threshold (selection event B_i).
    if (store_.priority(item.slot) < z_star_ &&
        heap_.size() == options_.capacity) {
      // Priorities below z* can only remain if they entered before the
      // threshold rose past them — impossible under priority sampling.
      return false;
    }
    if (graph_.FindEdge(store_.edge(item.slot)) != item.slot) return false;
  }
  return true;
}

}  // namespace gps
