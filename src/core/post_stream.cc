#include "core/post_stream.h"

#include <utility>
#include <vector>

#include "core/algorithm2.h"

namespace gps {
namespace {

/// The reservoir as the Algorithm-2 kernel's record set: the one-stratum
/// case, every sampled edge under the reservoir's single threshold z*.
class ReservoirRecords {
 public:
  explicit ReservoirRecords(const GpsReservoir& reservoir)
      : reservoir_(reservoir) {}

  const SampledGraph& graph() const { return reservoir_.graph(); }
  size_t slot_bound() const { return reservoir_.store().num_slots(); }
  Edge edge(SlotId slot) const { return reservoir_.store().edge(slot); }
  double inv_q(SlotId slot) const {
    return 1.0 / reservoir_.Probability(slot);
  }
  /// No hint: the store keeps its columns private, and the pass runs once
  /// per sample.
  void Prefetch(SlotId) const {}
  /// One intersection per record: the pass runs once per sample, so an
  /// index of the triangles would cost memory and save nothing.
  template <typename Fn>
  void ForEachTriangle(SlotId, const Edge& edge, Fn&& fn) const {
    algorithm2::IntersectTriangles(graph(), edge, std::forward<Fn>(fn));
  }

 private:
  const GpsReservoir& reservoir_;
};

}  // namespace

GraphEstimates EstimatePostStream(const GpsReservoir& reservoir) {
  return EstimatePostStreamParallel(reservoir, 1);
}

GraphEstimates EstimatePostStreamParallel(const GpsReservoir& reservoir,
                                          unsigned num_threads) {
  std::vector<SlotId> order;  // heap order, which checkpoints preserve
  order.reserve(reservoir.size());
  reservoir.ForEachSlot([&](SlotId slot) { order.push_back(slot); });
  return algorithm2::Estimate</*SpanOnly=*/false>(ReservoirRecords(reservoir),
                                                  order, num_threads);
}

}  // namespace gps
