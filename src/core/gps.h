// GpsSampler: the user-facing facade combining a weight function with a
// GpsReservoir (paper Algorithm 1 in full: GPSUPDATE with W(k, K̂)).
//
// Typical use — build a reference sample for retrospective queries:
//
//   gps::GpsSampler sampler({.capacity = 200000, .seed = 7});
//   for (const gps::Edge& e : stream) sampler.Process(e);
//   gps::GraphEstimates est = gps::EstimatePostStream(sampler.reservoir());
//   double tri = est.triangles.value;
//   double lo  = est.triangles.Lower(), hi = est.triangles.Upper();

#ifndef GPS_CORE_GPS_H_
#define GPS_CORE_GPS_H_

#include <cstdint>

#include "core/reservoir.h"
#include "core/sample_view.h"
#include "core/weights.h"
#include "graph/types.h"

namespace gps {

/// Facade configuration: reservoir options plus the weight scheme.
struct GpsSamplerOptions {
  size_t capacity = 100000;
  uint64_t seed = 1;
  WeightOptions weight = {};
};

class GpsSampler {
 public:
  explicit GpsSampler(GpsSamplerOptions options = {});

  /// Processes one arriving stream edge: computes W(k, K̂) against the
  /// current sampled topology, then performs the priority-reservoir update.
  /// Returns the reservoir's process result.
  GpsReservoir::ProcessResult Process(const Edge& e);

  /// Read-only HT view of the current sample.
  SampleView View() const { return SampleView(reservoir_); }

  const GpsReservoir& reservoir() const { return reservoir_; }
  const WeightFunction& weight_function() const { return weight_fn_; }
  uint64_t edges_processed() const { return reservoir_.edges_processed(); }

 private:
  WeightFunction weight_fn_;
  GpsReservoir reservoir_;
};

}  // namespace gps

#endif  // GPS_CORE_GPS_H_
