// Post-stream estimation (paper Algorithm 2, Section 4).
//
// Given the GPS sample at any point in the stream, computes unbiased
// Horvitz–Thompson estimates of triangle and wedge counts together with
// their unbiased variance estimates and the triangle–wedge covariance needed
// for the clustering-coefficient confidence interval.
//
// The computation is localized per sampled edge (Eqs. 13–14) and runs on
// the one Algorithm-2 kernel the engine's union passes share
// (core/algorithm2.h): an edge's triangles come from one adaptive
// intersection of its two endpoint blocks and its wedge terms in O(1) from
// per-record partner sums filled by one pass per node, so the whole pass
// costs O(m + Σ_k min{deg(v1), deg(v2)} · log m), within O(m^{3/2} log m).

#ifndef GPS_CORE_POST_STREAM_H_
#define GPS_CORE_POST_STREAM_H_

#include "core/estimates.h"
#include "core/reservoir.h"
#include "core/sample_view.h"

namespace gps {

/// Computes post-stream triangle/wedge/clustering estimates from the current
/// reservoir state. Does not modify the reservoir; can be called at any time
/// during the stream (retrospective queries).
GraphEstimates EstimatePostStream(const GpsReservoir& reservoir);

/// Convenience overload on a view.
inline GraphEstimates EstimatePostStream(const SampleView& view) {
  return EstimatePostStream(view.reservoir());
}

/// Parallel variant: runs the per-edge accumulation (which the paper notes
/// is embarrassingly parallel, Section 4 "Efficiency") on `num_threads`
/// threads over fixed chunks with an ordered reduction, so the estimates
/// are bit-identical to EstimatePostStream for every thread count.
GraphEstimates EstimatePostStreamParallel(const GpsReservoir& reservoir,
                                          unsigned num_threads);

}  // namespace gps

#endif  // GPS_CORE_POST_STREAM_H_
