// Edge-stream construction.
//
// Experimental protocol (paper Section 6): "We generate the graph stream by
// randomly permuting the set of edges in each graph." Streams here are
// deterministic given (graph, seed) so that different samplers — and the
// post- vs in-stream estimators — can be driven by byte-identical arrival
// orders.

#ifndef GPS_GRAPH_STREAM_H_
#define GPS_GRAPH_STREAM_H_

#include <cstdint>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"

namespace gps {

/// Returns the (simplified) edges of `list` in a uniformly random order
/// determined by `seed` (Fisher–Yates). Simplifies and permutes `list`'s
/// own edge vector: pass std::move(list) when the caller is done with it,
/// or an lvalue to permute a copy.
std::vector<Edge> MakePermutedStream(EdgeList list, uint64_t seed);

}  // namespace gps

#endif  // GPS_GRAPH_STREAM_H_
