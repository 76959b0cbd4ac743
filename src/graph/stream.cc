#include "graph/stream.h"

#include <utility>

#include "util/random.h"

namespace gps {

std::vector<Edge> MakePermutedStream(EdgeList list, uint64_t seed) {
  list.Simplify();
  std::vector<Edge> edges = std::move(list).TakeEdges();
  Rng rng(seed);
  // Fisher–Yates; explicit loop (rather than std::shuffle) so the
  // permutation is identical across standard library implementations.
  for (size_t i = edges.size(); i > 1; --i) {
    const size_t j = rng.UniformU64(i);
    std::swap(edges[i - 1], edges[j]);
  }
  return edges;
}

}  // namespace gps
