#include "graph/stream.h"

#include "util/random.h"

namespace gps {

std::vector<Edge> MakePermutedStream(const EdgeList& list, uint64_t seed) {
  EdgeList simplified = list;
  simplified.Simplify();
  std::vector<Edge> edges = simplified.Edges();
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
