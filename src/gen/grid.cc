#include "gen/generators.h"

#include "graph/types.h"
#include "util/random.h"

namespace gps {

Result<EdgeList> GenerateGrid(uint32_t rows, uint32_t cols, double diag_prob,
                              uint64_t seed) {
  if (rows < 2 || cols < 2) {
    return Status::InvalidArgument("Grid: need at least a 2x2 lattice");
  }
  if (diag_prob < 0.0 || diag_prob > 1.0) {
    return Status::InvalidArgument("Grid: diag_prob outside [0,1]");
  }

  Rng rng(seed);
  EdgeList list;
  auto id = [cols](uint32_t r, uint32_t c) { return r * cols + c; };
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) list.Add(id(r, c), id(r, c + 1));
      if (r + 1 < rows) list.Add(id(r, c), id(r + 1, c));
      // One diagonal per unit square with probability diag_prob; a diagonal
      // creates exactly two triangles with the square's sides, giving the
      // sparse triangle population characteristic of road networks.
      if (c + 1 < cols && r + 1 < rows && rng.Bernoulli(diag_prob)) {
        if (rng.Bernoulli(0.5)) {
          list.Add(id(r, c), id(r + 1, c + 1));
        } else {
          list.Add(id(r, c + 1), id(r + 1, c));
        }
      }
    }
  }
  list.Simplify();
  return list;
}

}  // namespace gps
