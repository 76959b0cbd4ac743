// The paper-analog corpus: a named registry of synthetic graphs standing in
// for the real-world graphs of the paper's evaluation (see the
// family-regime comment in src/gen/registry.cc). Each entry matches the
// *family regime* of its paper counterpart — degree-tail heaviness,
// clustering level, density — at laptop scale, and is fully deterministic
// (fixed seed per entry).

#ifndef GPS_GEN_REGISTRY_H_
#define GPS_GEN_REGISTRY_H_

#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "util/status.h"

namespace gps {

/// Metadata for one corpus graph.
struct CorpusEntry {
  std::string name;       ///< registry key, e.g. "soc-orkut-sim"
  std::string family;     ///< social | web | collaboration | road | ...
  std::string analog_of;  ///< the paper graph this stands in for
};

/// All registry entries in canonical order.
const std::vector<CorpusEntry>& CorpusEntries();

/// True if `name` is a registered corpus graph.
bool IsCorpusGraph(const std::string& name);

/// Generates a corpus graph by name. `scale` in (0, 1] shrinks node and
/// edge targets proportionally (tests use small scales for speed; bench
/// drivers use 1.0 unless GPS_BENCH_SCALE asks for less).
Result<EdgeList> MakeCorpusGraph(const std::string& name, double scale = 1.0);

}  // namespace gps

#endif  // GPS_GEN_REGISTRY_H_
