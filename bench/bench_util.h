// Shared helpers for the table/figure reproduction benches.
//
// Corpus-scale rule: the paper's corpus spans 0.9M-265M edges with
// reservoirs of 10K-1M edges; our analog corpus spans ~0.4M-1M edges, so
// each driver scales its reservoir sizes to keep the *sampling fraction*
// regimes comparable (e.g. Table 1's m=200K on 27.9M edges ~ 0.7% maps to
// m=20K on ~600K edges ~ 3%), and generates the corpus at scale 1.0 unless
// GPS_BENCH_SCALE (BenchScale below) shrinks it for a quick pass.

#ifndef GPS_BENCH_BENCH_UTIL_H_
#define GPS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "gen/registry.h"
#include "graph/csr_graph.h"
#include "graph/exact.h"
#include "graph/stream.h"
#include "graph/types.h"

namespace gps::bench {

/// A corpus graph materialized for benchmarking.
struct BenchGraph {
  std::string name;
  EdgeList graph;
  std::vector<Edge> stream;
  ExactCounts actual;
};

/// Generates a corpus graph, permutes its stream and computes ground truth.
/// Exits with a message on failure (benches have no recovery path).
inline BenchGraph LoadBenchGraph(const std::string& name, double scale,
                                 uint64_t stream_seed) {
  auto graph = MakeCorpusGraph(name, scale);
  if (!graph.ok()) {
    std::fprintf(stderr, "failed to generate %s: %s\n", name.c_str(),
                 graph.status().ToString().c_str());
    std::exit(1);
  }
  BenchGraph out;
  out.name = name;
  out.graph = std::move(*graph);
  out.stream = MakePermutedStream(out.graph, stream_seed);
  out.actual = CountExact(CsrGraph::FromEdgeList(out.graph));
  return out;
}

/// Reads an environment-variable override for bench scale; lets users run
/// e.g. GPS_BENCH_SCALE=0.1 build/bench/bench_table1 for a quick pass.
inline double BenchScale(double default_scale) {
  const char* env = std::getenv("GPS_BENCH_SCALE");
  if (!env) return default_scale;
  const double v = std::atof(env);
  return (v > 0.0 && v <= 1.0) ? v : default_scale;
}

}  // namespace gps::bench

#endif  // GPS_BENCH_BENCH_UTIL_H_
