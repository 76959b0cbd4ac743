// Motif monitoring on the sharded engine: track registered motifs (here
// 4-cliques and 3-paths, which Algorithm 3's triangle/wedge estimator
// does not cover) live over a stream beside the triangle estimate,
// reading the merged estimates at fixed stream positions — the loop
// `gps_cli monitor --motifs` runs. Estimation consumes no randomness, so
// the motif suite rides on the exact same reservoir sample path the
// triangle/wedge estimates use, at any shard count.
//
//   build/examples/motif_monitoring

#include <cmath>
#include <cstdint>
#include <cstdio>

#include "core/motifs.h"
#include "engine/sharded_engine.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "graph/exact.h"
#include "graph/stream.h"

int main() {
  // A clique-rich collaboration-style graph.
  gps::EdgeList graph =
      gps::GenerateBarabasiAlbert(6000, 18, 0.65, 9).value();
  const std::vector<gps::Edge> stream = gps::MakePermutedStream(graph, 10);

  gps::ShardedEngineOptions options;
  options.sampler.capacity = stream.size() / 2;
  options.sampler.seed = 77;
  options.num_shards = 4;
  options.motifs = {"4clique", "3path"};

  gps::ShardedEngine engine(options);
  std::printf("monitoring %zu-edge stream (%u shards, reservoir budget "
              "%zu edges)\n\n",
              stream.size(), options.num_shards, options.sampler.capacity);
  std::printf("%12s %16s %16s %16s\n", "edges seen", "triangles(est)",
              "4-cliques(est)", "3-paths(est)");
  // Every eighth of the stream, read the merged estimates: MergedRecord()
  // drains the shard workers and merges on this thread. The triangle
  // column is Algorithm 3's estimate, the others the motif suite's.
  const uint64_t report_every = stream.size() / 8;
  for (const gps::Edge& e : stream) {
    engine.Process(e);
    if (engine.edges_processed() % report_every != 0) continue;
    const gps::MonitorRecord r = engine.MergedRecord();
    std::printf("%12llu %16.0f %16.0f %16.0f\n",
                static_cast<unsigned long long>(r.edges_processed),
                r.estimates.triangles.value, r.motifs[0].estimate.value,
                r.motifs[1].estimate.value);
  }
  engine.Finish();

  const std::vector<gps::MotifEstimate> final_motifs =
      engine.MergedMotifEstimates();
  const gps::ExactCounts exact = gps::CountExact(
      gps::CsrGraph::FromEdgeList(graph), /*count_higher_motifs=*/true);
  const double k4 = final_motifs[0].estimate.value;
  std::printf("\nexact 4-cliques: %.0f (estimate off by %.2f%%)\n",
              exact.four_cliques,
              100.0 * std::abs(k4 - exact.four_cliques) /
                  std::max(1.0, exact.four_cliques));
  std::printf("exact 3-paths:   %.0f (estimate off by %.2f%%)\n",
              exact.three_paths,
              100.0 * std::abs(final_motifs[1].estimate.value -
                               exact.three_paths) /
                  std::max(1.0, exact.three_paths));
  std::printf("4-clique std-dev lower bound: %.0f\n",
              final_motifs[0].estimate.StdDev());
  return 0;
}
