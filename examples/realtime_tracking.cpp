// Real-time tracking: monitor triangle counts and clustering coefficient of
// a live edge stream with the sharded GPS engine (paper Section 5 /
// Figure 3). Models a social-media monitoring scenario: interactions
// arrive continuously; the application keeps fresh, low-variance merged
// estimates with confidence bounds while storing only a small sample.
// When to read an estimate is the application's choice: the estimators
// stay unbiased at any stream position, and reading never changes the
// sample.
//
//   build/examples/realtime_tracking
//
// The same loop is scriptable as `gps_cli monitor --every N` (CSV rows),
// which can also rewrite a resumable checkpoint as it goes
// (--checkpoint-every M --checkpoint DIR; gps_cli resume-shards).

#include <cstdint>
#include <cstdio>

#include "engine/sharded_engine.h"
#include "gen/registry.h"
#include "graph/exact.h"
#include "graph/stream.h"

int main() {
  // A social-network-like interaction stream (soc-youtube analog at small
  // scale so the demo finishes instantly).
  auto graph = gps::MakeCorpusGraph("soc-youtube-sim", 0.25);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  const std::vector<gps::Edge> stream = gps::MakePermutedStream(*graph, 3);

  gps::ShardedEngineOptions options;
  options.sampler.capacity = stream.size() / 25;  // store 4% of the stream
  options.sampler.seed = 99;
  options.num_shards = 4;  // parallel ingestion, merged estimates
  gps::ShardedEngine monitor(options);

  // Track exactly alongside (only feasible offline; shown for comparison).
  gps::ExactStreamCounter exact;

  std::printf("monitoring %zu-edge stream: %u shards, %zu-edge reservoir\n\n",
              stream.size(), monitor.num_shards(),
              options.sampler.capacity);
  std::printf("%12s %14s %14s %22s %10s %10s %10s\n", "edges seen",
              "tri (actual)", "tri (est)", "tri 95% CI", "ci width",
              "cc (actual)", "cc (est)");

  // Every report_every edges, read the merged estimates: MergedRecord()
  // drains the shard workers and merges on this thread.
  const uint64_t report_every = stream.size() / 12;
  for (const gps::Edge& e : stream) {
    exact.AddEdge(e);
    monitor.Process(e);
    if (monitor.edges_processed() % report_every != 0) continue;
    const gps::MonitorRecord record = monitor.MergedRecord();
    const gps::Estimate& tri = record.estimates.triangles;
    const gps::Estimate cc = record.estimates.ClusteringCoefficient();
    std::printf("%12llu %14.0f %14.0f [%9.0f,%9.0f] %10.0f %10.4f %10.4f\n",
                static_cast<unsigned long long>(record.edges_processed),
                exact.Counts().triangles, tri.value, tri.Lower(), tri.Upper(),
                tri.Upper() - tri.Lower(),
                exact.Counts().ClusteringCoefficient(), cc.value);
  }
  monitor.Finish();

  const gps::GraphEstimates final_estimates = monitor.MergedEstimates();
  std::printf("\nfinal: %llu edges seen, triangle estimate %.0f "
              "(exact %.0f)\n",
              static_cast<unsigned long long>(monitor.edges_processed()),
              final_estimates.triangles.value, exact.Counts().triangles);
  return 0;
}
