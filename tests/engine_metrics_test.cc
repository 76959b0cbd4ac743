// Observability subsystem contracts (util/metrics.h, util/trace.h, and
// their engine instrumentation).
//
// The load-bearing property: observation must be invisible. Metrics and
// tracing never feed back into sampling decisions, so a run with a trace
// sink attached and mid-stream metric snapshots taken is byte-identical
// (shard reservoirs, merged estimates) to a bare run. The suite also pins
// the primitive semantics the engine counters rely on (power-of-two
// histogram bucketing) and how SnapshotMetrics aggregates the shards:
// counters and histogram buckets sum, per-shard gauges take the maximum.
//
// Runs under TSan in CI (name matches the engine_ test regex): snapshot
// aggregation races against live relaxed-atomic writers by design.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/sharded_engine.h"
#include "engine_test_util.h"
#include "gen/generators.h"
#include "graph/stream.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace gps {
namespace {

using engine_test::ExpectExactlyEqual;
using engine_test::ShardBytes;
using engine_test::ScopedTempDir;

std::vector<Edge> TestStream(uint32_t nodes, uint32_t edges_per_node,
                             uint64_t graph_seed, uint64_t stream_seed) {
  EdgeList graph =
      GenerateBarabasiAlbert(nodes, edges_per_node, 0.6, graph_seed).value();
  return MakePermutedStream(graph, stream_seed);
}

ShardedEngineOptions EngineOptions(uint32_t shards, size_t capacity,
                                   uint64_t seed) {
  ShardedEngineOptions options;
  options.sampler.capacity = capacity;
  options.sampler.seed = seed;
  options.num_shards = shards;
  options.batch_size = 64;
  return options;
}

// ---------------------------------------------------------------------------
// Primitive semantics.

TEST(LatencyHistogramTest, PowerOfTwoBuckets) {
  EXPECT_EQ(LatencyHistogram::BucketFor(0), 0u);
  // floor(log2(ns)): 1 -> bucket 0, [2,4) -> 1, 1024 -> 10, and the top
  // bucket absorbs overflow.
  EXPECT_EQ(LatencyHistogram::BucketFor(1), 0u);
  EXPECT_EQ(LatencyHistogram::BucketFor(2), 1u);
  EXPECT_EQ(LatencyHistogram::BucketFor(3), 1u);
  EXPECT_EQ(LatencyHistogram::BucketFor(1024), 10u);
  EXPECT_EQ(LatencyHistogram::BucketFor(1025), 10u);
  EXPECT_EQ(LatencyHistogram::BucketFor(~uint64_t{0}),
            LatencyHistogram::kNumBuckets - 1);

  LatencyHistogram h;
  h.Record(0);
  h.Record(1);
  h.Record(1024);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.SumNs(), 1025u);
  EXPECT_EQ(h.BucketCount(0), 2u);  // 0ns and 1ns share bucket 0
  EXPECT_EQ(h.BucketCount(10), 1u);
}

TEST(MetricsSnapshotTest, ToJsonIsStableAndWellFormed) {
  MetricsSnapshot snap;
  snap.counters.push_back({"a.count", 7});
  snap.gauges.push_back({"b.gauge", 2.5});
  MetricsSnapshot::HistogramValue h;
  h.name = "c.hist";
  h.count = 1;
  h.sum_ns = 1024;
  h.buckets.assign(LatencyHistogram::kNumBuckets, 0);
  h.buckets[10] = 1;
  snap.histograms.push_back(h);

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"a.count\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"b.gauge\": 2.5"), std::string::npos);
  // Histogram bucket keys are the bucket's lower bound in ns (2^10).
  EXPECT_NE(json.find("\"1024\": 1"), std::string::npos);
  // Empty snapshots still render all three sections.
  const std::string empty = MetricsSnapshot{}.ToJson();
  EXPECT_NE(empty.find("\"counters\""), std::string::npos);
  EXPECT_NE(empty.find("\"gauges\""), std::string::npos);
  EXPECT_NE(empty.find("\"histograms\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine instrumentation.

TEST(EngineMetricsTest, CountersNonzeroAfterRun) {
  const std::vector<Edge> stream = TestStream(600, 8, 11, 12);
  ShardedEngine engine(EngineOptions(4, 200, 7));
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();
  const MetricsSnapshot snap = engine.SnapshotMetrics();
  EXPECT_EQ(snap.GaugeOr0("engine.edges_ingested"),
            static_cast<double>(stream.size()));
  EXPECT_GT(snap.CounterOr0("worker.batches_processed"), 0u);
  EXPECT_GT(snap.CounterOr0("reservoir.admissions"), 0u);
  // Stream >> capacity: the threshold rises, so the O(1) precheck must
  // have rejected and the heap must have evicted.
  EXPECT_GT(snap.CounterOr0("reservoir.precheck_rejects"), 0u);
  EXPECT_GT(snap.CounterOr0("reservoir.evictions"), 0u);
  EXPECT_GT(snap.GaugeOr0("reservoir.zstar"), 0.0);
  EXPECT_EQ(snap.GaugeOr0("reservoir.sample_size"), 200.0);
  EXPECT_GT(snap.GaugeOr0("ring.occupancy_hwm"), 0.0);
  // Per-stratum sample sizes cover every shard and sum to the total.
  double strata_total = 0.0;
  for (uint32_t s = 0; s < 4; ++s) {
    strata_total +=
        snap.GaugeOr0("merge.sample_size.shard" + std::to_string(s));
  }
  EXPECT_EQ(strata_total, 200.0);
  MetricsSnapshot::HistogramValue latency;
  ASSERT_TRUE(snap.FindHistogram("worker.batch_latency", &latency));
  EXPECT_EQ(latency.count, snap.CounterOr0("worker.batches_processed"));
  EXPECT_GT(latency.sum_ns, 0u);
}

// SnapshotMetrics assembles its snapshot from the shards in one pass:
// every counter and the latency histogram sum the shards' instances, the
// per-shard gauges take their maximum, sample size and arena bytes are
// totals, and each section is sorted by name.
TEST(EngineMetricsTest, SnapshotAggregatesTheShards) {
  const std::vector<Edge> stream = TestStream(600, 8, 61, 62);
  ShardedEngine engine(EngineOptions(4, 200, 17));
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();
  const MetricsSnapshot snap = engine.SnapshotMetrics();

  std::map<std::string, uint64_t> counters;
  double occupancy = 0, zstar = 0, busy = 0, idle = 0, load = 0, p99 = 0;
  double arena = 0, sample = 0;
  uint64_t latency_sum_ns = 0;
  std::vector<uint64_t> buckets(LatencyHistogram::kNumBuckets, 0);
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    const ShardWorker& shard = engine.shard(s);
    const RingMetrics& ring = shard.ring_metrics();
    counters["ring.push_fail"] += ring.push_fail.Value();
    counters["ring.pop_empty"] += ring.pop_empty.Value();
    counters["worker.batches_processed"] +=
        shard.worker_metrics().batches_processed.Value();
    const GpsReservoir& res = shard.reservoir();
    counters["reservoir.precheck_rejects"] +=
        res.metrics().precheck_rejects.Value();
    counters["reservoir.admissions"] += res.metrics().admissions.Value();
    counters["reservoir.evictions"] += res.metrics().evictions.Value();
    const IntersectMetrics& im = *res.graph().intersect_metrics();
    counters["intersect.merge"] += im.merge_calls.Value();
    counters["intersect.gallop"] += im.gallop_calls.Value();
    counters["intersect.simd"] += im.simd_calls.Value();

    occupancy = std::max(occupancy, ring.occupancy_hwm.Value());
    zstar = std::max(zstar, res.threshold());
    busy = std::max(busy, shard.busy_seconds());
    idle = std::max(idle, shard.idle_seconds());
    load = std::max(load, res.graph().node_load_factor());
    std::vector<size_t> probes;
    res.graph().ForEachNodeProbeLength(
        [&](size_t len) { probes.push_back(len); });
    ASSERT_FALSE(probes.empty());
    const size_t rank = probes.size() * 99 / 100;
    std::nth_element(probes.begin(), probes.begin() + rank, probes.end());
    p99 = std::max(p99, static_cast<double>(probes[rank]));
    arena += static_cast<double>(res.graph().arena_bytes());
    sample += static_cast<double>(res.size());
    EXPECT_EQ(snap.GaugeOr0("merge.sample_size.shard" + std::to_string(s)),
              static_cast<double>(res.size()));

    const LatencyHistogram& latency = shard.worker_metrics().batch_latency;
    latency_sum_ns += latency.SumNs();
    for (size_t b = 0; b < buckets.size(); ++b) {
      buckets[b] += latency.BucketCount(b);
    }
  }

  // Every counter, and only these, in name order.
  ASSERT_EQ(snap.counters.size(), counters.size());
  size_t i = 0;
  for (const auto& [name, sum] : counters) {
    EXPECT_EQ(snap.counters[i].name, name);
    EXPECT_EQ(snap.counters[i].value, sum) << name;
    ++i;
  }
  EXPECT_GT(snap.CounterOr0("reservoir.admissions"), 0u);
  EXPECT_TRUE(std::is_sorted(
      snap.gauges.begin(), snap.gauges.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));

  EXPECT_EQ(snap.GaugeOr0("ring.occupancy_hwm"), occupancy);
  EXPECT_EQ(snap.GaugeOr0("reservoir.zstar"), zstar);
  EXPECT_EQ(snap.GaugeOr0("worker.busy_seconds"), busy);
  EXPECT_EQ(snap.GaugeOr0("worker.idle_seconds"), idle);
  EXPECT_EQ(snap.GaugeOr0("store.load_factor"), load);
  EXPECT_EQ(snap.GaugeOr0("store.probe_len_p99"), p99);
  EXPECT_EQ(snap.GaugeOr0("store.arena_bytes"), arena);
  EXPECT_EQ(snap.GaugeOr0("reservoir.sample_size"), sample);
  EXPECT_GT(zstar, 0.0);
  EXPECT_GT(occupancy, 0.0);

  ASSERT_EQ(snap.histograms.size(), 1u);
  MetricsSnapshot::HistogramValue latency;
  ASSERT_TRUE(snap.FindHistogram("worker.batch_latency", &latency));
  EXPECT_EQ(latency.count, counters["worker.batches_processed"]);
  EXPECT_EQ(latency.sum_ns, latency_sum_ns);
  EXPECT_EQ(latency.buckets, buckets);  // bucket-wise sums

  // Absent names answer zero, not UB.
  EXPECT_EQ(snap.CounterOr0("missing"), 0u);
  EXPECT_EQ(snap.GaugeOr0("missing"), 0.0);
  EXPECT_FALSE(snap.FindHistogram("missing", nullptr));
}

TEST(EngineMetricsTest, MonitorTickSnapshotsMetrics) {
  // A tick carries no metrics; a monitor loop that wants them snapshots
  // the engine, which the tick has just drained.
  const std::vector<Edge> stream = TestStream(400, 8, 21, 22);
  ShardedEngine engine(EngineOptions(2, 150, 5));
  std::vector<MetricsSnapshot> seen;
  engine_test::FeedCutAt(engine, stream, 1000, [&](uint64_t) {
    engine.MergedRecord();
    seen.push_back(engine.SnapshotMetrics());
  });
  engine.Finish();
  ASSERT_GT(seen.size(), 1u);
  // Snapshots ride the monitor cadence: edge counts advance monotonically.
  EXPECT_EQ(seen[0].GaugeOr0("engine.edges_ingested"), 1000.0);
  EXPECT_EQ(seen[1].GaugeOr0("engine.edges_ingested"), 2000.0);
  EXPECT_GT(seen.back().CounterOr0("reservoir.admissions"), 0u);
}

// Observation must be invisible: a run with tracing attached and metrics
// snapshot-drained mid-stream ends byte-identical to a bare run.
TEST(EngineMetricsTest, ObservationPreservesByteIdentity) {
  const std::vector<Edge> stream = TestStream(800, 8, 31, 32);
  ShardedEngine plain(EngineOptions(4, 250, 9));
  for (const Edge& e : stream) plain.Process(e);
  plain.Finish();

  TraceEventSink sink;
  ShardedEngineOptions options = EngineOptions(4, 250, 9);
  options.trace = &sink;
  ShardedEngine observed(options);
  size_t processed = 0;
  for (const Edge& e : stream) {
    observed.Process(e);
    // Mid-stream snapshots force drains at awkward points; sequential
    // workers consume their substream in order regardless, so the sample
    // must not move.
    if (++processed == stream.size() / 2) observed.SnapshotMetrics();
  }
  observed.Finish();
  observed.SnapshotMetrics();

  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(ShardBytes(plain, s), ShardBytes(observed, s))
        << "shard " << s;
  }
  ExpectExactlyEqual(plain.MergedEstimates(), observed.MergedEstimates());
}

// ---------------------------------------------------------------------------
// Trace sink.

TEST(TraceTest, NullBufferSpanIsNoOp) {
  TraceEventSink sink;
  {
    TraceSpan span(&sink, nullptr, "ignored");
    span.SetArg("x", 1);
  }
  {
    TraceSpan span(nullptr, nullptr, "ignored");
  }
  EXPECT_EQ(sink.SpanCount(), 0u);
}

TEST(TraceTest, WriteJsonEmitsThreadNamesAndSpans) {
  const ScopedTempDir dir("metrics", "trace");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "trace.json").string();

  TraceEventSink sink;
  TraceBuffer* buf = sink.MakeBuffer(0, "shard-0");
  {
    TraceSpan span(&sink, buf, "batch");
    span.SetArg("edges", 64);
  }
  { TraceSpan span(&sink, buf, "checkpoint"); }
  ASSERT_EQ(sink.SpanCount(), 2u);
  EXPECT_EQ(sink.DroppedCount(), 0u);
  ASSERT_TRUE(sink.WriteJson(path).ok());

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"shard-0\""), std::string::npos);
  EXPECT_NE(json.find("\"batch\""), std::string::npos);
  EXPECT_NE(json.find("\"edges\":64"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceTest, EngineRunProducesWorkerSpans) {
  const ScopedTempDir dir("metrics", "engine_trace");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "trace.json").string();

  const std::vector<Edge> stream = TestStream(600, 8, 51, 52);
  TraceEventSink sink;
  ShardedEngineOptions options = EngineOptions(4, 200, 13);
  options.trace = &sink;
  ShardedEngine engine(options);
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();
  EXPECT_GT(sink.SpanCount(), 0u);
  ASSERT_TRUE(sink.WriteJson(path).ok());

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  // Every worker announced itself, and batch spans landed.
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_NE(json.find("\"shard-" + std::to_string(s) + "\""),
              std::string::npos);
  }
  EXPECT_NE(json.find("\"producer\""), std::string::npos);
  EXPECT_NE(json.find("\"batch\""), std::string::npos);
}

}  // namespace
}  // namespace gps
