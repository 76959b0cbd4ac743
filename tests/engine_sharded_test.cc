// ShardedEngine contract tests.
//
// Determinism: fixed (stream, seed, K) gives byte-identical per-shard
// reservoirs regardless of batch size (thread-schedule independence),
// and K=1 reproduces the serial GpsSampler / InStreamEstimator sample
// path exactly.
//
// Accuracy: merged K ∈ {1, 2, 4, 8} estimates are gated through the
// shared statistical harness (tests/stat_harness.h) — multi-trial mean
// relative error and CI coverage with binomial tolerance, trial count
// scaled by GPS_STAT_TRIALS — and the cross-shard correction stratum is
// load-bearing (dropping it undercounts badly for K > 1).
//
// Monitoring: a caller-driven loop that cuts the stream at every tick and
// reads MergedRecord() there samples exactly those positions, each sample
// equals a fresh prefix-only run's merged estimates, and monitoring never
// perturbs the sample path.
//
// The span entry point (ProcessEdges) is covered in
// tests/engine_router_test.cc.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/gps.h"
#include "core/in_stream.h"
#include "core/local_counts.h"
#include "core/motifs.h"
#include "core/post_stream.h"
#include "core/seeding.h"
#include "core/serialize.h"
#include "core/slot_log.h"
#include "engine/merge.h"
#include "engine/sharded_engine.h"
#include "engine_test_util.h"
#include "gen/generators.h"
#include "gen/registry.h"
#include "graph/csr_graph.h"
#include "graph/exact.h"
#include "graph/stream.h"
#include "stat_harness.h"
#include "util/cpus.h"

namespace gps {
namespace {

std::vector<Edge> TestStream(uint32_t nodes, uint32_t edges_per_node,
                             uint64_t graph_seed, uint64_t stream_seed) {
  EdgeList graph =
      GenerateBarabasiAlbert(nodes, edges_per_node, 0.6, graph_seed).value();
  return MakePermutedStream(graph, stream_seed);
}

using engine_test::ExpectExactlyEqual;
using engine_test::ExpectMotifsExactlyEqual;
using engine_test::InStreamBytes;
using engine_test::ReservoirBytes;
using engine_test::ShardBytes;

GpsSamplerOptions BaseOptions(size_t capacity, uint64_t seed) {
  GpsSamplerOptions options;
  options.capacity = capacity;
  options.seed = seed;
  return options;
}

TEST(ShardSeedingTest, SingleShardKeepsBaseSeed) {
  EXPECT_EQ(DeriveShardSeed(12345, 0, 1), 12345u);
}

TEST(ShardSeedingTest, ShardsAndLayoutsDecorrelate) {
  EXPECT_NE(DeriveShardSeed(1, 0, 2), DeriveShardSeed(1, 1, 2));
  EXPECT_NE(DeriveShardSeed(1, 0, 2), DeriveShardSeed(1, 0, 4));
  EXPECT_NE(DeriveShardSeed(1, 0, 2), DeriveShardSeed(2, 0, 2));
}

TEST(ShardOfEdgeTest, OrientationInvariantAndInRange) {
  for (uint32_t k : {1u, 2u, 5u, 8u}) {
    for (NodeId u = 0; u < 50; ++u) {
      for (NodeId v = u + 1; v < 50; ++v) {
        const uint32_t s = ShardedEngine::ShardOfEdge(Edge{u, v}, k);
        EXPECT_LT(s, k);
        EXPECT_EQ(s, ShardedEngine::ShardOfEdge(Edge{v, u}, k));
      }
    }
  }
}

TEST(ShardOfEdgeTest, SpreadsRoughlyEvenly) {
  constexpr uint32_t kShards = 8;
  std::vector<int> counts(kShards, 0);
  const std::vector<Edge> stream = TestStream(2000, 6, 11, 12);
  for (const Edge& e : stream) {
    ++counts[ShardedEngine::ShardOfEdge(e, kShards)];
  }
  const double expected = static_cast<double>(stream.size()) / kShards;
  for (int c : counts) {
    EXPECT_GT(c, 0.8 * expected);
    EXPECT_LT(c, 1.2 * expected);
  }
}

TEST(ShardOfEdgeTest, RouteIsPinnedBitForBit) {
  // The partition is part of every sharded checkpoint: a resumed run must
  // route the rest of the stream exactly as the interrupted one did. FNV
  // folds of the route over a fixed edge grid, recorded from the
  // SplitMix64 + Lemire route as first released.
  const std::pair<uint32_t, uint64_t> kGolden[] = {
      {2, 0x7bef6f0fe11b91d4ull}, {3, 0x23f4530f3910bdbdull},
      {4, 0xf4ba6afe33b43600ull}, {7, 0x9f3b2443caa50970ull},
      {8, 0x7dc31fb967a2b46bull}, {64, 0x063ae5be9e99b70dull}};
  for (const auto& [k, want] : kGolden) {
    uint64_t h = 1469598103934665603ull;
    for (NodeId u = 0; u < 300; ++u) {
      for (NodeId v = u + 1; v < 300; v += 3) {
        h = (h ^ ShardedEngine::ShardOfEdge(Edge{u, v}, k)) *
            1099511628211ull;
      }
    }
    const NodeId big = 4000000000u;
    h = (h ^ ShardedEngine::ShardOfEdge(Edge{big, big - 1}, k)) *
        1099511628211ull;
    EXPECT_EQ(h, want) << "K=" << k;
  }
}

// --- Determinism contract -------------------------------------------------

TEST(ShardedEngineTest, SingleShardReservoirByteIdenticalToSerial) {
  const std::vector<Edge> stream = TestStream(1500, 6, 21, 22);
  const GpsSamplerOptions options = BaseOptions(1200, 23);

  GpsSampler serial(options);
  for (const Edge& e : stream) serial.Process(e);

  InStreamEstimator serial_in_stream(options);
  for (const Edge& e : stream) serial_in_stream.Process(e);

  ShardedEngineOptions engine_options;
  engine_options.sampler = options;
  engine_options.num_shards = 1;
  engine_options.batch_size = 97;  // deliberately odd
  ShardedEngine engine(engine_options);
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();

  // In-stream mode keeps per-slot covariance accumulators beside the
  // reservoir, so byte-compare the whole estimator against the serial
  // estimator of the same kind; the bare GpsSampler comparison runs the
  // post-stream-mode engine below.
  EXPECT_EQ(InStreamBytes(engine.shard(0).in_stream_estimator()),
            InStreamBytes(serial_in_stream));

  ShardedEngineOptions post_options = engine_options;
  post_options.batch_size = 1024;
  post_options.merge_mode = MergeMode::kPostStreamMerged;
  ShardedEngine post_engine(post_options);
  for (const Edge& e : stream) post_engine.Process(e);
  post_engine.Finish();
  EXPECT_EQ(ReservoirBytes(post_engine.shard(0).reservoir()),
            ReservoirBytes(serial.reservoir()));

  // The merged estimates of a single-shard engine ARE the serial
  // in-stream estimates: no cross-shard stratum exists.
  const GraphEstimates merged = engine.MergedEstimates();
  const GraphEstimates expected = serial_in_stream.Estimates();
  EXPECT_DOUBLE_EQ(merged.triangles.value, expected.triangles.value);
  EXPECT_DOUBLE_EQ(merged.triangles.variance, expected.triangles.variance);
  EXPECT_DOUBLE_EQ(merged.wedges.value, expected.wedges.value);
  EXPECT_DOUBLE_EQ(merged.wedges.variance, expected.wedges.variance);
  EXPECT_DOUBLE_EQ(merged.tri_wedge_cov, expected.tri_wedge_cov);
}

TEST(ShardedEngineTest, SingleShardPostStreamMergeMatchesSerialPost) {
  const std::vector<Edge> stream = TestStream(1200, 6, 31, 32);
  const GpsSamplerOptions options = BaseOptions(1000, 33);

  GpsSampler serial(options);
  for (const Edge& e : stream) serial.Process(e);
  const GraphEstimates expected = EstimatePostStream(serial.reservoir());
  InStreamEstimator serial_in_stream(options);
  for (const Edge& e : stream) serial_in_stream.Process(e);

  ShardedEngineOptions engine_options;
  engine_options.sampler = options;
  engine_options.num_shards = 1;
  engine_options.merge_mode = MergeMode::kPostStreamMerged;
  ShardedEngine engine(engine_options);
  for (const Edge& e : stream) engine.Process(e);

  // One kernel over the same records in the same order: the K=1 merged
  // post-stream estimate IS the serial one, bit for bit, in either mode.
  ExpectExactlyEqual(engine.MergedEstimates(), expected);
  ExpectExactlyEqual(EstimateMergedPostStream(
                         std::vector<const GpsReservoir*>{&serial.reservoir()}),
                     expected);

  engine_options.merge_mode = MergeMode::kInStreamPlusCross;
  ShardedEngine in_stream_engine(engine_options);
  for (const Edge& e : stream) in_stream_engine.Process(e);
  ExpectExactlyEqual(in_stream_engine.MergedPostStreamEstimates(),
                     EstimatePostStream(serial_in_stream.reservoir()));
}

TEST(ShardedEngineTest, ShardReservoirsInvariantToBatching) {
  const std::vector<Edge> stream = TestStream(1500, 6, 41, 42);
  constexpr uint32_t kShards = 4;

  std::vector<std::string> reference;
  for (const size_t batch_size : {size_t{1}, size_t{64}, size_t{1024}}) {
    ShardedEngineOptions options;
    options.sampler = BaseOptions(2000, 43);
    options.num_shards = kShards;
    options.batch_size = batch_size;
    ShardedEngine engine(options);
    for (const Edge& e : stream) engine.Process(e);
    engine.Finish();

    std::vector<std::string> bytes;
    for (uint32_t s = 0; s < kShards; ++s) {
      bytes.push_back(ShardBytes(engine, s));
    }
    if (reference.empty()) {
      reference = bytes;
      continue;
    }
    for (uint32_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(bytes[s], reference[s])
          << "shard " << s << " diverged at batch_size=" << batch_size;
    }
  }
}

TEST(ShardedEngineTest, ShardSubstreamMatchesStandaloneEstimator) {
  // Each shard must behave exactly like a serial estimator fed only the
  // shard's substream, with the derived seed.
  const std::vector<Edge> stream = TestStream(1200, 6, 51, 52);
  constexpr uint32_t kShards = 3;
  const GpsSamplerOptions base = BaseOptions(1500, 53);

  ShardedEngineOptions options;
  options.sampler = base;
  options.num_shards = kShards;
  ShardedEngine engine(options);
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();

  for (uint32_t s = 0; s < kShards; ++s) {
    GpsSamplerOptions shard_options = base;
    shard_options.capacity = (base.capacity + kShards - 1) / kShards;
    shard_options.seed = DeriveShardSeed(base.seed, s, kShards);
    InStreamEstimator standalone(shard_options);
    for (const Edge& e : stream) {
      if (ShardedEngine::ShardOfEdge(e, kShards) == s) {
        standalone.Process(e);
      }
    }
    EXPECT_EQ(InStreamBytes(engine.shard(s).in_stream_estimator()),
              InStreamBytes(standalone))
        << "shard " << s;
  }
}

// --- Accuracy contract ----------------------------------------------------

struct AccuracyResult {
  GraphEstimates merged;
  GraphEstimates within_only;
  ExactCounts exact;
};

/// Shared accuracy fixture, built once: trials re-run the engine with
/// fresh seeds over the same stream.
struct AccuracyFixture {
  std::vector<Edge> stream;
  ExactCounts exact;
};

const AccuracyFixture& AccuracyStream() {
  static const AccuracyFixture* fixture = [] {
    auto* out = new AccuracyFixture;
    EdgeList graph = GenerateBarabasiAlbert(3000, 8, 0.6, 61).value();
    out->stream = MakePermutedStream(graph, 62);
    out->exact = CountExact(CsrGraph::FromEdgeList(graph));
    return out;
  }();
  return *fixture;
}

AccuracyResult RunAccuracy(uint32_t num_shards, uint64_t engine_seed) {
  const AccuracyFixture& fixture = AccuracyStream();

  ShardedEngineOptions options;
  options.sampler = BaseOptions(fixture.stream.size() / 2, engine_seed);
  options.num_shards = num_shards;
  ShardedEngine engine(options);
  for (const Edge& e : fixture.stream) engine.Process(e);
  engine.Finish();

  AccuracyResult result;
  result.merged = engine.MergedEstimates();
  std::vector<GraphEstimates> per_shard;
  for (uint32_t s = 0; s < num_shards; ++s) {
    per_shard.push_back(engine.shard(s).InStreamEstimates());
  }
  result.within_only = SumShardEstimates(per_shard);
  result.exact = fixture.exact;
  return result;
}

class ShardedAccuracyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ShardedAccuracyTest, MergedEstimatesAccurateAndCovered) {
  const uint32_t k = GetParam();
  const std::string what = "K=" + std::to_string(k);
  const int trials = stat::StatTrials(10);

  const ExactCounts exact = AccuracyStream().exact;
  ASSERT_GT(exact.triangles, 0.0);
  ASSERT_GT(exact.wedges, 0.0);
  stat::EstimateTrials tri(exact.triangles);
  stat::EstimateTrials wed(exact.wedges);
  for (int trial = 0; trial < trials; ++trial) {
    const AccuracyResult r = RunAccuracy(k, 63 + trial);
    tri.Add(r.merged.triangles);
    wed.Add(r.merged.wedges);
  }

  // K=1 is the serial in-stream estimator: exactly unbiased (Theorem 6),
  // no slack. For K>1 the cross-shard stratum is a post-stream HT pass
  // against each shard's FINAL threshold, which carries the classic
  // finite-capacity priority-sampling bias (the threshold is not fully
  // independent of an edge's own priority; vanishes as capacity grows —
  // observed ~0.7% here), so allow a small relative slack on top of the
  // sampling tolerance.
  const double slack = k > 1 ? 0.015 : 0.0;
  tri.ExpectMeanNearExact(what + " triangles", 4.0, slack);
  wed.ExpectMeanNearExact(what + " wedges", 4.0, slack);
  tri.ExpectMeanRelErrorBelow(0.10, what + " triangles");
  wed.ExpectMeanRelErrorBelow(0.05, what + " wedges");

  // Merged CIs omit the cross-stratum covariance (engine README), so
  // gate the attainable coverage, not the nominal 0.95.
  tri.ExpectCoverageAtLeast(0.85, what + " triangles");
  wed.ExpectCoverageAtLeast(0.85, what + " wedges");
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedAccuracyTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(ShardedEngineTest, CrossShardCorrectionIsLoadBearing) {
  // With 4 shards, only ~1/16 of triangles have all three edges in one
  // shard: the within-shard stratum alone must undercount badly, and the
  // correction must close the gap.
  const AccuracyResult r = RunAccuracy(4, 63);
  EXPECT_LT(r.within_only.triangles.value, 0.5 * r.exact.triangles);
  EXPECT_GT(r.merged.triangles.value, 0.7 * r.exact.triangles);
  EXPECT_LT(r.merged.triangles.value, 1.3 * r.exact.triangles);
}

TEST(ShardedEngineTest, DrainAllowsMidStreamEstimates) {
  const std::vector<Edge> stream = TestStream(1500, 6, 71, 72);
  ShardedEngineOptions options;
  options.sampler = BaseOptions(2000, 73);
  options.num_shards = 4;
  ShardedEngine engine(options);

  const size_t half = stream.size() / 2;
  for (size_t i = 0; i < half; ++i) engine.Process(stream[i]);
  engine.Drain();
  const GraphEstimates mid = engine.MergedEstimates();
  EXPECT_GT(mid.wedges.value, 0.0);
  EXPECT_EQ(engine.edges_processed(), half);

  for (size_t i = half; i < stream.size(); ++i) engine.Process(stream[i]);
  engine.Finish();
  const GraphEstimates full = engine.MergedEstimates();
  EXPECT_EQ(engine.edges_processed(), stream.size());
  // In-stream accumulators are monotone in the stream prefix.
  EXPECT_GE(full.wedges.value, mid.wedges.value);
}

// --- Motif-statistic pipeline ---------------------------------------------

TEST(ShardedEngineTest, MotifSuiteDoesNotPerturbSamplePathOrEstimates) {
  // The motif suite only READS shard reservoirs, so an engine with motifs
  // configured must end with byte-identical reservoirs and bit-identical
  // tri/wedge merged estimates at any K.
  const std::vector<Edge> stream = TestStream(1200, 6, 91, 92);
  for (const uint32_t k : {1u, 4u}) {
    ShardedEngineOptions options;
    options.sampler = BaseOptions(1500, 93);
    options.num_shards = k;

    ShardedEngine plain(options);
    for (const Edge& e : stream) plain.Process(e);
    plain.Finish();

    options.motifs = {"4clique", "3path", "4cycle"};
    ShardedEngine with_motifs(options);
    for (const Edge& e : stream) with_motifs.Process(e);
    with_motifs.Finish();

    for (uint32_t s = 0; s < k; ++s) {
      EXPECT_EQ(InStreamBytes(with_motifs.shard(s).in_stream_estimator()),
                InStreamBytes(plain.shard(s).in_stream_estimator()))
          << "K=" << k << " shard " << s;
    }
    ExpectExactlyEqual(with_motifs.MergedEstimates(),
                       plain.MergedEstimates());
  }
}

TEST(ShardedEngineTest, SingleShardMotifsMatchSerialSuite) {
  // K=1 has no cross-shard stratum: merged motif estimates ARE the values
  // a MotifSuite beside a serial GpsSampler gives, digit for digit (same
  // seed, same sample path — estimation consumes no randomness).
  const std::vector<Edge> stream = TestStream(1200, 6, 95, 96);
  const GpsSamplerOptions base = BaseOptions(1000, 97);

  ShardedEngineOptions options;
  options.sampler = base;
  options.num_shards = 1;
  options.motifs = {"4clique", "3path"};
  ShardedEngine engine(options);
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();
  const std::vector<MotifEstimate> merged = engine.MergedMotifEstimates();
  ASSERT_EQ(merged.size(), 2u);

  MotifSuite suite(options.motifs);
  GpsSampler serial(base);
  for (const Edge& e : stream) {
    suite.Observe(e, serial.reservoir());
    serial.Process(e);
  }
  EXPECT_EQ(merged[0].name, "4clique");
  EXPECT_GT(suite.accumulator(0).count, 0.0);
  EXPECT_DOUBLE_EQ(merged[0].estimate.value, suite.accumulator(0).count);
  EXPECT_DOUBLE_EQ(merged[0].estimate.variance,
                   suite.accumulator(0).variance);
  EXPECT_EQ(merged[0].snapshots, suite.accumulator(0).snapshots);
  EXPECT_DOUBLE_EQ(merged[1].estimate.value, suite.accumulator(1).count);
}

TEST(ShardedEngineTest, MergedEdgeCountAndDegreeMatchSerialAtKOne) {
  const std::vector<Edge> stream = TestStream(1000, 6, 98, 99);
  const GpsSamplerOptions base = BaseOptions(900, 100);

  InStreamEstimator serial(base);
  for (const Edge& e : stream) serial.Process(e);

  ShardedEngineOptions options;
  options.sampler = base;
  options.num_shards = 1;
  ShardedEngine engine(options);
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();

  EXPECT_DOUBLE_EQ(engine.MergedEdgeCountEstimate(),
                   EstimateEdgeCount(serial.reservoir()));
  for (const NodeId v : {NodeId{0}, NodeId{5}, NodeId{999}}) {
    EXPECT_DOUBLE_EQ(engine.MergedDegreeEstimate(v),
                     EstimateDegree(serial.reservoir(), v));
  }
  // The edge-count estimator tracks the true distinct-edge count within
  // sampling noise on any K (disjoint substreams sum).
  ShardedEngineOptions sharded = options;
  sharded.num_shards = 4;
  ShardedEngine engine4(sharded);
  for (const Edge& e : stream) engine4.Process(e);
  engine4.Finish();
  const auto distinct = [&stream] {
    ExactStreamCounter counter;
    for (const Edge& e : stream) counter.AddEdge(e);
    return static_cast<double>(counter.NumEdges());
  }();
  EXPECT_NEAR(engine4.MergedEdgeCountEstimate(), distinct, 0.2 * distinct);
}

/// Sharded 4-clique accuracy fixture: clique-rich stream with its exact
/// counts, shared across the K-parameterized trials. Deliberately small:
/// this suite also runs under ASan/TSan Debug builds, and 3-path
/// unbiasedness is gated serially in core_calibration_test (the sharded
/// gate sticks to 4-cliques, the acceptance motif).
const AccuracyFixture& MotifAccuracyStream() {
  static const AccuracyFixture* fixture = [] {
    auto* out = new AccuracyFixture;
    EdgeList graph = GenerateBarabasiAlbert(350, 9, 0.65, 101).value();
    out->stream = MakePermutedStream(graph, 102);
    out->exact = CountExact(CsrGraph::FromEdgeList(graph),
                            /*count_higher_motifs=*/true);
    return out;
  }();
  return *fixture;
}

class ShardedMotifAccuracyTest
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ShardedMotifAccuracyTest, FourCliqueUnbiasedAcrossShardCounts) {
  const uint32_t k = GetParam();
  const std::string what = "K=" + std::to_string(k) + " 4-cliques";
  const AccuracyFixture& fixture = MotifAccuracyStream();
  ASSERT_GT(fixture.exact.four_cliques, 100.0);

  const int trials = stat::StatTrials(10);
  stat::PointTrials k4(fixture.exact.four_cliques);
  for (int trial = 0; trial < trials; ++trial) {
    ShardedEngineOptions options;
    options.sampler =
        BaseOptions(fixture.stream.size() * 2 / 3, 103 + trial);
    options.num_shards = k;
    options.motifs = {"4clique"};
    ShardedEngine engine(options);
    for (const Edge& e : fixture.stream) engine.Process(e);
    engine.Finish();
    k4.Add(engine.MergedMotifEstimates()[0].estimate.value);
  }

  // K=1 is the serial snapshot estimator: exactly unbiased (Theorem 4),
  // no slack. K>1 adds the cross-shard post-stream stratum, which carries
  // the same finite-capacity priority-sampling bias the tri/wedge merge
  // documents (~1-2% here); 4-clique products amplify it slightly (up to
  // six per-edge factors), so allow a wider relative slack on top of the
  // sampling tolerance.
  const double slack = k > 1 ? 0.05 : 0.0;
  k4.ExpectMeanNearExact(what, 4.0, slack);
  k4.ExpectMeanRelErrorBelow(0.45, what);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedMotifAccuracyTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

// --- Continuous monitoring ------------------------------------------------

TEST(ShardedEngineTest, MonitorTicksSampleExactPrefixEstimates) {
  const std::vector<Edge> stream = TestStream(1200, 6, 81, 82);
  ShardedEngineOptions options;
  options.sampler = BaseOptions(1500, 83);
  options.num_shards = 4;
  options.batch_size = 64;
  options.motifs = {"4clique", "3path"};

  constexpr uint64_t kEvery = 700;
  std::vector<MonitorRecord> records;
  ShardedEngine engine(options);
  engine_test::FeedCutAt(engine, stream, kEvery, [&](uint64_t) {
    records.push_back(engine.MergedRecord());
  });
  engine.Finish();
  const GraphEstimates monitored_final = engine.MergedEstimates();

  ASSERT_EQ(records.size(), stream.size() / kEvery);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].edges_processed, (i + 1) * kEvery);
  }

  // Each sample equals a fresh engine run over exactly that prefix, fed
  // edge by edge: the monitored engine's mid-stream reads are
  // linearizable at edge boundaries and perturb nothing.
  for (const MonitorRecord& record : records) {
    ShardedEngine prefix(options);
    for (uint64_t i = 0; i < record.edges_processed; ++i) {
      prefix.Process(stream[i]);
    }
    prefix.Finish();
    ExpectExactlyEqual(record.estimates, prefix.MergedEstimates());
    ExpectMotifsExactlyEqual(record.motifs, prefix.MergedMotifEstimates());
  }

  // Monitoring must not change the final state either.
  ShardedEngine unmonitored(options);
  for (const Edge& e : stream) unmonitored.Process(e);
  unmonitored.Finish();
  ExpectExactlyEqual(monitored_final, unmonitored.MergedEstimates());
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    EXPECT_EQ(ShardBytes(engine, s), ShardBytes(unmonitored, s))
        << "shard " << s;
  }
}

double ProcessCpuSeconds() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(ShardedEngineTest, IdleWorkersSleepAfterDrain) {
  // A drained engine has nothing for its workers to do: each must sleep
  // on its empty ring, not poll it. Spinning workers burned about 800 ms
  // of process CPU in this 200 ms window on a 4-vCPU host. At K=1 the
  // estimation helper of a ProcessEdges span must be gone once the call
  // returns: a helper left spinning on an empty log would burn the window.
  const std::vector<Edge> stream = TestStream(2000, 4, 51, 52);
  ASSERT_GE(stream.size(), kMinHelperSpan);
  for (const uint32_t k : {4u, 1u}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    ShardedEngineOptions options;
    options.sampler = BaseOptions(1000, 53);
    options.num_shards = k;
    ShardedEngine engine(options);
    if (k == 1) {
      engine.ProcessEdges(stream);
      if (UsableCpus() > 1) {
        EXPECT_GT(engine.shard(0).estimation_seconds(), 0.0);
      }
    } else {
      for (const Edge& e : stream) engine.Process(e);
    }
    engine.Drain();
    const double cpu_before = ProcessCpuSeconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const double idle_cpu = ProcessCpuSeconds() - cpu_before;
    EXPECT_LT(idle_cpu, 0.050) << "process CPU seconds while drained";
    engine.Finish();
  }
}

// --- K=1: the estimation stage on a helper thread --------------------------
//
// At K=1, ProcessEdges runs Algorithm 3's estimation stage on a helper
// thread over a slot log for spans of at least kMinHelperSpan edges. Each
// test below feeds a stream in one span (the helper on) and in uneven
// spans on both sides of the threshold (the helper switching on and off
// between spans, with batches that straddle them), and must land on the
// bits the one-thread path gives.

/// Span plans: the whole stream, then uneven pieces (the rest of the
/// stream goes in one last span).
const std::vector<std::vector<size_t>>& SpanPlans() {
  static const std::vector<std::vector<size_t>> plans = {
      {}, {1, kMinHelperSpan, kMinHelperSpan - 1, 3, 5003, 17011}};
  return plans;
}

/// Feeds `stream` through ProcessEdges in spans of `plan`'s lengths, then
/// the rest in one span, and drains.
void FeedSpans(ShardedEngine& engine, std::span<const Edge> stream,
               const std::vector<size_t>& plan) {
  for (const size_t len : plan) {
    const size_t take = std::min(len, stream.size());
    engine.ProcessEdges(stream.first(take));
    stream = stream.subspan(take);
  }
  if (!stream.empty()) engine.ProcessEdges(stream);
  engine.Drain();
}

ShardedEngineOptions SingleShardOptions(size_t capacity, uint64_t seed) {
  ShardedEngineOptions options;
  options.sampler = BaseOptions(capacity, seed);
  options.num_shards = 1;
  return options;
}

TEST(ShardedEngineTest, SingleShardSpansReachGoldenAlgorithm3Bits) {
  // core_in_stream_test's GoldenAlgorithm3Bits stream and literals: the
  // helper must reach the serial estimator's bits, not just agree with
  // another run that shares its arithmetic.
  EdgeList graph = MakeCorpusGraph("soc-orkut-sim", 0.05).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 2017);
  ASSERT_EQ(stream.size(), 40000u);
  for (const std::vector<size_t>& plan : SpanPlans()) {
    SCOPED_TRACE("spans: " + std::to_string(plan.size() + 1));
    ShardedEngine engine(SingleShardOptions(2000, 41));
    FeedSpans(engine, stream, plan);
    if (UsableCpus() > 1) {
      EXPECT_GT(engine.shard(0).estimation_seconds(), 0.0);
    }
    const InStreamEstimator& est = engine.shard(0).in_stream_estimator();
    ASSERT_EQ(est.reservoir().threshold(), 0x1.cbc156683dc21p+4);
    const InStreamEstimator::Accumulators acc = est.SaveAccumulators();
    EXPECT_EQ(acc.n_tri, 0x1.eb8e174d18743p+15);
    EXPECT_EQ(acc.v_tri, 0x1.79f830d00924fp+25);
    EXPECT_EQ(acc.n_wed, 0x1.b7956087b22b9p+21);
    EXPECT_EQ(acc.v_wed, 0x1.2337cfd4b7f98p+33);
    EXPECT_EQ(acc.cov_tw, 0x1.7e41d6f717636p+28);
    const GraphEstimates post = EstimatePostStream(est.reservoir());
    EXPECT_EQ(post.triangles.value, 0x1.1ca9b9634a729p+16);
    EXPECT_EQ(post.wedges.value, 0x1.a4bd3272b840ap+21);
    engine.Finish();
  }
}

/// Runs `stream` through a serial estimator (and `motifs` beside it, in
/// the order a shard runs them) and through K=1 engines under every span
/// plan, and requires the engines' shard state to equal the serial one
/// byte for byte: snapshot and motif accumulators, reservoir, and every
/// slot's covariance accumulators.
/// `before_each(serial, e)` sees the serial estimator before each arrival.
void ExpectSpansMatchSerial(
    const std::vector<Edge>& stream, size_t capacity, uint64_t seed,
    const std::vector<std::string>& motifs = {},
    const std::function<void(const InStreamEstimator&, const Edge&)>&
        before_each = nullptr) {
  ASSERT_GE(stream.size(), kMinHelperSpan);
  InStreamEstimator serial(BaseOptions(capacity, seed));
  MotifSuite serial_motifs(motifs);
  for (const Edge& e : stream) {
    if (before_each) before_each(serial, e);
    serial_motifs.Observe(e, serial.reservoir());
    serial.Process(e);
  }
  const std::string want = InStreamBytes(serial, serial_motifs);
  for (const std::vector<size_t>& plan : SpanPlans()) {
    SCOPED_TRACE("spans: " + std::to_string(plan.size() + 1));
    ShardedEngineOptions options = SingleShardOptions(capacity, seed);
    options.motifs = motifs;
    ShardedEngine engine(options);
    FeedSpans(engine, stream, plan);
    if (UsableCpus() > 1) {
      EXPECT_GT(engine.shard(0).estimation_seconds(), 0.0);
    }
    EXPECT_EQ(ShardBytes(engine, 0), want);
    ExpectExactlyEqual(engine.MergedEstimates(), serial.Estimates());
    engine.Finish();
  }
}

TEST(ShardedEngineTest, SingleShardHelperCarriesRecordsLargerThanAChunk) {
  // Hub 0 has 4400 leaves, hub 1 shares 2600 of them, a sparse ring joins
  // the leaves, and the hub-hub edge comes last. The hub's sampled block
  // outgrows one log chunk, so the records of its later arrivals span
  // chunks, and the last arrival matches thousands of pairs, so its pair
  // list spans chunks too.
  EdgeList list;
  for (NodeId leaf = 2; leaf < 4402; ++leaf) list.Add(0, leaf);
  for (NodeId leaf = 2; leaf < 2602; ++leaf) list.Add(1, leaf);
  for (NodeId leaf = 2; leaf + 7 < 4402; leaf += 7) list.Add(leaf, leaf + 7);
  std::vector<Edge> stream = MakePermutedStream(list, 61);
  stream.push_back(MakeEdge(0, 1));

  // The shapes the test needs, read off the serial sample path.
  size_t max_hub_block = 0;
  size_t last_pairs = 0;
  ExpectSpansMatchSerial(
      stream, 7200, 62, {},
      [&](const InStreamEstimator& serial, const Edge& e) {
        const SampledGraph& graph = serial.reservoir().graph();
        max_hub_block = std::max(max_hub_block, graph.Degree(0));
        if (e != MakeEdge(0, 1)) return;
        for (const AdjEntry& entry : graph.Neighbors(1)) {
          if (SampledGraph::FindInBlock(graph.Neighbors(0), entry.nbr) !=
              kNoSlot) {
            ++last_pairs;
          }
        }
      });
  EXPECT_GT(max_hub_block, SlotLog::kChunkWords);
  EXPECT_GT(2 * last_pairs, SlotLog::kChunkWords);
}

TEST(ShardedEngineTest, SingleShardHelperSkipsRepeatsAndLoops) {
  // Reversed repeats of recent edges and self loops: the sampling stage
  // skips them with no log record, and they still count as arrivals.
  const std::vector<Edge> base = TestStream(1500, 6, 71, 72);
  std::vector<Edge> stream;
  for (size_t i = 0; i < base.size(); ++i) {
    stream.push_back(base[i]);
    if (i % 5 == 4) stream.push_back(Edge{base[i - 3].v, base[i - 3].u});
    if (i % 11 == 10) stream.push_back(Edge{base[i].u, base[i].u});
  }
  ExpectSpansMatchSerial(stream, 3000, 73);
}

TEST(ShardedEngineTest, SingleShardHelperWithMotifSuite) {
  // The motif suite observes on the producer, before the sampling stage,
  // while the helper runs the snapshot updates.
  ExpectSpansMatchSerial(TestStream(2500, 5, 81, 82), 2500, 83,
                         {"3path", "4clique"});
}

TEST(ShardedEngineTest, SingleShardRunsInlineOnOneCpu) {
  // With one usable CPU the helper would only take turns with the
  // producer: K=1 runs both stages on the calling thread, and the merge
  // passes on one thread. The test restricts its own thread's affinity
  // and restores it on every exit.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  struct RestoreMask {
    const cpu_set_t* mask;
    ~RestoreMask() { sched_setaffinity(0, sizeof(*mask), mask); }
  } restore{&saved};

  const std::vector<Edge> stream = TestStream(1500, 6, 91, 92);
  InStreamEstimator serial(BaseOptions(2500, 93));
  for (const Edge& e : stream) serial.Process(e);

  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  EXPECT_EQ(UsableCpus(), 1u);
  EXPECT_EQ(MergeThreads(), 1u);
  ShardedEngine inline_engine(SingleShardOptions(2500, 93));
  inline_engine.ProcessEdges(stream);
  inline_engine.Drain();
  EXPECT_EQ(inline_engine.shard(0).estimation_seconds(), 0.0);
  EXPECT_EQ(ShardBytes(inline_engine, 0), InStreamBytes(serial));
  const GraphEstimates inline_post = inline_engine.MergedPostStreamEstimates();

  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  ShardedEngine engine(SingleShardOptions(2500, 93));
  engine.ProcessEdges(stream);
  engine.Drain();
  if (UsableCpus() > 1) {
    EXPECT_GT(engine.shard(0).estimation_seconds(), 0.0);
  }
  EXPECT_EQ(ShardBytes(engine, 0), ShardBytes(inline_engine, 0));
  ExpectExactlyEqual(engine.MergedPostStreamEstimates(), inline_post);
}

TEST(ShardedEngineTest, CountsAndOptionsExposed) {
  ShardedEngineOptions options;
  options.sampler = BaseOptions(100, 1);
  options.num_shards = 2;
  ShardedEngine engine(options);
  EXPECT_EQ(engine.num_shards(), 2u);
  engine.Process(MakeEdge(1, 2));
  engine.Process(MakeEdge(2, 3));
  EXPECT_EQ(engine.edges_processed(), 2u);
  engine.Finish();
  EXPECT_EQ(engine.shard(0).edges_submitted() +
                engine.shard(1).edges_submitted(),
            2u);
}

}  // namespace
}  // namespace gps
