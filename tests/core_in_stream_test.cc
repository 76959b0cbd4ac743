// Tests for in-stream estimation (Algorithm 3): exactness without eviction,
// unbiasedness under eviction, variance calibration, the identical-sample-
// path protocol, and the variance advantage over post-stream estimation.

#include "core/in_stream.h"

#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/post_stream.h"
#include "gen/generators.h"
#include "gen/registry.h"
#include "graph/csr_graph.h"
#include "graph/exact.h"
#include "graph/stream.h"
#include "util/digest.h"
#include "util/welford.h"

namespace gps {
namespace {

GraphEstimates RunInStream(const std::vector<Edge>& stream, size_t capacity,
                           uint64_t seed) {
  GpsSamplerOptions options;
  options.capacity = capacity;
  options.seed = seed;
  InStreamEstimator est(options);
  for (const Edge& e : stream) est.Process(e);
  return est.Estimates();
}

TEST(InStreamTest, ExactWhenNothingEvicted) {
  EdgeList graph = GenerateErdosRenyi(60, 250, 101).value();
  const ExactCounts actual = CountExact(CsrGraph::FromEdgeList(graph));
  const std::vector<Edge> stream = MakePermutedStream(graph, 102);
  const GraphEstimates est = RunInStream(stream, stream.size() + 5, 103);
  EXPECT_DOUBLE_EQ(est.triangles.value, actual.triangles);
  EXPECT_DOUBLE_EQ(est.wedges.value, actual.wedges);
  EXPECT_DOUBLE_EQ(est.triangles.variance, 0.0);
  EXPECT_DOUBLE_EQ(est.wedges.variance, 0.0);
}

TEST(InStreamTest, SingleTriangleStepByStep) {
  GpsSamplerOptions options;
  options.capacity = 10;
  options.seed = 1;
  InStreamEstimator est(options);
  est.Process(MakeEdge(0, 1));
  EXPECT_EQ(est.Estimates().triangles.value, 0.0);
  EXPECT_EQ(est.Estimates().wedges.value, 0.0);
  est.Process(MakeEdge(1, 2));
  EXPECT_EQ(est.Estimates().wedges.value, 1.0);
  est.Process(MakeEdge(0, 2));
  EXPECT_EQ(est.Estimates().triangles.value, 1.0);
  EXPECT_EQ(est.Estimates().wedges.value, 3.0);
}

TEST(InStreamTest, SkipsDuplicatesAndLoops) {
  GpsSamplerOptions options;
  options.capacity = 10;
  options.seed = 1;
  InStreamEstimator est(options);
  GpsSampler sampler(options);
  // A reversed duplicate (no wedge/triangle, no resample) and a loop.
  for (const Edge& e :
       {MakeEdge(0, 1), Edge{1, 0}, Edge{2, 2}, MakeEdge(1, 2)}) {
    est.Process(e);
    sampler.Process(e);
  }
  EXPECT_EQ(est.Estimates().wedges.value, 1.0);
  EXPECT_EQ(est.reservoir().size(), 2u);
  // Skipped arrivals still count, as they do for GpsSampler: checkpoints
  // record the count as the stream offset their shards have consumed.
  EXPECT_EQ(est.edges_processed(), 4u);
  EXPECT_EQ(est.edges_processed(), sampler.reservoir().edges_processed());
}

// Runs a hub-and-ring stream through two estimators: `clean` sees it as
// is; `dirty` also sees, after every third arrival, a repeat of a sampled
// hub edge, alternating (hub, leaf) and (leaf, hub). The leaf's block is
// the smaller one, so the duplicate check searches it for the hub: it is
// the edge's v block when the hub is the smaller id, its u block when the
// hub is the larger id.
void ExpectRepeatsChangeOnlyTheArrivalCount(NodeId hub, NodeId first_leaf) {
  constexpr NodeId kLeaves = 60;
  EdgeList list;
  for (NodeId i = 0; i < kLeaves; ++i) {
    list.Add(hub, first_leaf + i);
    list.Add(first_leaf + i, first_leaf + (i + 1) % kLeaves);
  }
  const std::vector<Edge> stream = MakePermutedStream(list, 193);

  GpsSamplerOptions options;
  options.capacity = 50;
  options.seed = 29;
  InStreamEstimator clean(options);
  InStreamEstimator dirty(options);
  uint64_t repeats = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    clean.Process(stream[i]);
    dirty.Process(stream[i]);
    const std::span<const AdjEntry> hub_block =
        clean.reservoir().graph().Neighbors(hub);
    if (i % 3 != 2 || hub_block.size() < 4) continue;
    const NodeId leaf = hub_block[i % hub_block.size()].nbr;
    ASSERT_LT(clean.reservoir().graph().Degree(leaf), hub_block.size());
    dirty.Process(repeats % 2 == 0 ? Edge{hub, leaf} : Edge{leaf, hub});
    ++repeats;
  }
  ASSERT_GT(repeats, 20u);
  ASSERT_GT(clean.reservoir().threshold(), 0.0);  // evicted along the way

  EXPECT_EQ(dirty.edges_processed(), clean.edges_processed() + repeats);
  const GraphEstimates a = clean.Estimates();
  const GraphEstimates b = dirty.Estimates();
  EXPECT_EQ(a.triangles.value, b.triangles.value);
  EXPECT_EQ(a.triangles.variance, b.triangles.variance);
  EXPECT_EQ(a.wedges.value, b.wedges.value);
  EXPECT_EQ(a.wedges.variance, b.wedges.variance);
  EXPECT_EQ(a.tri_wedge_cov, b.tri_wedge_cov);
  EXPECT_EQ(clean.reservoir().RngState(), dirty.reservoir().RngState());
  EXPECT_EQ(clean.reservoir().threshold(), dirty.reservoir().threshold());

  // Each sampled edge's reservoir record and its estimator record.
  using Records =
      std::vector<std::pair<EdgeRecord, InStreamEstimator::SlotRecord>>;
  const auto records = [](const InStreamEstimator& est) {
    Records out;
    est.reservoir().ForEachEdge([&](SlotId slot, const EdgeRecord& r) {
      out.emplace_back(r, est.slot_record(slot));
    });
    return out;
  };
  const Records clean_records = records(clean);
  const Records dirty_records = records(dirty);
  ASSERT_EQ(clean_records.size(), dirty_records.size());
  for (size_t i = 0; i < clean_records.size(); ++i) {
    const auto& [clean_edge, clean_acc] = clean_records[i];
    const auto& [dirty_edge, dirty_acc] = dirty_records[i];
    EXPECT_EQ(clean_edge.edge, dirty_edge.edge);
    EXPECT_EQ(clean_edge.weight, dirty_edge.weight);
    EXPECT_EQ(clean_edge.priority, dirty_edge.priority);
    EXPECT_EQ(clean_acc.weight, clean_edge.weight);
    EXPECT_EQ(clean_acc.weight, dirty_acc.weight);
    EXPECT_EQ(clean_acc.cov_tri, dirty_acc.cov_tri);
    EXPECT_EQ(clean_acc.cov_wedge, dirty_acc.cov_wedge);
  }
}

TEST(InStreamTest, RepeatsOfHubEdgesWithHubAsSmallerId) {
  ExpectRepeatsChangeOnlyTheArrivalCount(/*hub=*/0, /*first_leaf=*/1);
}

TEST(InStreamTest, RepeatsOfHubEdgesWithHubAsLargerId) {
  ExpectRepeatsChangeOnlyTheArrivalCount(/*hub=*/1000, /*first_leaf=*/0);
}

TEST(InStreamTest, GoldenAlgorithm3Bits) {
  // Pins Algorithm 3's floating-point results bit for bit. Comparisons of
  // one run against another (K=1 vs serial, resumed vs uninterrupted)
  // cannot see a change both sides share, such as reordering the sums in
  // Process; these literals can. They were recorded before the per-arrival
  // loop was rewritten and must only change with a deliberate change to
  // the estimator's arithmetic. Most sampled edges here have inclusion
  // probability 1, so a reordered sum often rounds differently only a few
  // times in the run and the final values can converge again; the digest
  // of the accumulators after every arrival catches those. The
  // post-stream values pin the sample path.
  EdgeList graph = MakeCorpusGraph("soc-orkut-sim", 0.05).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 2017);
  ASSERT_EQ(stream.size(), 40000u);
  GpsSamplerOptions options;
  options.capacity = 2000;
  options.seed = 41;
  InStreamEstimator est(options);
  uint64_t trajectory = kFnv1a64Offset;
  for (const Edge& e : stream) {
    est.Process(e);
    const InStreamEstimator::Accumulators acc = est.SaveAccumulators();
    trajectory = Fnv1a64Words(&acc, sizeof(acc), trajectory);
  }
  ASSERT_EQ(est.reservoir().threshold(), 0x1.cbc156683dc21p+4);
  EXPECT_EQ(trajectory, 0x43d681b34bc9cba2ull);

  const InStreamEstimator::Accumulators acc = est.SaveAccumulators();
  EXPECT_EQ(acc.n_tri, 0x1.eb8e174d18743p+15);
  EXPECT_EQ(acc.v_tri, 0x1.79f830d00924fp+25);
  EXPECT_EQ(acc.n_wed, 0x1.b7956087b22b9p+21);
  EXPECT_EQ(acc.v_wed, 0x1.2337cfd4b7f98p+33);
  EXPECT_EQ(acc.cov_tw, 0x1.7e41d6f717636p+28);

  const GraphEstimates post = EstimatePostStream(est.reservoir());
  EXPECT_EQ(post.triangles.value, 0x1.1ca9b9634a729p+16);
  EXPECT_EQ(post.wedges.value, 0x1.a4bd3272b840ap+21);
}

TEST(InStreamTest, TriangleCountUnbiasedUnderEviction) {
  EdgeList graph = GenerateBarabasiAlbert(150, 5, 0.5, 111).value();
  const ExactCounts actual = CountExact(CsrGraph::FromEdgeList(graph));
  ASSERT_GT(actual.triangles, 50.0);
  const std::vector<Edge> stream = MakePermutedStream(graph, 112);

  OnlineStats tri, wed;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    const GraphEstimates est =
        RunInStream(stream, stream.size() / 3, 6000 + trial);
    tri.Add(est.triangles.value);
    wed.Add(est.wedges.value);
  }
  EXPECT_NEAR(tri.Mean(), actual.triangles, 4.0 * tri.StdError());
  EXPECT_NEAR(wed.Mean(), actual.wedges, 4.0 * wed.StdError());
}

TEST(InStreamTest, VarianceEstimatorCalibrated) {
  EdgeList graph = GenerateWattsStrogatz(200, 8, 0.1, 121).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 122);

  OnlineStats est_values, var_estimates;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    const GraphEstimates est =
        RunInStream(stream, stream.size() / 3, 7000 + trial);
    est_values.Add(est.triangles.value);
    var_estimates.Add(est.triangles.variance);
  }
  const double empirical = est_values.SampleVariance();
  ASSERT_GT(empirical, 0.0);
  EXPECT_GT(var_estimates.Mean() / empirical, 0.5);
  EXPECT_LT(var_estimates.Mean() / empirical, 2.0);
}

TEST(InStreamTest, SamplePathIdenticalToPostStreamSampler) {
  // Protocol requirement (paper Section 6): with equal seeds, the in-stream
  // estimator and a pure GPS sampler must select the same edges and the
  // same threshold.
  EdgeList graph = GenerateChungLu(300, 1500, 2.2, 131).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 132);

  GpsSamplerOptions options;
  options.capacity = 200;
  options.seed = 777;
  GpsSampler sampler(options);
  InStreamEstimator in_stream(options);
  for (const Edge& e : stream) {
    sampler.Process(e);
    in_stream.Process(e);
  }
  EXPECT_EQ(sampler.reservoir().size(), in_stream.reservoir().size());
  EXPECT_DOUBLE_EQ(sampler.reservoir().threshold(),
                   in_stream.reservoir().threshold());
  size_t matched = 0;
  sampler.reservoir().ForEachEdge(
      [&](SlotId, const GpsReservoir::EdgeRecord& rec) {
        if (in_stream.reservoir().graph().HasEdge(rec.edge)) ++matched;
      });
  EXPECT_EQ(matched, sampler.reservoir().size());
}

TEST(InStreamTest, LowerVarianceThanPostStream) {
  // The paper's key claim for in-stream estimation: on the same samples it
  // yields lower-variance triangle estimates than post-stream estimation.
  EdgeList graph = GenerateBarabasiAlbert(250, 6, 0.5, 141).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 142);

  OnlineStats post_vals, in_vals;
  const int trials = 200;
  for (int trial = 0; trial < trials; ++trial) {
    GpsSamplerOptions options;
    options.capacity = stream.size() / 4;
    options.seed = 8000 + trial;
    InStreamEstimator in_stream(options);
    for (const Edge& e : stream) in_stream.Process(e);
    in_vals.Add(in_stream.Estimates().triangles.value);
    post_vals.Add(
        EstimatePostStream(in_stream.reservoir()).triangles.value);
  }
  EXPECT_LT(in_vals.SampleVariance(), post_vals.SampleVariance());
}

TEST(InStreamTest, ConfidenceIntervalsCoverTruth) {
  EdgeList graph = GenerateBarabasiAlbert(200, 5, 0.4, 151).value();
  const ExactCounts actual = CountExact(CsrGraph::FromEdgeList(graph));
  const std::vector<Edge> stream = MakePermutedStream(graph, 152);

  int covered = 0;
  const int trials = 200;
  for (int trial = 0; trial < trials; ++trial) {
    const GraphEstimates est =
        RunInStream(stream, stream.size() / 3, 9000 + trial);
    if (actual.triangles >= est.triangles.Lower() &&
        actual.triangles <= est.triangles.Upper()) {
      ++covered;
    }
  }
  EXPECT_GE(covered, static_cast<int>(0.85 * trials));
}

TEST(InStreamTest, ClusteringCoefficientConverges) {
  EdgeList graph = GenerateWattsStrogatz(400, 10, 0.2, 161).value();
  const ExactCounts actual = CountExact(CsrGraph::FromEdgeList(graph));
  const std::vector<Edge> stream = MakePermutedStream(graph, 162);

  OnlineStats cc;
  for (int trial = 0; trial < 150; ++trial) {
    const GraphEstimates est =
        RunInStream(stream, stream.size() / 3, 10000 + trial);
    cc.Add(est.ClusteringCoefficient().value);
  }
  // CC is a ratio estimator (biased but consistent); allow a modest band.
  EXPECT_NEAR(cc.Mean(), actual.ClusteringCoefficient(),
              0.1 * actual.ClusteringCoefficient() + 4.0 * cc.StdError());
}

TEST(InStreamTest, MonotoneNondecreasingCounts) {
  // Snapshots are frozen: the in-stream triangle/wedge counters never
  // decrease as the stream advances.
  EdgeList graph = GenerateBarabasiAlbert(120, 4, 0.5, 171).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 172);
  GpsSamplerOptions options;
  options.capacity = 80;
  options.seed = 3;
  InStreamEstimator est(options);
  double last_tri = 0.0, last_wed = 0.0;
  for (const Edge& e : stream) {
    est.Process(e);
    const GraphEstimates now = est.Estimates();
    EXPECT_GE(now.triangles.value, last_tri);
    EXPECT_GE(now.wedges.value, last_wed);
    last_tri = now.triangles.value;
    last_wed = now.wedges.value;
  }
}

// Parameterized capacity sweep: unbiasedness at several sampling fractions.
class InStreamCapacityTest : public ::testing::TestWithParam<int> {};

TEST_P(InStreamCapacityTest, UnbiasedAtFractionPercent) {
  const int percent = GetParam();
  EdgeList graph = GenerateBarabasiAlbert(150, 5, 0.4, 181).value();
  const ExactCounts actual = CountExact(CsrGraph::FromEdgeList(graph));
  const std::vector<Edge> stream = MakePermutedStream(graph, 182);
  const size_t capacity =
      std::max<size_t>(10, stream.size() * percent / 100);

  OnlineStats tri;
  const int trials = 250;
  for (int trial = 0; trial < trials; ++trial) {
    tri.Add(RunInStream(stream, capacity, 11000 + 37 * trial)
                .triangles.value);
  }
  EXPECT_NEAR(tri.Mean(), actual.triangles,
              std::max(4.0 * tri.StdError(), 0.02 * actual.triangles))
      << percent << "% capacity";
}

INSTANTIATE_TEST_SUITE_P(Fractions, InStreamCapacityTest,
                         ::testing::Values(10, 25, 50, 80));

}  // namespace
}  // namespace gps
