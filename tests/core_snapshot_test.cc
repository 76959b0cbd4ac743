// Tests for the generic in-stream snapshot framework (paper Section 5.1):
// built-in enumerators, agreement with the specialized estimator, and
// statistical unbiasedness for a motif (4-cliques) the specialized
// estimators do not cover.

#include "core/snapshot.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/in_stream.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "graph/exact.h"
#include "graph/stream.h"
#include "util/welford.h"

namespace gps {
namespace {

double CountFourCliquesExact(const CsrGraph& g) {
  double count = 0;
  for (NodeId a = 0; a < g.NumNodes(); ++a) {
    for (NodeId b : g.Neighbors(a)) {
      if (b <= a) continue;
      for (NodeId c : g.Neighbors(a)) {
        if (c <= b || !g.HasEdge(b, c)) continue;
        for (NodeId d : g.Neighbors(a)) {
          if (d <= c || !g.HasEdge(b, d) || !g.HasEdge(c, d)) continue;
          count += 1;
        }
      }
    }
  }
  return count;
}

TEST(InStreamMotifCounterTest, TriangleEnumeratorExactWithoutEviction) {
  EdgeList graph = GenerateErdosRenyi(60, 250, 501).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 502);
  const ExactCounts actual = CountExact(CsrGraph::FromEdgeList(graph));

  GpsSamplerOptions options;
  options.capacity = stream.size() + 4;
  options.seed = 503;
  InStreamMotifCounter counter(options, TriangleEnumerator());
  for (const Edge& e : stream) counter.Process(e);
  EXPECT_DOUBLE_EQ(counter.Count(), actual.triangles);
  EXPECT_DOUBLE_EQ(counter.VarianceLowerEstimate(), 0.0);
  EXPECT_EQ(counter.SnapshotsTaken(),
            static_cast<uint64_t>(actual.triangles));
}

TEST(InStreamMotifCounterTest, WedgeEnumeratorExactWithoutEviction) {
  EdgeList graph = GenerateWattsStrogatz(80, 6, 0.2, 511).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 512);
  const ExactCounts actual = CountExact(CsrGraph::FromEdgeList(graph));

  GpsSamplerOptions options;
  options.capacity = stream.size() + 4;
  options.seed = 513;
  InStreamMotifCounter counter(options, WedgeEnumerator());
  for (const Edge& e : stream) counter.Process(e);
  EXPECT_DOUBLE_EQ(counter.Count(), actual.wedges);
}

TEST(InStreamMotifCounterTest, MatchesSpecializedTriangleEstimator) {
  // Identical options/seed: the generic counter's triangle count must
  // exactly equal the specialized Algorithm-3 estimator's count.
  EdgeList graph = GenerateBarabasiAlbert(150, 5, 0.5, 521).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 522);

  GpsSamplerOptions options;
  options.capacity = stream.size() / 4;
  options.seed = 523;
  InStreamMotifCounter generic(options, TriangleEnumerator());
  InStreamEstimator specialized(options);
  for (const Edge& e : stream) {
    generic.Process(e);
    specialized.Process(e);
  }
  EXPECT_DOUBLE_EQ(generic.Count(),
                   specialized.Estimates().triangles.value);
  // The generic variance estimate omits nonnegative covariances, so it is
  // at most the specialized one (which includes them).
  EXPECT_LE(generic.VarianceLowerEstimate(),
            specialized.Estimates().triangles.variance + 1e-9);
}

TEST(InStreamMotifCounterTest, FourCliqueExactWithoutEviction) {
  EdgeList graph = GenerateBarabasiAlbert(60, 8, 0.7, 531).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 532);
  const double actual =
      CountFourCliquesExact(CsrGraph::FromEdgeList(graph));
  ASSERT_GT(actual, 0.0);

  GpsSamplerOptions options;
  options.capacity = stream.size() + 4;
  options.seed = 533;
  InStreamMotifCounter counter(options, FourCliqueEnumerator());
  for (const Edge& e : stream) counter.Process(e);
  EXPECT_DOUBLE_EQ(counter.Count(), actual);
}

TEST(InStreamMotifCounterTest, FourCliqueUnbiasedUnderEviction) {
  EdgeList graph = GenerateBarabasiAlbert(80, 8, 0.6, 541).value();
  const double actual =
      CountFourCliquesExact(CsrGraph::FromEdgeList(graph));
  ASSERT_GT(actual, 5.0);
  const std::vector<Edge> stream = MakePermutedStream(graph, 542);

  OnlineStats est;
  const int trials = 400;
  for (int trial = 0; trial < trials; ++trial) {
    GpsSamplerOptions options;
    options.capacity = stream.size() / 2;
    options.seed = 14000 + trial;
    InStreamMotifCounter counter(options, FourCliqueEnumerator());
    for (const Edge& e : stream) counter.Process(e);
    est.Add(counter.Count());
  }
  EXPECT_NEAR(est.Mean(), actual,
              std::max(4.0 * est.StdError(), 0.05 * actual));
}

// Exact count of simple 3-edge paths: Σ_{(u,v)∈E} (d(u)-1)(d(v)-1) - 3T.
double CountThreePathsExact(const CsrGraph& g) {
  double sum = 0;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (v <= u) continue;
      sum += (g.Degree(u) - 1.0) * (g.Degree(v) - 1.0);
    }
  }
  return sum - 3.0 * CountExact(g).triangles;
}

TEST(InStreamMotifCounterTest, ThreePathExactWithoutEviction) {
  EdgeList graph = GenerateErdosRenyi(50, 160, 551).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 552);
  const double actual =
      CountThreePathsExact(CsrGraph::FromEdgeList(graph));
  ASSERT_GT(actual, 0.0);

  GpsSamplerOptions options;
  options.capacity = stream.size() + 4;
  options.seed = 553;
  InStreamMotifCounter counter(options, ThreePathEnumerator());
  for (const Edge& e : stream) counter.Process(e);
  EXPECT_DOUBLE_EQ(counter.Count(), actual);
}

TEST(InStreamMotifCounterTest, ThreePathKnownSmallGraphs) {
  // A path of 4 nodes contains exactly one 3-path; a triangle none; a
  // 4-cycle four.
  auto count_paths = [](const std::vector<Edge>& stream) {
    GpsSamplerOptions options;
    options.capacity = 32;
    options.seed = 1;
    InStreamMotifCounter counter(options, ThreePathEnumerator());
    for (const Edge& e : stream) counter.Process(e);
    return counter.Count();
  };
  EXPECT_DOUBLE_EQ(
      count_paths({MakeEdge(0, 1), MakeEdge(1, 2), MakeEdge(2, 3)}), 1.0);
  EXPECT_DOUBLE_EQ(
      count_paths({MakeEdge(0, 1), MakeEdge(1, 2), MakeEdge(0, 2)}), 0.0);
  EXPECT_DOUBLE_EQ(count_paths({MakeEdge(0, 1), MakeEdge(1, 2),
                                MakeEdge(2, 3), MakeEdge(0, 3)}),
                   4.0);
}

TEST(InStreamMotifCounterTest, ThreePathUnbiasedUnderEviction) {
  EdgeList graph = GenerateBarabasiAlbert(80, 4, 0.3, 561).value();
  const double actual =
      CountThreePathsExact(CsrGraph::FromEdgeList(graph));
  ASSERT_GT(actual, 100.0);
  const std::vector<Edge> stream = MakePermutedStream(graph, 562);

  OnlineStats est;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    GpsSamplerOptions options;
    options.capacity = stream.size() / 2;
    options.seed = 25000 + trial;
    InStreamMotifCounter counter(options, ThreePathEnumerator());
    for (const Edge& e : stream) counter.Process(e);
    est.Add(counter.Count());
  }
  EXPECT_NEAR(est.Mean(), actual,
              std::max(4.0 * est.StdError(), 0.03 * actual));
}

TEST(InStreamMotifCounterTest, CustomEnumeratorAndMissingEdgeIgnored) {
  // An enumerator that reports an unsampled edge: the emitter must ignore
  // that instance (contributes 0) rather than crash or miscount.
  GpsSamplerOptions options;
  options.capacity = 10;
  options.seed = 1;
  InStreamMotifCounter counter(
      options, [](const Edge&, const SampledGraph&,
                  const InStreamMotifCounter::Emitter& emit) {
        const Edge bogus[1] = {MakeEdge(1000, 1001)};
        emit(bogus);
      });
  counter.Process(MakeEdge(0, 1));
  counter.Process(MakeEdge(1, 2));
  EXPECT_DOUBLE_EQ(counter.Count(), 0.0);
  EXPECT_EQ(counter.SnapshotsTaken(), 0u);
}

TEST(InStreamMotifCounterTest, SkipsLoopsAndDuplicates) {
  GpsSamplerOptions options;
  options.capacity = 10;
  options.seed = 1;
  InStreamMotifCounter counter(options, WedgeEnumerator());
  counter.Process(MakeEdge(0, 1));
  counter.Process(MakeEdge(0, 1));
  counter.Process(Edge{1, 1});
  counter.Process(MakeEdge(1, 2));
  EXPECT_DOUBLE_EQ(counter.Count(), 1.0);
  EXPECT_EQ(counter.reservoir().size(), 2u);
}

TEST(InStreamMotifCounterTest, RepeatsAndLoopsCountAsArrivals) {
  // `dirty` also sees, after every fifth arrival that was sampled, that
  // edge again reversed plus a self loop at one of its endpoints. Neither
  // completes a motif nor draws a priority, so the estimates must equal
  // the repeat-free run's; both still count as arrivals, as GpsSampler
  // counts them.
  EdgeList graph = GenerateBarabasiAlbert(300, 5, 0.6, 521).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 522);
  GpsSamplerOptions options;
  options.capacity = stream.size() / 3;  // evictions happen
  options.seed = 523;
  InStreamMotifCounter clean(options, TriangleEnumerator());
  InStreamMotifCounter dirty(options, TriangleEnumerator());
  GpsSampler sampler(options);
  uint64_t extra = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const Edge& e = stream[i];
    clean.Process(e);
    dirty.Process(e);
    sampler.Process(e);
    if (i % 5 != 4 || !dirty.reservoir().graph().HasEdge(e.Canonical())) {
      continue;
    }
    for (const Edge& junk : {Edge{e.v, e.u}, Edge{e.u, e.u}}) {
      dirty.Process(junk);
      sampler.Process(junk);
      ++extra;
    }
  }
  ASSERT_GT(extra, 0u);
  ASSERT_GT(clean.reservoir().threshold(), 0.0);
  EXPECT_EQ(dirty.reservoir().edges_processed(),
            sampler.reservoir().edges_processed());
  EXPECT_EQ(dirty.reservoir().edges_processed(),
            clean.reservoir().edges_processed() + extra);
  EXPECT_GT(clean.Count(), 0.0);
  EXPECT_EQ(dirty.Count(), clean.Count());
  EXPECT_EQ(dirty.VarianceLowerEstimate(), clean.VarianceLowerEstimate());
  EXPECT_EQ(dirty.SnapshotsTaken(), clean.SnapshotsTaken());
}

}  // namespace
}  // namespace gps
