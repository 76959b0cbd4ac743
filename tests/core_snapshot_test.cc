// Tests for the generic in-stream snapshot framework (paper Section 5.1):
// the built-in enumerators driven through a MotifSuite beside a
// GpsSampler, agreement with the specialized Algorithm-3 estimator for a
// test-local triangle enumerator, and statistical unbiasedness for motifs
// (4-cliques, 3-paths) the specialized estimator does not cover.

#include "core/snapshot.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/gps.h"
#include "core/in_stream.h"
#include "core/motifs.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "graph/exact.h"
#include "graph/stream.h"
#include "util/welford.h"

namespace gps {
namespace {

/// One registered motif over `stream`: a one-motif suite observes each
/// arrival before the sampler's sampling step, as a shard worker does.
MotifAccumulator RunMotif(const std::string& name,
                          const GpsSamplerOptions& options,
                          const std::vector<Edge>& stream) {
  const std::vector<std::string> names = {name};
  MotifSuite suite(names);
  GpsSampler sampler(options);
  for (const Edge& e : stream) {
    suite.Observe(e, sampler.reservoir());
    sampler.Process(e);
  }
  return suite.accumulator(0);
}

/// Triangles completed by the arriving edge: the two sampled edges to
/// each common neighbor. Test-local: Algorithm 3 is the library's
/// triangle estimator.
void EnumerateTriangles(const Edge& arriving, const SampledGraph& graph,
                        const Emitter& emit) {
  graph.ForEachCommonNeighbor(
      arriving.u, arriving.v, [&](NodeId w, SlotId, SlotId) {
        const Edge members[2] = {MakeEdge(arriving.u, w),
                                 MakeEdge(arriving.v, w)};
        emit(members);
      });
}

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

TEST(MotifSnapshotTest, MatchesSpecializedTriangleEstimator) {
  // The generic recipe with a triangle enumerator, driven beside
  // Algorithm 3 on its own reservoir over an evicting stream: the count
  // must equal the specialized estimator's exactly.
  EdgeList graph = GenerateBarabasiAlbert(150, 5, 0.5, 521).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 522);

  GpsSamplerOptions options;
  options.capacity = stream.size() / 4;
  options.seed = 523;
  InStreamEstimator specialized(options);
  MotifAccumulator generic;
  for (const Edge& raw : stream) {
    const Edge e = raw.Canonical();
    if (!e.IsSelfLoop() && !specialized.reservoir().graph().HasEdge(e)) {
      AccumulateMotifSnapshots(e, specialized.reservoir(),
                               &EnumerateTriangles, &generic);
    }
    specialized.Process(e);
  }
  ASSERT_GT(specialized.reservoir().threshold(), 0.0);  // evictions
  EXPECT_DOUBLE_EQ(generic.count, specialized.Estimates().triangles.value);
  // The generic variance estimate omits nonnegative covariances, so it is
  // at most the specialized one (which includes them).
  EXPECT_LE(generic.variance,
            specialized.Estimates().triangles.variance + 1e-9);
}

TEST(MotifSnapshotTest, FourCliqueExactWithoutEviction) {
  EdgeList graph = GenerateBarabasiAlbert(60, 8, 0.7, 531).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 532);
  const double actual =
      CountFourCliquesExact(CsrGraph::FromEdgeList(graph));
  ASSERT_GT(actual, 0.0);

  GpsSamplerOptions options;
  options.capacity = stream.size() + 4;
  options.seed = 533;
  // Nothing is evicted: every snapshot is 1, once per instance.
  const MotifAccumulator acc = RunMotif("4clique", options, stream);
  EXPECT_DOUBLE_EQ(acc.count, actual);
  EXPECT_DOUBLE_EQ(acc.variance, 0.0);
  EXPECT_EQ(acc.snapshots, static_cast<uint64_t>(actual));
}

TEST(MotifSnapshotTest, FourCliqueUnbiasedUnderEviction) {
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
    est.Add(RunMotif("4clique", options, stream).count);
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

TEST(MotifSnapshotTest, ThreePathExactWithoutEviction) {
  EdgeList graph = GenerateErdosRenyi(50, 160, 551).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 552);
  const double actual =
      CountThreePathsExact(CsrGraph::FromEdgeList(graph));
  ASSERT_GT(actual, 0.0);

  GpsSamplerOptions options;
  options.capacity = stream.size() + 4;
  options.seed = 553;
  EXPECT_DOUBLE_EQ(RunMotif("3path", options, stream).count, actual);
}

TEST(MotifSnapshotTest, ThreePathKnownSmallGraphs) {
  // A path of 4 nodes contains exactly one 3-path; a triangle none; a
  // 4-cycle four.
  auto count_paths = [](const std::vector<Edge>& stream) {
    GpsSamplerOptions options;
    options.capacity = 32;
    options.seed = 1;
    return RunMotif("3path", options, stream).count;
  };
  EXPECT_DOUBLE_EQ(
      count_paths({MakeEdge(0, 1), MakeEdge(1, 2), MakeEdge(2, 3)}), 1.0);
  EXPECT_DOUBLE_EQ(
      count_paths({MakeEdge(0, 1), MakeEdge(1, 2), MakeEdge(0, 2)}), 0.0);
  EXPECT_DOUBLE_EQ(count_paths({MakeEdge(0, 1), MakeEdge(1, 2),
                                MakeEdge(2, 3), MakeEdge(0, 3)}),
                   4.0);
}

TEST(MotifSnapshotTest, ThreePathUnbiasedUnderEviction) {
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
    est.Add(RunMotif("3path", options, stream).count);
  }
  EXPECT_NEAR(est.Mean(), actual,
              std::max(4.0 * est.StdError(), 0.03 * actual));
}

TEST(MotifSnapshotTest, CustomEnumeratorAndMissingEdgeIgnored) {
  // An enumerator that reports an unsampled edge: the emitter must ignore
  // that instance (contributes 0) rather than crash or miscount.
  GpsSamplerOptions options;
  options.capacity = 10;
  options.seed = 1;
  GpsSampler sampler(options);
  MotifAccumulator acc;
  const EnumerateFn bogus_instance = [](const Edge&, const SampledGraph&,
                                        const Emitter& emit) {
    const Edge bogus[1] = {MakeEdge(1000, 1001)};
    emit(bogus);
  };
  for (const Edge& e : {MakeEdge(0, 1), MakeEdge(1, 2)}) {
    AccumulateMotifSnapshots(e, sampler.reservoir(), bogus_instance, &acc);
    sampler.Process(e);
  }
  EXPECT_DOUBLE_EQ(acc.count, 0.0);
  EXPECT_EQ(acc.snapshots, 0u);
}

TEST(MotifSnapshotTest, SuiteSkipsLoopsAndDuplicates) {
  GpsSamplerOptions options;
  options.capacity = 10;
  options.seed = 1;
  const std::vector<Edge> stream = {MakeEdge(0, 1), MakeEdge(0, 1),
                                    Edge{1, 1},     MakeEdge(1, 2),
                                    Edge{2, 1},     MakeEdge(2, 3)};
  EXPECT_DOUBLE_EQ(RunMotif("3path", options, stream).count, 1.0);
}

TEST(MotifSnapshotTest, RepeatsAndLoopsCountAsArrivals) {
  // `dirty` also sees, after every fifth arrival that was sampled, that
  // edge again reversed plus a self loop at one of its endpoints. Neither
  // completes a motif nor draws a priority, so the estimates must equal
  // the repeat-free run's; both still count as arrivals.
  EdgeList graph = GenerateBarabasiAlbert(300, 5, 0.6, 521).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 522);
  GpsSamplerOptions options;
  options.capacity = stream.size() / 3;  // evictions happen
  options.seed = 523;
  std::vector<Edge> dirty_stream;
  GpsSampler probe(options);  // finds the sampled arrivals
  uint64_t extra = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const Edge& e = stream[i];
    probe.Process(e);
    dirty_stream.push_back(e);
    if (i % 5 != 4 || !probe.reservoir().graph().HasEdge(e.Canonical())) {
      continue;
    }
    for (const Edge& junk : {Edge{e.v, e.u}, Edge{e.u, e.u}}) {
      probe.Process(junk);
      dirty_stream.push_back(junk);
      ++extra;
    }
  }
  ASSERT_GT(extra, 0u);
  ASSERT_GT(probe.reservoir().threshold(), 0.0);
  EXPECT_EQ(probe.edges_processed(), stream.size() + extra);

  for (const char* name : {"3path", "4clique"}) {
    SCOPED_TRACE(name);
    const MotifAccumulator clean = RunMotif(name, options, stream);
    const MotifAccumulator dirty = RunMotif(name, options, dirty_stream);
    EXPECT_GT(clean.count, 0.0);
    EXPECT_EQ(dirty.count, clean.count);
    EXPECT_EQ(dirty.variance, clean.variance);
    EXPECT_EQ(dirty.snapshots, clean.snapshots);
  }
}

}  // namespace
}  // namespace gps
