// Tests for the baseline algorithms: TRIEST (base/impr), MASCOT
// (improved/basic) and NSAMP. Accuracy claims on
// generator graphs are gated through the shared statistical harness
// (tests/stat_harness.h, trial count scaled by GPS_STAT_TRIALS).

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/mascot.h"
#include "baselines/nsamp.h"
#include "baselines/triest.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "graph/exact.h"
#include "graph/stream.h"
#include "stat_harness.h"
#include "util/welford.h"

namespace gps {
namespace {

struct TestGraph {
  EdgeList graph;
  std::vector<Edge> stream;
  double triangles = 0;
};

TestGraph MakeTestGraph(uint64_t seed) {
  TestGraph out;
  out.graph = GenerateBarabasiAlbert(150, 5, 0.5, seed).value();
  out.stream = MakePermutedStream(out.graph, seed + 1);
  out.triangles = CountExact(CsrGraph::FromEdgeList(out.graph)).triangles;
  return out;
}

// ---------------------------------------------------------------- TRIEST

TEST(TriestTest, ExactWhenSampleHoldsEverything) {
  const TestGraph tg = MakeTestGraph(301);
  for (TriestVariant variant :
       {TriestVariant::kBase, TriestVariant::kImproved}) {
    Triest triest(tg.stream.size() + 10, 1, variant);
    for (const Edge& e : tg.stream) triest.Process(e);
    EXPECT_DOUBLE_EQ(triest.TriangleEstimate(), tg.triangles);
  }
}

TEST(TriestTest, SampleSizeBounded) {
  const TestGraph tg = MakeTestGraph(302);
  Triest triest(100, 2, TriestVariant::kBase);
  for (const Edge& e : tg.stream) {
    triest.Process(e);
    EXPECT_LE(triest.sample_size(), 100u);
  }
  EXPECT_EQ(triest.sample_size(), 100u);
}

TEST(TriestTest, BaseUnbiased) {
  const TestGraph tg = MakeTestGraph(303);
  OnlineStats est;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    Triest triest(tg.stream.size() / 3, 500 + trial, TriestVariant::kBase);
    for (const Edge& e : tg.stream) triest.Process(e);
    est.Add(triest.TriangleEstimate());
  }
  EXPECT_NEAR(est.Mean(), tg.triangles,
              std::max(4.0 * est.StdError(), 0.03 * tg.triangles));
}

TEST(TriestTest, ImprovedUnbiasedAndLowerVariance) {
  const TestGraph tg = MakeTestGraph(304);
  OnlineStats base, impr;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    Triest tb(tg.stream.size() / 3, 900 + trial, TriestVariant::kBase);
    Triest ti(tg.stream.size() / 3, 900 + trial, TriestVariant::kImproved);
    for (const Edge& e : tg.stream) {
      tb.Process(e);
      ti.Process(e);
    }
    base.Add(tb.TriangleEstimate());
    impr.Add(ti.TriangleEstimate());
  }
  EXPECT_NEAR(impr.Mean(), tg.triangles,
              std::max(4.0 * impr.StdError(), 0.03 * tg.triangles));
  EXPECT_LT(impr.SampleVariance(), base.SampleVariance());
}

TEST(TriestTest, IgnoresDuplicatesAndLoops) {
  Triest triest(10, 1, TriestVariant::kBase);
  triest.Process(MakeEdge(0, 1));
  triest.Process(MakeEdge(1, 0));
  triest.Process(Edge{2, 2});
  EXPECT_EQ(triest.edges_processed(), 1u);
  EXPECT_EQ(triest.sample_size(), 1u);
}

// ---------------------------------------------------------------- MASCOT

TEST(MascotTest, ExactAtProbabilityOne) {
  const TestGraph tg = MakeTestGraph(305);
  Mascot mascot(1.0, 1, MascotVariant::kImproved);
  for (const Edge& e : tg.stream) mascot.Process(e);
  EXPECT_DOUBLE_EQ(mascot.TriangleEstimate(), tg.triangles);
  EXPECT_EQ(mascot.sample_size(), tg.stream.size());
}

TEST(MascotTest, ImprovedUnbiased) {
  const TestGraph tg = MakeTestGraph(306);
  OnlineStats est;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    Mascot mascot(0.3, 1300 + trial, MascotVariant::kImproved);
    for (const Edge& e : tg.stream) mascot.Process(e);
    est.Add(mascot.TriangleEstimate());
  }
  EXPECT_NEAR(est.Mean(), tg.triangles,
              std::max(4.0 * est.StdError(), 0.03 * tg.triangles));
}

TEST(MascotTest, BasicUnbiasedWithHigherVariance) {
  const TestGraph tg = MakeTestGraph(307);
  OnlineStats impr, basic;
  const int trials = 400;
  for (int trial = 0; trial < trials; ++trial) {
    Mascot mi(0.3, 1700 + trial, MascotVariant::kImproved);
    Mascot mb(0.3, 1700 + trial, MascotVariant::kBasic);
    for (const Edge& e : tg.stream) {
      mi.Process(e);
      mb.Process(e);
    }
    impr.Add(mi.TriangleEstimate());
    basic.Add(mb.TriangleEstimate());
  }
  EXPECT_NEAR(basic.Mean(), tg.triangles,
              std::max(4.0 * basic.StdError(), 0.05 * tg.triangles));
  EXPECT_LT(impr.SampleVariance(), basic.SampleVariance());
}

TEST(MascotTest, SampleSizeNearExpectation) {
  const TestGraph tg = MakeTestGraph(308);
  const double p = 0.2;
  Mascot mascot(p, 9, MascotVariant::kImproved);
  for (const Edge& e : tg.stream) mascot.Process(e);
  const double expected = p * static_cast<double>(tg.stream.size());
  EXPECT_NEAR(static_cast<double>(mascot.sample_size()), expected,
              4.0 * std::sqrt(expected));
}

// ----------------------------------------------------------------- NSAMP

TEST(NsampTest, DetectsTheOnlyTriangle) {
  // Stream: a triangle arriving in order. With many estimators the mean
  // estimate must be close to 1.
  OnlineStats est;
  for (int trial = 0; trial < 200; ++trial) {
    NeighborhoodSampler nsamp(64, 2000 + trial);
    nsamp.Process(MakeEdge(0, 1));
    nsamp.Process(MakeEdge(1, 2));
    nsamp.Process(MakeEdge(0, 2));
    est.Add(nsamp.TriangleEstimate());
  }
  EXPECT_NEAR(est.Mean(), 1.0, 4.0 * est.StdError() + 0.05);
}

TEST(NsampTest, ZeroOnTriangleFreeStream) {
  NeighborhoodSampler nsamp(128, 5);
  // Star graph: wedges but no triangles.
  for (NodeId i = 1; i <= 50; ++i) nsamp.Process(MakeEdge(0, i));
  EXPECT_EQ(nsamp.TriangleEstimate(), 0.0);
}

TEST(NsampTest, UnbiasedOnRealStream) {
  const TestGraph tg = MakeTestGraph(309);
  OnlineStats est;
  const int trials = 120;
  for (int trial = 0; trial < trials; ++trial) {
    NeighborhoodSampler nsamp(512, 2600 + trial);
    for (const Edge& e : tg.stream) nsamp.Process(e);
    est.Add(nsamp.TriangleEstimate());
  }
  // NSAMP has high variance; accept a generous band around truth.
  EXPECT_NEAR(est.Mean(), tg.triangles,
              std::max(4.0 * est.StdError(), 0.10 * tg.triangles));
}

TEST(NsampTest, EstimatorCountPreserved) {
  NeighborhoodSampler nsamp(37, 4);
  EXPECT_EQ(nsamp.num_estimators(), 37u);
  nsamp.Process(MakeEdge(0, 1));
  EXPECT_EQ(nsamp.edges_processed(), 1u);
}

// -------------------------------------- harness accuracy (ER and BA)

/// ER and BA accuracy fixtures shared by the MASCOT/TRIEST harness
/// suites, mirroring the generator families the GPS estimators and the
/// NSAMP suite are gated on.
struct GeneratorGraph {
  std::vector<Edge> stream;
  ExactCounts exact;
};

GeneratorGraph MakeGeneratorGraph(const std::string& family) {
  EdgeList graph = family == "ba"
                       ? GenerateBarabasiAlbert(250, 6, 0.5, 351).value()
                       : GenerateErdosRenyi(220, 2600, 353).value();
  GeneratorGraph out;
  out.stream = MakePermutedStream(graph, 352);
  out.exact = CountExact(CsrGraph::FromEdgeList(graph));
  return out;
}

class BaselineAccuracyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BaselineAccuracyTest, TriestAccurateOnGeneratorGraphs) {
  const GeneratorGraph g = MakeGeneratorGraph(GetParam());
  ASSERT_GT(g.exact.triangles, 0.0);
  const size_t budget = g.stream.size() / 3;

  const int trials = stat::StatTrials(150);
  stat::PointTrials base(g.exact.triangles);
  stat::PointTrials impr(g.exact.triangles);
  for (int trial = 0; trial < trials; ++trial) {
    Triest tb(budget, 4100 + trial, TriestVariant::kBase);
    Triest ti(budget, 4100 + trial, TriestVariant::kImproved);
    for (const Edge& e : g.stream) {
      tb.Process(e);
      ti.Process(e);
    }
    base.Add(tb.TriangleEstimate());
    impr.Add(ti.TriangleEstimate());
  }
  const std::string what = std::string("TRIEST ") + GetParam();
  base.ExpectMeanNearExact(what + " base", 4.0, 0.03);
  impr.ExpectMeanNearExact(what + " impr", 4.0, 0.03);
  impr.ExpectMeanRelErrorBelow(0.35, what + " impr");
  // TRIEST-IMPR's never-decrement counter dominates the base variant.
  EXPECT_LT(impr.values().SampleVariance(), base.values().SampleVariance())
      << what;
}

TEST_P(BaselineAccuracyTest, MascotAccurateOnGeneratorGraphs) {
  const GeneratorGraph g = MakeGeneratorGraph(GetParam());
  ASSERT_GT(g.exact.triangles, 0.0);

  const int trials = stat::StatTrials(150);
  stat::PointTrials basic(g.exact.triangles);
  stat::PointTrials impr(g.exact.triangles);
  for (int trial = 0; trial < trials; ++trial) {
    Mascot mb(0.3, 4700 + trial, MascotVariant::kBasic);
    Mascot mi(0.3, 4700 + trial, MascotVariant::kImproved);
    for (const Edge& e : g.stream) {
      mb.Process(e);
      mi.Process(e);
    }
    basic.Add(mb.TriangleEstimate());
    impr.Add(mi.TriangleEstimate());
  }
  const std::string what = std::string("MASCOT ") + GetParam();
  basic.ExpectMeanNearExact(what + " basic", 4.0, 0.05);
  impr.ExpectMeanNearExact(what + " impr", 4.0, 0.03);
  impr.ExpectMeanRelErrorBelow(0.35, what + " impr");
  // Unconditional counting removes the closing edge's randomness.
  EXPECT_LT(impr.values().SampleVariance(),
            basic.values().SampleVariance())
      << what;
}

INSTANTIATE_TEST_SUITE_P(Generators, BaselineAccuracyTest,
                         ::testing::Values("er", "ba"));

}  // namespace
}  // namespace gps
