// Tests for the synthetic graph generators: parameter validation,
// determinism, structural properties per family, and common invariants
// (parameterized across generators).

#include "gen/generators.h"

#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "graph/csr_graph.h"
#include "graph/exact.h"

namespace gps {
namespace {

TEST(ErdosRenyiTest, ExactEdgeCount) {
  auto g = GenerateErdosRenyi(1000, 5000, 1);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 5000u);
  EXPECT_LE(g->NumNodes(), 1000u);
}

TEST(ErdosRenyiTest, RejectsBadParameters) {
  EXPECT_FALSE(GenerateErdosRenyi(1, 10, 1).ok());
  EXPECT_FALSE(GenerateErdosRenyi(10, 100, 1).ok());  // > C(10,2)/2 density
}

TEST(ErdosRenyiTest, LowClustering) {
  auto g = GenerateErdosRenyi(2000, 10000, 2);
  ASSERT_TRUE(g.ok());
  const ExactCounts c = CountExact(CsrGraph::FromEdgeList(*g));
  // ER expected clustering = p ~ 2m/n^2 = 0.005; allow generous slack.
  EXPECT_LT(c.ClusteringCoefficient(), 0.03);
}

TEST(BarabasiAlbertTest, EdgeCountApproximation) {
  auto g = GenerateBarabasiAlbert(1000, 5, 0.0, 3);
  ASSERT_TRUE(g.ok());
  // Seed clique C(6,2)=15 plus ~5 per remaining node (duplicate retries may
  // drop a few).
  const size_t expected = 15 + (1000 - 6) * 5;
  EXPECT_NEAR(static_cast<double>(g->NumEdges()),
              static_cast<double>(expected), expected * 0.02);
}

TEST(BarabasiAlbertTest, RejectsBadParameters) {
  EXPECT_FALSE(GenerateBarabasiAlbert(5, 0, 0.0, 1).ok());
  EXPECT_FALSE(GenerateBarabasiAlbert(5, 5, 0.0, 1).ok());
  EXPECT_FALSE(GenerateBarabasiAlbert(100, 3, 1.5, 1).ok());
}

TEST(BarabasiAlbertTest, HeavyTailPresent) {
  auto g = GenerateBarabasiAlbert(5000, 4, 0.0, 4);
  ASSERT_TRUE(g.ok());
  CsrGraph csr = CsrGraph::FromEdgeList(*g);
  // Preferential attachment: max degree far exceeds the mean (~8).
  EXPECT_GT(csr.MaxDegree(), 60u);
}

TEST(BarabasiAlbertTest, TriadFormationRaisesClustering) {
  auto plain = GenerateBarabasiAlbert(3000, 4, 0.0, 5);
  auto triad = GenerateBarabasiAlbert(3000, 4, 0.8, 5);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(triad.ok());
  const double cc_plain =
      CountExact(CsrGraph::FromEdgeList(*plain)).ClusteringCoefficient();
  const double cc_triad =
      CountExact(CsrGraph::FromEdgeList(*triad)).ClusteringCoefficient();
  EXPECT_GT(cc_triad, 2.0 * cc_plain);
}

TEST(WattsStrogatzTest, RingLatticeAtBetaZero) {
  auto g = GenerateWattsStrogatz(100, 4, 0.0, 6);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 200u);  // n * k/2
  CsrGraph csr = CsrGraph::FromEdgeList(*g);
  for (NodeId v = 0; v < 100; ++v) EXPECT_EQ(csr.Degree(v), 4u);
  // Ring lattice with k=4: each node's (i,i+1,i+2) closes a triangle;
  // n triangles total, clustering 0.5.
  const ExactCounts c = CountExact(csr);
  EXPECT_EQ(c.triangles, 100.0);
  EXPECT_DOUBLE_EQ(c.ClusteringCoefficient(), 0.5);
}

TEST(WattsStrogatzTest, RewiringPreservesEdgeCountApproximately) {
  auto g = GenerateWattsStrogatz(1000, 6, 0.3, 7);
  ASSERT_TRUE(g.ok());
  // Rewiring keeps the edge unless no non-duplicate target is found.
  EXPECT_NEAR(static_cast<double>(g->NumEdges()), 3000.0, 30.0);
}

TEST(WattsStrogatzTest, RejectsBadParameters) {
  EXPECT_FALSE(GenerateWattsStrogatz(100, 3, 0.1, 1).ok());  // odd k
  EXPECT_FALSE(GenerateWattsStrogatz(100, 0, 0.1, 1).ok());
  EXPECT_FALSE(GenerateWattsStrogatz(5, 6, 0.1, 1).ok());   // n <= k+1
  EXPECT_FALSE(GenerateWattsStrogatz(100, 4, 1.5, 1).ok());
}

TEST(ChungLuTest, EdgeCountAndTail) {
  auto g = GenerateChungLu(5000, 20000, 2.1, 8);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 20000u);
  CsrGraph csr = CsrGraph::FromEdgeList(*g);
  // gamma=2.1 is very heavy-tailed: hub degree >> mean degree 8.
  EXPECT_GT(csr.MaxDegree(), 100u);
}

TEST(ChungLuTest, HigherGammaThinnerTail) {
  auto heavy = GenerateChungLu(5000, 15000, 2.0, 9);
  auto light = GenerateChungLu(5000, 15000, 3.5, 9);
  ASSERT_TRUE(heavy.ok());
  ASSERT_TRUE(light.ok());
  EXPECT_GT(CsrGraph::FromEdgeList(*heavy).MaxDegree(),
            CsrGraph::FromEdgeList(*light).MaxDegree());
}

TEST(ChungLuTest, RejectsBadParameters) {
  EXPECT_FALSE(GenerateChungLu(1, 10, 2.0, 1).ok());
  EXPECT_FALSE(GenerateChungLu(100, 10, 1.0, 1).ok());
  EXPECT_FALSE(GenerateChungLu(10, 100000, 2.0, 1).ok());
}

TEST(GridTest, LatticeEdgeCount) {
  auto g = GenerateGrid(10, 20, 0.0, 11);
  ASSERT_TRUE(g.ok());
  // rows*(cols-1) horizontal + (rows-1)*cols vertical.
  EXPECT_EQ(g->NumEdges(), 10u * 19 + 9u * 20);
  // Pure lattice is triangle-free and bipartite.
  EXPECT_EQ(CountExact(CsrGraph::FromEdgeList(*g)).triangles, 0.0);
}

TEST(GridTest, DiagonalsCreateTriangles) {
  auto g = GenerateGrid(30, 30, 0.2, 12);
  ASSERT_TRUE(g.ok());
  const ExactCounts c = CountExact(CsrGraph::FromEdgeList(*g));
  // ~29*29*0.2 diagonals, two triangles each.
  EXPECT_GT(c.triangles, 100.0);
  // Road regime: sparse triangles relative to wedges.
  EXPECT_LT(c.ClusteringCoefficient(), 0.25);
}

TEST(GridTest, RejectsBadParameters) {
  EXPECT_FALSE(GenerateGrid(1, 10, 0.0, 1).ok());
  EXPECT_FALSE(GenerateGrid(10, 10, -0.1, 1).ok());
}

// Common invariants across every generator, parameterized.
using NamedGenerator =
    std::pair<const char*, std::function<Result<EdgeList>(uint64_t seed)>>;

class GeneratorInvariantsTest
    : public ::testing::TestWithParam<NamedGenerator> {};

TEST_P(GeneratorInvariantsTest, ProducesSimpleGraph) {
  auto g = GetParam().second(123);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_GT(g->NumEdges(), 0u);
  // Already simplified: canonical, no loops, no duplicates.
  EdgeList copy = *g;
  EXPECT_EQ(copy.Simplify(), 0u);
  for (const Edge& e : g->Edges()) {
    EXPECT_LT(e.u, e.v);
    EXPECT_LT(e.v, g->NumNodes());
  }
}

TEST_P(GeneratorInvariantsTest, DeterministicPerSeed) {
  auto a = GetParam().second(55);
  auto b = GetParam().second(55);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->NumEdges(), b->NumEdges());
  for (size_t i = 0; i < a->NumEdges(); ++i) {
    ASSERT_EQ(a->Edges()[i], b->Edges()[i]);
  }
}

TEST_P(GeneratorInvariantsTest, SeedsChangeOutput) {
  auto a = GetParam().second(55);
  auto b = GetParam().second(56);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  bool any_difference = a->NumEdges() != b->NumEdges();
  if (!any_difference) {
    for (size_t i = 0; i < a->NumEdges(); ++i) {
      if (!(a->Edges()[i] == b->Edges()[i])) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GeneratorInvariantsTest,
    ::testing::Values(
        NamedGenerator{"erdos_renyi",
                       [](uint64_t s) {
                         return GenerateErdosRenyi(500, 2000, s);
                       }},
        NamedGenerator{"barabasi_albert",
                       [](uint64_t s) {
                         return GenerateBarabasiAlbert(500, 4, 0.3, s);
                       }},
        NamedGenerator{"watts_strogatz",
                       [](uint64_t s) {
                         return GenerateWattsStrogatz(500, 6, 0.2, s);
                       }},
        NamedGenerator{"chung_lu",
                       [](uint64_t s) {
                         return GenerateChungLu(500, 1500, 2.3, s);
                       }},
        NamedGenerator{"grid",
                       [](uint64_t s) {
                         return GenerateGrid(20, 25, 0.2, s);
                       }}),
    [](const ::testing::TestParamInfo<NamedGenerator>& info) {
      return info.param.first;
    });

}  // namespace
}  // namespace gps
