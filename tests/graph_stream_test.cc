// Tests for stream construction: permutation determinism and content
// preservation.

#include "graph/stream.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "gen/generators.h"

namespace gps {
namespace {

EdgeList SmallGraph() {
  return GenerateErdosRenyi(50, 200, 21).value();
}

TEST(StreamTest, PermutationPreservesEdgeSet) {
  EdgeList graph = SmallGraph();
  std::vector<Edge> stream = MakePermutedStream(graph, 1);
  EXPECT_EQ(stream.size(), graph.NumEdges());
  std::set<uint64_t> original, streamed;
  for (const Edge& e : graph.Edges()) original.insert(EdgeKey(e));
  for (const Edge& e : stream) streamed.insert(EdgeKey(e));
  EXPECT_EQ(original, streamed);
}

TEST(StreamTest, SameSeedSameOrder) {
  EdgeList graph = SmallGraph();
  std::vector<Edge> a = MakePermutedStream(graph, 7);
  std::vector<Edge> b = MakePermutedStream(graph, 7);
  EXPECT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(StreamTest, DifferentSeedsDifferentOrder) {
  EdgeList graph = SmallGraph();
  std::vector<Edge> a = MakePermutedStream(graph, 7);
  std::vector<Edge> b = MakePermutedStream(graph, 8);
  size_t same_position = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) ++same_position;
  }
  EXPECT_LT(same_position, a.size() / 4);
}

TEST(StreamTest, SimplifiesBeforePermuting) {
  EdgeList dirty;
  dirty.Add(1, 2);
  dirty.Add(2, 1);
  dirty.Add(3, 3);
  dirty.Add(2, 3);
  std::vector<Edge> stream = MakePermutedStream(dirty, 5);
  EXPECT_EQ(stream.size(), 2u);
  for (const Edge& e : stream) {
    EXPECT_FALSE(e.IsSelfLoop());
    EXPECT_LT(e.u, e.v);
  }
}

}  // namespace
}  // namespace gps
