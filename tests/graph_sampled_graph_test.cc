// Tests for the dynamic sampled-graph adjacency, including the adaptive
// neighbor-container promotion and common-neighbor enumeration.

#include "graph/sampled_graph.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace gps {
namespace {

TEST(AdjacencyArenaTest, AllocateReuseAndBytes) {
  AdjacencyArena arena;
  const uint32_t a = arena.AllocateBlock(1);
  const uint32_t b = arena.AllocateBlock(1);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.entries_allocated(), 4u);  // two class-1 blocks
  arena.FreeBlock(a, 1);
  // A freed block of the same class is reused instead of bumping.
  EXPECT_EQ(arena.AllocateBlock(1), a);
  EXPECT_EQ(arena.entries_allocated(), 4u);
  // A different class bumps fresh storage.
  const uint32_t c = arena.AllocateBlock(3);
  EXPECT_EQ(arena.entries_allocated(), 4u + 8u);
  (void)c;
  EXPECT_GE(arena.bytes(), arena.entries_allocated() * sizeof(AdjEntry));
}

TEST(AdjacencyArenaTest, ReservePreallocatesBackingStore) {
  AdjacencyArena arena;
  arena.Reserve(1024);
  const uint64_t reserved = arena.bytes();
  EXPECT_GE(reserved, 1024 * sizeof(AdjEntry));
  // Allocations within the reservation do not grow the backing store.
  for (int i = 0; i < 100; ++i) arena.AllocateBlock(2);
  EXPECT_EQ(arena.bytes(), reserved);
}

TEST(SampledGraphTest, NeighborIterationIsSortedByNeighborId) {
  // Sorted iteration is the byte-identity contract: the order must be a
  // pure function of the edge set, not of insertion/eviction history.
  SampledGraph g;
  const NodeId hub = 1000;
  // Insert in descending order; iterate ascending.
  for (NodeId v = 50; v > 0; --v) g.AddEdge(MakeEdge(hub, v), v);
  g.RemoveEdge(MakeEdge(hub, 25));
  g.AddEdge(MakeEdge(hub, 25), 25);
  std::vector<NodeId> order;
  g.ForEachNeighbor(hub, [&](NodeId nbr, SlotId slot) {
    EXPECT_EQ(nbr, slot);
    order.push_back(nbr);
  });
  ASSERT_EQ(order.size(), 50u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(SampledGraphTest, BlockGrowthAcrossSizeClassesKeepsEntries) {
  // A node growing past each power-of-two block capacity is migrated to
  // the next size class with all entries intact.
  SampledGraph g;
  const uint32_t fan = 300;
  for (uint32_t i = 1; i <= fan; ++i) g.AddEdge(MakeEdge(0, i), i * 3);
  EXPECT_EQ(g.Degree(0), static_cast<size_t>(fan));
  for (uint32_t i = 1; i <= fan; ++i) {
    EXPECT_EQ(g.FindEdge(MakeEdge(0, i)), i * 3);
  }
}

TEST(SampledGraphTest, MemoryIntrospectionGauges) {
  SampledGraph g;
  EXPECT_EQ(g.arena_bytes(), 0u);
  for (uint32_t i = 1; i <= 64; ++i) g.AddEdge(MakeEdge(0, i), i);
  EXPECT_GT(g.arena_bytes(), 0u);
  EXPECT_GT(g.node_load_factor(), 0.0);
  EXPECT_LE(g.node_load_factor(), 7.0 / 8.0);
  size_t probes = 0;
  g.ForEachNodeProbeLength([&](size_t) { ++probes; });
  EXPECT_EQ(probes, g.NumNodes());
}

TEST(SampledGraphTest, AddFindRemove) {
  SampledGraph g;
  EXPECT_TRUE(g.AddEdge(MakeEdge(1, 2), 77));
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.NumNodes(), 2u);
  EXPECT_EQ(g.FindEdge(MakeEdge(1, 2)), 77u);
  EXPECT_EQ(g.FindEdge(MakeEdge(2, 1)), 77u);
  EXPECT_EQ(g.RemoveEdge(MakeEdge(1, 2)), 77u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.NumNodes(), 0u);  // nodes garbage-collected when isolated
}

TEST(SampledGraphTest, RejectsDuplicatesAndLoops) {
  SampledGraph g;
  EXPECT_TRUE(g.AddEdge(MakeEdge(1, 2), 1));
  EXPECT_FALSE(g.AddEdge(MakeEdge(2, 1), 2));
  EXPECT_FALSE(g.AddEdge(Edge{3, 3}, 3));
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(SampledGraphTest, RemoveAbsentEdgeReturnsNoSlot) {
  SampledGraph g;
  g.AddEdge(MakeEdge(1, 2), 1);
  EXPECT_EQ(g.RemoveEdge(MakeEdge(1, 3)), kNoSlot);
  EXPECT_EQ(g.RemoveEdge(MakeEdge(4, 5)), kNoSlot);
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(SampledGraphTest, DegreeTracking) {
  SampledGraph g;
  g.AddEdge(MakeEdge(0, 1), 1);
  g.AddEdge(MakeEdge(0, 2), 2);
  g.AddEdge(MakeEdge(0, 3), 3);
  EXPECT_EQ(g.Degree(0), 3u);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_EQ(g.Degree(99), 0u);
  g.RemoveEdge(MakeEdge(0, 2));
  EXPECT_EQ(g.Degree(0), 2u);
}

TEST(SampledGraphTest, CommonNeighborsTriangle) {
  SampledGraph g;
  g.AddEdge(MakeEdge(0, 1), 10);
  g.AddEdge(MakeEdge(0, 2), 20);
  g.AddEdge(MakeEdge(1, 2), 30);
  // Arriving edge (1,2) exists; common neighbors of 1 and 2 -> {0}.
  EXPECT_EQ(g.CountCommonNeighbors(1, 2), 1u);
  size_t calls = 0;
  g.ForEachCommonNeighbor(1, 2, [&](NodeId w, SlotId s1, SlotId s2) {
    EXPECT_EQ(w, 0u);
    // Slots correspond to edges (1,0) and (2,0).
    EXPECT_EQ(s1, 10u);
    EXPECT_EQ(s2, 20u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(SampledGraphTest, CommonNeighborSlotOrderFollowsArguments) {
  // ForEachCommonNeighbor(u, v, fn) may internally swap to scan the smaller
  // neighborhood; slots must still be reported as (slot_uw, slot_vw).
  SampledGraph g;
  g.AddEdge(MakeEdge(1, 0), 10);  // edge u-w
  g.AddEdge(MakeEdge(2, 0), 20);  // edge v-w
  g.AddEdge(MakeEdge(2, 5), 25);  // make deg(2) > deg(1)
  g.ForEachCommonNeighbor(1, 2, [&](NodeId w, SlotId s_uw, SlotId s_vw) {
    EXPECT_EQ(w, 0u);
    EXPECT_EQ(s_uw, 10u);
    EXPECT_EQ(s_vw, 20u);
  });
  g.ForEachCommonNeighbor(2, 1, [&](NodeId w, SlotId s_uw, SlotId s_vw) {
    EXPECT_EQ(w, 0u);
    EXPECT_EQ(s_uw, 20u);
    EXPECT_EQ(s_vw, 10u);
  });
}

TEST(SampledGraphTest, CommonNeighborsDisjoint) {
  SampledGraph g;
  g.AddEdge(MakeEdge(0, 1), 1);
  g.AddEdge(MakeEdge(2, 3), 2);
  EXPECT_EQ(g.CountCommonNeighbors(0, 2), 0u);
  EXPECT_EQ(g.CountCommonNeighbors(0, 99), 0u);
}

TEST(SampledGraphTest, HubNodeCommonNeighbors) {
  // Exercise the promoted (hash) neighbor container path.
  SampledGraph g;
  const uint32_t fan = 200;
  for (uint32_t i = 2; i < 2 + fan; ++i) {
    g.AddEdge(MakeEdge(0, i), i);
    g.AddEdge(MakeEdge(1, i), 1000 + i);
  }
  EXPECT_EQ(g.CountCommonNeighbors(0, 1), static_cast<size_t>(fan));
  // Remove half, verify count tracks.
  for (uint32_t i = 2; i < 2 + fan; i += 2) g.RemoveEdge(MakeEdge(0, i));
  EXPECT_EQ(g.CountCommonNeighbors(0, 1), static_cast<size_t>(fan / 2));
}

TEST(SampledGraphTest, RandomizedChurnConsistency) {
  SampledGraph g;
  std::set<uint64_t> ref;
  Rng rng(77);
  for (int op = 0; op < 50000; ++op) {
    const NodeId u = rng.UniformU32(60);
    const NodeId v = rng.UniformU32(60);
    if (u == v) continue;
    const Edge e = MakeEdge(u, v);
    if (rng.Bernoulli(0.6)) {
      const bool added = g.AddEdge(e, 5);
      const bool ref_added = ref.insert(EdgeKey(e)).second;
      ASSERT_EQ(added, ref_added);
    } else {
      const bool removed = g.RemoveEdge(e) != kNoSlot;
      ASSERT_EQ(removed, ref.erase(EdgeKey(e)) > 0);
    }
    ASSERT_EQ(g.NumEdges(), ref.size());
  }
}

TEST(SampledGraphTest, NodeTableLayoutMatchesFindThenInsertAndErase) {
  // AddEdge finds-or-inserts each endpoint in one probe and RemoveEdge
  // erases an emptied node at the position its lookup found. The node
  // table must end up exactly as with separate calls: Find, then Insert on
  // a miss; Erase by key when a degree drops to zero. Positions matter:
  // passes walk the node table in position order.
  SampledGraph g;
  FlatHashMap<NodeId, uint32_t> degrees;
  std::vector<Edge> present;  // a sparse graph: nodes come and go
  std::set<uint64_t> keys;
  Rng rng(78);
  for (int op = 0; op < 20000; ++op) {
    const Edge random = MakeEdge(rng.UniformU32(400), rng.UniformU32(400));
    const size_t pick = present.empty() ? 0 : rng.UniformU64(present.size());
    const bool add = rng.Bernoulli(present.size() < 150 ? 0.7 : 0.3);
    // One op in ten repeats a present edge or removes an absent one.
    const bool mismatch = !present.empty() && rng.Bernoulli(0.1);
    if (add) {
      const Edge e = mismatch ? present[pick] : random;
      const bool added = !e.IsSelfLoop() && keys.insert(EdgeKey(e)).second;
      ASSERT_EQ(g.AddEdge(e, 1), added);
      if (added) {
        present.push_back(e);
        for (const NodeId x : {e.u, e.v}) {
          uint32_t* degree = degrees.Find(x);
          if (degree == nullptr) degree = degrees.Insert(x, 0).first;
          ++*degree;
        }
      }
    } else {
      const Edge e = mismatch || present.empty() ? random : present[pick];
      const bool removed = keys.erase(EdgeKey(e)) > 0;
      ASSERT_EQ(g.RemoveEdge(e) != kNoSlot, removed);
      if (removed) {
        present.erase(std::find(present.begin(), present.end(), e));
        for (const NodeId x : {e.u, e.v}) {
          if (--*degrees.Find(x) == 0) degrees.Erase(x);
        }
      }
    }
    ASSERT_EQ(g.node_table_size(), degrees.capacity()) << "op " << op;
    std::vector<std::pair<NodeId, size_t>> nodes, expected;
    g.ForEachNode([&](NodeId node, size_t degree) {
      nodes.emplace_back(node, degree);
    });
    degrees.ForEach([&](NodeId node, uint32_t degree) {
      expected.emplace_back(node, degree);
    });
    ASSERT_EQ(nodes, expected) << "op " << op;
  }
}

TEST(SampledGraphTest, ClearEmptiesEverything) {
  SampledGraph g;
  g.AddEdge(MakeEdge(0, 1), 1);
  g.AddEdge(MakeEdge(1, 2), 2);
  g.Clear();
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_FALSE(g.HasEdge(MakeEdge(0, 1)));
}

}  // namespace
}  // namespace gps
