#include "core/snapshot.h"

#include <vector>

namespace gps {

void AccumulateMotifSnapshots(const Edge& e, const GpsReservoir& reservoir,
                              EnumerateFn enumerate, MotifAccumulator* acc) {
  const Emitter emit = [&](std::span<const Edge> edges) {
    double product = 1.0;
    for (const Edge& member : edges) {
      const SlotId slot = reservoir.graph().FindEdge(member.Canonical());
      if (slot == kNoSlot) return;  // enumerator reported an unsampled edge
      product /= reservoir.Probability(slot);
    }
    acc->count += product;
    acc->variance += product * (product - 1.0);
    ++acc->snapshots;
  };
  enumerate(e, reservoir.graph(), emit);
}

void EnumerateFourCliques(const Edge& arriving, const SampledGraph& graph,
                          const Emitter& emit) {
  // Collect common neighbors of (u, v), then test each pair for the
  // connecting sampled edge.
  std::vector<NodeId> common;
  graph.ForEachCommonNeighbor(
      arriving.u, arriving.v,
      [&](NodeId w, SlotId, SlotId) { common.push_back(w); });
  for (size_t i = 0; i < common.size(); ++i) {
    for (size_t j = i + 1; j < common.size(); ++j) {
      const Edge bridge = MakeEdge(common[i], common[j]);
      if (!graph.HasEdge(bridge)) continue;
      const Edge members[5] = {MakeEdge(arriving.u, common[i]),
                               MakeEdge(arriving.v, common[i]),
                               MakeEdge(arriving.u, common[j]),
                               MakeEdge(arriving.v, common[j]), bridge};
      emit(members);
    }
  }
}

void EnumerateFourCycles(const Edge& arriving, const SampledGraph& graph,
                         const Emitter& emit) {
  const NodeId u = arriving.u;
  const NodeId v = arriving.v;
  // Cycle u-v-x-y-u: x a sampled neighbor of v, y a sampled neighbor of
  // u, joined by the sampled edge (x,y). Chords (x,u) or (y,v) may also
  // be sampled — a C4 subgraph counts whether or not it is induced,
  // matching the exact oracle.
  graph.ForEachNeighbor(v, [&](NodeId x, SlotId) {
    if (x == u) return;
    graph.ForEachNeighbor(u, [&](NodeId y, SlotId) {
      if (y == v || y == x) return;
      const Edge bridge = MakeEdge(x, y);
      if (!graph.HasEdge(bridge)) return;
      const Edge members[3] = {MakeEdge(v, x), bridge, MakeEdge(y, u)};
      emit(members);
    });
  });
}

void EnumerateFiveCliques(const Edge& arriving, const SampledGraph& graph,
                          const Emitter& emit) {
  // A 5-clique completed by (u,v) is a triple of common neighbors that
  // are themselves pairwise joined by sampled edges. Prune at the first
  // missing bridge so dense common neighborhoods do not pay the full
  // cubic scan.
  std::vector<NodeId> common;
  graph.ForEachCommonNeighbor(
      arriving.u, arriving.v,
      [&](NodeId w, SlotId, SlotId) { common.push_back(w); });
  for (size_t i = 0; i < common.size(); ++i) {
    for (size_t j = i + 1; j < common.size(); ++j) {
      const Edge bridge_ij = MakeEdge(common[i], common[j]);
      if (!graph.HasEdge(bridge_ij)) continue;
      for (size_t k = j + 1; k < common.size(); ++k) {
        const Edge bridge_ik = MakeEdge(common[i], common[k]);
        const Edge bridge_jk = MakeEdge(common[j], common[k]);
        if (!graph.HasEdge(bridge_ik) || !graph.HasEdge(bridge_jk)) {
          continue;
        }
        const Edge members[9] = {MakeEdge(arriving.u, common[i]),
                                 MakeEdge(arriving.v, common[i]),
                                 MakeEdge(arriving.u, common[j]),
                                 MakeEdge(arriving.v, common[j]),
                                 MakeEdge(arriving.u, common[k]),
                                 MakeEdge(arriving.v, common[k]),
                                 bridge_ij, bridge_ik, bridge_jk};
        emit(members);
      }
    }
  }
}

void EnumerateTailedTriangles(const Edge& arriving,
                              const SampledGraph& graph,
                              const Emitter& emit) {
  const NodeId u = arriving.u;
  const NodeId v = arriving.v;

  // Case A: the arriving edge is the pendant tail. Either endpoint may
  // be the attachment vertex x (the other endpoint is the pendant node
  // and must stay outside the triangle): every sampled triangle at x
  // avoiding the pendant node completes one instance.
  const auto triangles_at = [&](NodeId x, NodeId pendant) {
    std::vector<NodeId> nbrs;
    graph.ForEachNeighbor(x, [&](NodeId n, SlotId) {
      if (n != pendant) nbrs.push_back(n);
    });
    for (size_t i = 0; i < nbrs.size(); ++i) {
      for (size_t j = i + 1; j < nbrs.size(); ++j) {
        const Edge base = MakeEdge(nbrs[i], nbrs[j]);
        if (!graph.HasEdge(base)) continue;
        const Edge members[3] = {MakeEdge(x, nbrs[i]),
                                 MakeEdge(x, nbrs[j]), base};
        emit(members);
      }
    }
  };
  triangles_at(u, v);
  triangles_at(v, u);

  // Case B: the arriving edge is a triangle edge. Each common neighbor
  // w closes a triangle {u, v, w}; any sampled edge from a triangle
  // vertex to a fourth node is its tail.
  graph.ForEachCommonNeighbor(u, v, [&](NodeId w, SlotId, SlotId) {
    const Edge uw = MakeEdge(u, w);
    const Edge vw = MakeEdge(v, w);
    const auto tails_at = [&](NodeId x, NodeId skip1, NodeId skip2) {
      graph.ForEachNeighbor(x, [&](NodeId t, SlotId) {
        if (t == skip1 || t == skip2) return;
        const Edge members[3] = {uw, vw, MakeEdge(x, t)};
        emit(members);
      });
    };
    tails_at(u, v, w);
    tails_at(v, u, w);
    tails_at(w, u, v);
  });
}

void EnumerateThreePaths(const Edge& arriving, const SampledGraph& graph,
                         const Emitter& emit) {
  const NodeId u = arriving.u;
  const NodeId v = arriving.v;

  // Case 1: arriving edge is the MIDDLE edge. Path a-u-v-b with
  // a ∈ Γ̂(u)\{v}, b ∈ Γ̂(v)\{u}, a != b.
  graph.ForEachNeighbor(u, [&](NodeId a, SlotId) {
    if (a == v) return;
    graph.ForEachNeighbor(v, [&](NodeId b, SlotId) {
      if (b == u || b == a) return;
      const Edge members[2] = {MakeEdge(a, u), MakeEdge(v, b)};
      emit(members);
    });
  });

  // Case 2: arriving edge is an END edge. Path v-u-b-c (and the
  // symmetric u-v-b-c) with b adjacent to the inner endpoint and c a
  // further neighbor of b, all four nodes distinct.
  const auto end_paths = [&](NodeId inner, NodeId outer) {
    graph.ForEachNeighbor(inner, [&](NodeId b, SlotId) {
      if (b == outer) return;
      graph.ForEachNeighbor(b, [&](NodeId c, SlotId) {
        if (c == inner || c == outer) return;
        const Edge members[2] = {MakeEdge(inner, b), MakeEdge(b, c)};
        emit(members);
      });
    });
  };
  end_paths(u, v);
  end_paths(v, u);
}

}  // namespace gps
