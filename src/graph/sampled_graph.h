// Dynamic undirected adjacency over a *sampled* set of edges.
//
// This is the reservoir's topology index (paper Section 3.2): arriving edge
// k = (v1, v2) needs |Γ̂(v1) ∩ Γ̂(v2)| — the number of sampled triangles k
// would complete — in O(min{deg(v1), deg(v2)} · log deg) expected time, and
// edges must be removable when evicted from the reservoir.
//
// Layout (mccortex gpath_hash idiom, memory-budget refactor): one
// open-addressing table maps node -> BlockRef, a (offset, size, class)
// handle into a single bump-allocated AdjacencyArena of (neighbor, slot)
// entries. Blocks have power-of-two capacities; a node outgrowing its
// block moves to the next size class and the old block goes on a per-class
// free list for reuse under eviction churn. Compared to the previous
// map-of-vectors this removes one heap allocation per node, makes the
// adjacency footprint a single arena number (`arena_bytes()`) a `--mem`
// budget can account for, and keeps every entry 8 bytes.
//
// Each incident edge is stored with an opaque 32-bit payload ("slot") so
// the reservoir can map a neighbor entry back to its edge record (weight,
// priority, covariance accumulators) without a second lookup.
//
// Every block is kept SORTED by neighbor id — the iteration source. The
// sorted order is a determinism guarantee, not an optimization: iteration
// order is a pure function of the sampled edge set, never of
// insertion/eviction history or hash-table layout. Estimators accumulate
// floating-point sums in iteration order, so a checkpoint-restored
// reservoir (which rebuilds this index from serialized records, in a
// different insertion order) produces BIT-IDENTICAL estimates to the
// live run it resumes — the engine's resume contract
// (engine/sharded_engine.h) depends on this. The O(deg) insert/erase
// memmove this costs is dominated by the O(deg) neighborhood scans the
// estimators already perform per arrival.

#ifndef GPS_GRAPH_SAMPLED_GRAPH_H_
#define GPS_GRAPH_SAMPLED_GRAPH_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/intersect.h"  // SlotId, kNoSlot, AdjEntry + the kernels
#include "graph/types.h"
#include "util/flat_hash_map.h"

namespace gps {

/// Bump allocator for fixed-capacity adjacency blocks with per-size-class
/// free lists. Offsets (not pointers) are the stable handle: the backing
/// vector may reallocate on bump growth, so callers re-derive pointers via
/// At() after any allocation.
class AdjacencyArena {
 public:
  /// log2 of the smallest block capacity (2 entries).
  static constexpr uint8_t kMinClass = 1;
  static constexpr uint8_t kMaxClass = 31;

  static constexpr uint32_t ClassCapacity(uint8_t log2_cap) {
    return uint32_t{1} << log2_cap;
  }

  /// Returns the offset of a block with capacity 1 << log2_cap, reusing a
  /// freed block of that class when one exists.
  uint32_t AllocateBlock(uint8_t log2_cap) {
    auto& free_list = free_[log2_cap];
    if (!free_list.empty()) {
      const uint32_t offset = free_list.back();
      free_list.pop_back();
      return offset;
    }
    const uint32_t offset = static_cast<uint32_t>(entries_.size());
    entries_.resize(entries_.size() + ClassCapacity(log2_cap));
    return offset;
  }

  void FreeBlock(uint32_t offset, uint8_t log2_cap) {
    free_[log2_cap].push_back(offset);
  }

  AdjEntry* At(uint32_t offset) { return entries_.data() + offset; }
  const AdjEntry* At(uint32_t offset) const {
    return entries_.data() + offset;
  }

  /// Preallocates backing storage (budget mode: one reservation up
  /// front, no growth jitter during the stream).
  void Reserve(size_t entry_count) { entries_.reserve(entry_count); }

  void Clear() {
    entries_.clear();
    for (auto& fl : free_) fl.clear();
  }

  /// Bytes owned by the arena backing store (capacity, not size: this is
  /// what the process actually holds).
  uint64_t bytes() const {
    return static_cast<uint64_t>(entries_.capacity()) * sizeof(AdjEntry);
  }

  /// Entries handed out over the arena's lifetime (bump high-water mark,
  /// including freed-and-reusable blocks).
  size_t entries_allocated() const { return entries_.size(); }

 private:
  std::vector<AdjEntry> entries_;
  std::array<std::vector<uint32_t>, kMaxClass + 1> free_;
};

/// Mutable adjacency structure over sampled edges.
class SampledGraph {
 public:
  SampledGraph() = default;

  size_t NumEdges() const { return num_edges_; }

  /// Number of nodes currently incident to at least one sampled edge
  /// (the |V̂| term in the paper's O(|V̂| + m) space bound).
  size_t NumNodes() const { return nodes_.size(); }

  /// Degree of v in the sampled graph (0 if absent).
  size_t Degree(NodeId v) const {
    const BlockRef* block = nodes_.Find(v);
    return block ? block->size : 0;
  }

  /// Adds edge e carrying `slot`. Returns false (no-op) if already present
  /// or a self loop.
  bool AddEdge(const Edge& e, SlotId slot);

  /// Removes edge e; returns its slot, or kNoSlot if absent.
  SlotId RemoveEdge(const Edge& e);

  /// Returns the slot carried by edge e, or kNoSlot.
  SlotId FindEdge(const Edge& e) const;

  bool HasEdge(const Edge& e) const { return FindEdge(e) != kNoSlot; }

  /// Calls fn(neighbor, slot) over the neighbors of v, in ascending
  /// neighbor-id order regardless of insertion/eviction history.
  template <typename Fn>
  void ForEachNeighbor(NodeId v, Fn&& fn) const {
    for (const AdjEntry& entry : Neighbors(v)) fn(entry.nbr, entry.slot);
  }

  /// v's adjacency block: its (neighbor, slot) entries in ascending
  /// neighbor-id order, empty when v has no sampled edge. Valid until the
  /// graph next changes.
  std::span<const AdjEntry> Neighbors(NodeId v) const {
    const BlockRef* block = nodes_.Find(v);
    if (!block) return {};
    return {arena_.At(block->offset), block->size};
  }

  /// Calls fn(node, degree) for every node with at least one sampled edge.
  template <typename Fn>
  void ForEachNode(Fn&& fn) const {
    nodes_.ForEach([&](NodeId node, const BlockRef& block) {
      fn(node, static_cast<size_t>(block.size));
    });
  }

  /// Counts |Γ̂(u) ∩ Γ̂(v)| — the weight computation of paper Section 3.2 —
  /// via the count-only intersection kernels (no slot resolution).
  size_t CountCommonNeighbors(NodeId u, NodeId v) const;

  /// Calls fn(w, slot_uw, slot_vw) for every common neighbor w of u and v,
  /// i.e. for every sampled triangle the (u, v) edge would close. Routed
  /// through the adaptive intersection kernels (graph/intersect.h):
  /// ascending-w emission with slots in (u, v) argument order is a kernel
  /// contract, so dispatch can never perturb estimate bytes.
  template <typename Fn>
  void ForEachCommonNeighbor(NodeId u, NodeId v, Fn&& fn) const {
    const std::span<const AdjEntry> a = Neighbors(u);
    const std::span<const AdjEntry> b = Neighbors(v);
    IntersectSorted(a.data(), a.size(), b.data(), b.size(),
                    &intersect_metrics_, std::forward<Fn>(fn));
  }

  /// Kernel-selection counters for this graph's intersections (registered
  /// with the engine's MetricsRegistry; mutable because intersection is a
  /// const query).
  IntersectMetrics* intersect_metrics() const { return &intersect_metrics_; }

  /// Removes everything (arena storage is retained).
  void Clear();

  /// Budget mode: preallocates the node table for `max_nodes` and the
  /// arena for `arena_entries` entries up front, so steady-state RSS is
  /// set at startup rather than discovered through doubling.
  void Reserve(size_t max_nodes, size_t arena_entries);

  // ---- Memory/metrics introspection (engine gauges) ----------------------

  /// Bytes held by the adjacency arena backing store.
  uint64_t arena_bytes() const { return arena_.bytes(); }

  /// Live fill fraction of the open-addressing node table (<= 7/8).
  double node_load_factor() const { return nodes_.load_factor(); }

  /// Calls fn(probe_length) per node-table entry; O(table). Snapshot-time
  /// only — never on the per-arrival path.
  template <typename Fn>
  void ForEachNodeProbeLength(Fn&& fn) const {
    nodes_.ForEachProbeLength(std::forward<Fn>(fn));
  }

 private:
  /// Handle into the arena: `size` live entries, sorted by neighbor id,
  /// in a block of capacity 1 << log2_cap. log2_cap == 0 marks "no block
  /// yet" (smallest real class is kMinClass).
  struct BlockRef {
    uint32_t offset = 0;
    uint32_t size = 0;
    uint8_t log2_cap = 0;
  };

  const AdjEntry* LowerBound(const BlockRef& block, NodeId nbr) const {
    const AdjEntry* begin = arena_.At(block.offset);
    return std::lower_bound(
        begin, begin + block.size, nbr,
        [](const AdjEntry& entry, NodeId key) { return entry.nbr < key; });
  }

  SlotId FindInBlock(const BlockRef& block, NodeId nbr) const {
    const AdjEntry* it = LowerBound(block, nbr);
    return it != arena_.At(block.offset) + block.size && it->nbr == nbr
               ? it->slot
               : kNoSlot;
  }

  /// Inserts the directed half-edge u -> (nbr, slot), growing u's block a
  /// size class if full. Precondition: nbr not already present.
  void InsertHalf(NodeId u, NodeId nbr, SlotId slot);

  /// Erases the directed half-edge u -> nbr; frees u's block and erases u
  /// from the node table when it empties. Returns the erased slot or
  /// kNoSlot.
  SlotId EraseHalf(NodeId u, NodeId nbr);

  FlatHashMap<NodeId, BlockRef> nodes_;
  AdjacencyArena arena_;
  size_t num_edges_ = 0;
  mutable IntersectMetrics intersect_metrics_;
};

}  // namespace gps

#endif  // GPS_GRAPH_SAMPLED_GRAPH_H_
