#include "graph/sampled_graph.h"

#include <cassert>

namespace gps {

void SampledGraph::InsertHalf(NodeId u, NodeId nbr, SlotId slot) {
  BlockRef* block = nodes_.Find(u);
  if (block == nullptr) {
    BlockRef fresh;
    fresh.log2_cap = AdjacencyArena::kMinClass;
    fresh.offset = arena_.AllocateBlock(fresh.log2_cap);
    block = nodes_.Insert(u, fresh).first;
  }
  if (block->size == AdjacencyArena::ClassCapacity(block->log2_cap)) {
    // Promote to the next size class: allocate first (which may move the
    // arena's backing store), then re-derive both pointers and copy.
    assert(block->log2_cap < AdjacencyArena::kMaxClass);
    const uint8_t next_class = static_cast<uint8_t>(block->log2_cap + 1);
    const uint32_t next_offset = arena_.AllocateBlock(next_class);
    const AdjEntry* src = arena_.At(block->offset);
    std::copy(src, src + block->size, arena_.At(next_offset));
    arena_.FreeBlock(block->offset, block->log2_cap);
    block->offset = next_offset;
    block->log2_cap = next_class;
  }
  AdjEntry* begin = arena_.At(block->offset);
  AdjEntry* pos = begin + (LowerBound(*block, nbr) - begin);
  assert(pos == begin + block->size || pos->nbr != nbr);
  std::copy_backward(pos, begin + block->size, begin + block->size + 1);
  *pos = AdjEntry{nbr, slot};
  ++block->size;
}

SlotId SampledGraph::EraseHalf(NodeId u, NodeId nbr) {
  BlockRef* block = nodes_.Find(u);
  if (block == nullptr) return kNoSlot;
  AdjEntry* begin = arena_.At(block->offset);
  AdjEntry* pos = begin + (LowerBound(*block, nbr) - begin);
  if (pos == begin + block->size || pos->nbr != nbr) return kNoSlot;
  const SlotId slot = pos->slot;
  std::copy(pos + 1, begin + block->size, pos);
  --block->size;
  if (block->size == 0) {
    arena_.FreeBlock(block->offset, block->log2_cap);
    nodes_.Erase(u);
  }
  return slot;
}

bool SampledGraph::AddEdge(const Edge& e, SlotId slot) {
  if (e.IsSelfLoop()) return false;
  const BlockRef* bu = nodes_.Find(e.u);
  if (bu != nullptr && FindInBlock(Block(*bu), e.v) != kNoSlot) return false;
  InsertHalf(e.u, e.v, slot);
  InsertHalf(e.v, e.u, slot);
  ++num_edges_;
  return true;
}

SlotId SampledGraph::RemoveEdge(const Edge& e) {
  const SlotId slot = EraseHalf(e.u, e.v);
  if (slot == kNoSlot) return kNoSlot;
  const SlotId mirror = EraseHalf(e.v, e.u);
  (void)mirror;
  assert(mirror == slot);
  --num_edges_;
  return slot;
}

SlotId SampledGraph::FindEdge(const Edge& e) const {
  const BlockRef* bu = nodes_.Find(e.u);
  if (!bu) return kNoSlot;
  return FindInBlock(Block(*bu), e.v);
}

size_t SampledGraph::CountCommonNeighbors(NodeId u, NodeId v) const {
  const BlockRef* bu = nodes_.Find(u);
  const BlockRef* bv = nodes_.Find(v);
  if (!bu || !bv) return 0;
  return IntersectCountSorted(arena_.At(bu->offset), bu->size,
                              arena_.At(bv->offset), bv->size,
                              &intersect_metrics_);
}

void SampledGraph::Clear() {
  nodes_.clear();
  arena_.Clear();
  num_edges_ = 0;
}

void SampledGraph::Reserve(size_t max_nodes, size_t arena_entries) {
  nodes_.reserve(max_nodes);
  arena_.Reserve(arena_entries);
}

}  // namespace gps
