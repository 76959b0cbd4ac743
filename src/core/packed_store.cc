#include "core/packed_store.h"

#include <cassert>
#include <sstream>

#include "util/parse_bytes.h"

namespace gps {

StoreLayout LayoutForCapacity(size_t capacity, uint64_t budget_bytes,
                              bool in_stream) {
  StoreLayout layout;
  layout.budget_bytes = budget_bytes;
  layout.capacity = capacity;
  const uint64_t m = capacity;
  layout.slot_bytes = m * kStoreSlotBytes;
  layout.record_bytes = in_stream ? m * kInStreamRecordBytes : 0;
  layout.heap_bytes = m * kStoreHeapBytes;
  layout.adjacency_bytes = m * kStoreAdjacencyBytes;
  layout.node_index_bytes = m * kStoreNodeIndexBytes;
  layout.total_bytes = kStoreFixedBytes + layout.slot_bytes +
                       layout.record_bytes + layout.heap_bytes +
                       layout.adjacency_bytes + layout.node_index_bytes;
  return layout;
}

Result<StoreLayout> DeriveStoreLayout(uint64_t budget_bytes, bool in_stream) {
  const uint64_t per_slot = BytesPerSlot(in_stream);
  if (budget_bytes < kStoreFixedBytes + per_slot) {
    return Status::OutOfRange(
        "memory budget " + FormatByteSize(budget_bytes) +
        " cannot hold even one reservoir slot (needs at least " +
        std::to_string(kStoreFixedBytes + per_slot) +
        " bytes: " + std::to_string(kStoreFixedBytes) + " fixed + " +
        std::to_string(per_slot) + " per slot)");
  }
  // TotalBytes(m) is linear in m, so the largest fitting capacity is a
  // division, not a search; asserted monotone below for safety.
  const size_t capacity =
      static_cast<size_t>((budget_bytes - kStoreFixedBytes) / per_slot);
  StoreLayout layout = LayoutForCapacity(capacity, budget_bytes, in_stream);
  assert(layout.total_bytes <= budget_bytes);
  assert(LayoutForCapacity(capacity + 1, budget_bytes, in_stream)
             .total_bytes > budget_bytes);
  return layout;
}

std::string FormatAllocationReport(const StoreLayout& layout) {
  std::ostringstream out;
  out << "sample-store allocation";
  if (layout.budget_bytes > 0) {
    out << " (budget " << FormatByteSize(layout.budget_bytes)
        << " -> derived capacity " << layout.capacity << ")";
  } else {
    out << " (explicit capacity " << layout.capacity << ")";
  }
  out << "\n";
  out << "  slot columns (SoA)   : " << layout.slot_bytes << " bytes\n";
  out << "  in-stream records    : " << layout.record_bytes << " bytes\n";
  out << "  priority heap        : " << layout.heap_bytes << " bytes\n";
  out << "  adjacency arena      : " << layout.adjacency_bytes
      << " bytes\n";
  out << "  node index (7/8 cap) : " << layout.node_index_bytes
      << " bytes\n";
  out << "  fixed overhead       : " << kStoreFixedBytes << " bytes\n";
  out << "  total                : " << layout.total_bytes << " bytes";
  if (layout.budget_bytes > 0) {
    out << " of " << layout.budget_bytes << " budgeted";
  }
  out << "\n";
  return out.str();
}

PackedSampleStore::PackedSampleStore(size_t capacity)
    : cap_(capacity + 1) {
  keys_.reserve(cap_);
  weights_.reserve(cap_);
  priorities_.reserve(cap_);
  live_.reserve(cap_);
  free_.reserve(cap_);
}

Result<SlotId> PackedSampleStore::TryAllocate() {
  if (!free_.empty()) {
    const SlotId slot = free_.back();
    free_.pop_back();
    return slot;
  }
  if (used_ >= cap_) {
    return Status::OutOfRange(
        "packed sample store: slot allocation past the preallocated "
        "capacity (" +
        std::to_string(cap_ - 1) +
        " + 1 transient) refused — the store never grows beyond its "
        "memory layout");
  }
  keys_.push_back(0);
  weights_.push_back(0.0);
  priorities_.push_back(0.0);
  live_.push_back(0);
  return static_cast<SlotId>(used_++);
}

SlotId PackedSampleStore::Allocate() {
  Result<SlotId> slot = TryAllocate();
  assert(slot.ok() && "reservoir must evict before allocating past cap");
  return *slot;
}

void PackedSampleStore::Free(SlotId slot) {
  live_[slot] = 0;
  free_.push_back(slot);
}

void PackedSampleStore::Store(SlotId slot, const EdgeRecord& record) {
  keys_[slot] = EdgeKey(record.edge);
  weights_[slot] = record.weight;
  priorities_[slot] = record.priority;
  live_[slot] = 1;
}

}  // namespace gps
