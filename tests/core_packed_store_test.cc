// Tests for the budget-sized packed sample store (core/packed_store.h):
// layout derivation and its named refusals, the allocation report, slot
// recycling stability under eviction churn (the plf_hive contract every
// SlotId holder depends on), and growth refusal past the preallocated
// layout.

#include "core/packed_store.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/types.h"
#include "util/parse_bytes.h"

namespace gps {
namespace {

TEST(StoreLayoutTest, DerivedCapacityMatchesFormula) {
  const uint64_t budget = 10ull * 1024 * 1024;
  for (const bool in_stream : {false, true}) {
    auto layout = DeriveStoreLayout(budget, in_stream);
    ASSERT_TRUE(layout.ok()) << layout.status().ToString();
    EXPECT_EQ(layout->budget_bytes, budget);
    EXPECT_EQ(layout->capacity,
              (budget - kStoreFixedBytes) / BytesPerSlot(in_stream));
    EXPECT_LE(layout->total_bytes, budget);
    // The report's component terms must sum exactly to the total — an
    // operator reading the startup report can re-derive the budget math.
    EXPECT_EQ(layout->slot_bytes + layout->record_bytes +
                  layout->heap_bytes + layout->adjacency_bytes +
                  layout->node_index_bytes + kStoreFixedBytes,
              layout->total_bytes);
  }
}

TEST(StoreLayoutTest, PerSlotBytesCountWhatASlotHolds) {
  // The store's columns: an 8-byte edge key, weight and priority doubles
  // and a liveness byte. The in-stream estimator's record: weight, cov_tri
  // and cov_wedge doubles.
  EXPECT_EQ(kStoreSlotBytes, 8u + 8u + 8u + 1u);
  EXPECT_EQ(kInStreamRecordBytes, 3u * sizeof(double));
  EXPECT_EQ(kStoreBytesPerSlot, 25u + 16u + 32u + 48u);
  EXPECT_EQ(BytesPerSlot(false), 121u);
  EXPECT_EQ(BytesPerSlot(true), 145u);
  // A 10 MiB budget: (10485760 - 4096) / 121 post-stream slots, and
  // (10485760 - 4096) / 145 in-stream ones.
  auto post = DeriveStoreLayout(10ull * 1024 * 1024, false);
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  EXPECT_EQ(post->capacity, 86625u);
  EXPECT_EQ(post->slot_bytes, 86625u * 25u);
  EXPECT_EQ(post->record_bytes, 0u);
  EXPECT_EQ(post->total_bytes, 4096u + 86625u * 121u);
  auto in_stream = DeriveStoreLayout(10ull * 1024 * 1024, true);
  ASSERT_TRUE(in_stream.ok()) << in_stream.status().ToString();
  EXPECT_EQ(in_stream->capacity, 72287u);
  EXPECT_EQ(in_stream->slot_bytes, 72287u * 25u);
  EXPECT_EQ(in_stream->record_bytes, 72287u * 24u);
  EXPECT_EQ(in_stream->total_bytes, 4096u + 72287u * 145u);
}

TEST(StoreLayoutTest, BudgetTooSmallIsNamedRefusal) {
  for (const bool in_stream : {false, true}) {
    const uint64_t minimum = kStoreFixedBytes + BytesPerSlot(in_stream);
    auto layout = DeriveStoreLayout(minimum - 1, in_stream);
    ASSERT_FALSE(layout.ok());
    EXPECT_EQ(layout.status().code(), StatusCode::kOutOfRange);
    // The refusal names the budget and the minimum, not just "too small".
    EXPECT_NE(layout.status().message().find("cannot hold even one"),
              std::string::npos)
        << layout.status().ToString();
    EXPECT_NE(layout.status().message().find(std::to_string(minimum)),
              std::string::npos);
  }
}

TEST(StoreLayoutTest, BudgetForExactlyOneSlot) {
  for (const bool in_stream : {false, true}) {
    const uint64_t minimum = kStoreFixedBytes + BytesPerSlot(in_stream);
    auto layout = DeriveStoreLayout(minimum, in_stream);
    ASSERT_TRUE(layout.ok()) << layout.status().ToString();
    EXPECT_EQ(layout->capacity, 1u);
    EXPECT_EQ(layout->total_bytes, minimum);
  }
}

TEST(StoreLayoutTest, DerivationIsExactAtLayoutBoundaries) {
  // The formula is monotone and exact: the bytes a capacity needs derive
  // back to that capacity, and one byte less derives strictly fewer
  // slots.
  for (const bool in_stream : {false, true}) {
    for (const size_t m :
         {size_t{1}, size_t{7}, size_t{100}, size_t{76508}}) {
      const StoreLayout exact = LayoutForCapacity(m, 0, in_stream);
      auto fits = DeriveStoreLayout(exact.total_bytes, in_stream);
      ASSERT_TRUE(fits.ok()) << "capacity " << m;
      EXPECT_EQ(fits->capacity, m) << "capacity " << m;
      auto below = DeriveStoreLayout(exact.total_bytes - 1, in_stream);
      if (below.ok()) {
        EXPECT_LT(below->capacity, m) << "capacity " << m;
      } else {
        EXPECT_EQ(m, 1u);  // only the one-slot boundary can refuse
      }
    }
  }
}

TEST(StoreLayoutTest, AllocationReportNamesEveryTerm) {
  auto layout = DeriveStoreLayout(512ull * 1024 * 1024, true);
  ASSERT_TRUE(layout.ok());
  const std::string report = FormatAllocationReport(*layout);
  for (const char* term :
       {"slot columns", "in-stream records", "priority heap",
        "adjacency arena", "node index", "fixed overhead", "total",
        "derived capacity"}) {
    EXPECT_NE(report.find(term), std::string::npos) << term;
  }
  EXPECT_NE(report.find(FormatByteSize(512ull * 1024 * 1024)),
            std::string::npos);
  EXPECT_NE(report.find(std::to_string(layout->capacity)),
            std::string::npos);
}

TEST(PackedSampleStoreTest, SlotIdsStayStableUnderEvictionChurn) {
  PackedSampleStore store(8);
  // Pin a few records, then churn allocate/free cycles around them.
  std::vector<SlotId> pinned;
  for (uint32_t i = 0; i < 4; ++i) {
    const SlotId slot = store.Allocate();
    store.Store(slot, EdgeRecord{MakeEdge(i, i + 100), 1.0 + i, 2.0 + i});
    pinned.push_back(slot);
  }
  for (uint32_t round = 0; round < 200; ++round) {
    const SlotId victim = store.Allocate();
    store.Store(victim, EdgeRecord{MakeEdge(50, 51 + round), 9.0, 9.0});
    store.Free(victim);
  }
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.live(pinned[i]));
    const EdgeRecord record = store.Record(pinned[i]);
    EXPECT_EQ(record.edge, MakeEdge(i, i + 100));
    EXPECT_DOUBLE_EQ(record.weight, 1.0 + i);
    EXPECT_DOUBLE_EQ(record.priority, 2.0 + i);
  }
  EXPECT_EQ(store.live_slots(), 4u);
}

TEST(PackedSampleStoreTest, FreeListRecyclingIsLifo) {
  // Deterministic recycling order is part of the byte-identity contract:
  // the slot freed last is handed out first, so eviction/insert sequences
  // replay identically.
  PackedSampleStore store(4);
  const SlotId a = store.Allocate();
  const SlotId b = store.Allocate();
  store.Free(a);
  store.Free(b);
  EXPECT_EQ(store.Allocate(), b);
  EXPECT_EQ(store.Allocate(), a);
}

TEST(PackedSampleStoreTest, GrowthPastPreallocatedLayoutIsNamedRefusal) {
  PackedSampleStore store(2);  // capacity 2 (+1 transient slot)
  ASSERT_EQ(store.slot_capacity(), 3u);
  for (int i = 0; i < 3; ++i) {
    auto slot = store.TryAllocate();
    ASSERT_TRUE(slot.ok()) << i;
  }
  auto overflow = store.TryAllocate();
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(overflow.status().message().find("preallocated"),
            std::string::npos)
      << overflow.status().ToString();

  // Freeing makes the refusal recoverable without any reallocation.
  store.Free(SlotId{0});
  EXPECT_TRUE(store.TryAllocate().ok());
}

}  // namespace
}  // namespace gps
