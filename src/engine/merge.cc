#include "engine/merge.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/algorithm2.h"
#include "core/local_counts.h"
#include "core/post_stream.h"
#include "graph/sampled_graph.h"
#include "graph/types.h"
#include "util/cpus.h"
#include "util/parallel_chunks.h"

namespace gps {
namespace {

// One sampled edge of the union. `stratum` packs (shard << 32 |
// sub-stratum): with empty sub-stratum tables (the engine's) every edge
// of shard s carries stratum s<<32, so the span tests reduce to shard
// comparisons.
struct UnionRecord {
  Edge edge;
  double inv_q = 0.0;  // 1 / min{1, w / z*_shard}
  uint64_t stratum = 0;
};

/// One union triangle at a record (u, v): its third node w and the union
/// slots of (u, w) and (v, w) — one match of IntersectSorted(block(u),
/// block(v)).
struct TriangleEntry {
  NodeId w;
  SlotId slot_u;
  SlotId slot_v;
};

/// Every union record's triangles, ascending in w, in one pooled entry
/// array: a record's list is an (offset, size) range of the pool. A
/// recomputed list overwrites its old range when it fits and is appended
/// otherwise; Compact() rewrites the pool once dead entries outnumber live
/// ones (past a slack of 4096, so a small pool is not rewritten every
/// tick). Offsets are 32-bit, like the adjacency arena's.
class TriangleIndex {
 public:
  /// `slot`'s list; valid until the next Set or Compact.
  std::span<const TriangleEntry> List(SlotId slot) const {
    const ListRef& ref = lists_[slot];
    return {pool_.data() + ref.offset, ref.size};
  }

  /// Reserves room for the lists of slots [0, max_slots).
  void Reserve(size_t max_slots) { lists_.reserve(max_slots); }

  /// Makes room for the lists of slots [0, num_slots).
  void Resize(size_t num_slots) { lists_.resize(num_slots); }

  /// Replaces `slot`'s list (empty: its record left the union).
  void Set(SlotId slot, std::span<const TriangleEntry> list) {
    ListRef& ref = lists_[slot];
    live_ = live_ - ref.size + list.size();
    if (list.size() > ref.size) {
      assert(pool_.size() + list.size() <= UINT32_MAX);
      ref.offset = static_cast<uint32_t>(pool_.size());
      pool_.insert(pool_.end(), list.begin(), list.end());
    } else {
      std::copy(list.begin(), list.end(), pool_.begin() + ref.offset);
    }
    ref.size = static_cast<uint32_t>(list.size());
  }

  /// Drops the dead entries once they outnumber the live ones.
  void Compact() {
    if (pool_.size() <= 2 * live_ + 4096) return;
    std::vector<TriangleEntry> pool;
    pool.reserve(live_);
    for (ListRef& ref : lists_) {
      const uint32_t offset = static_cast<uint32_t>(pool.size());
      pool.insert(pool.end(), pool_.begin() + ref.offset,
                  pool_.begin() + ref.offset + ref.size);
      ref.offset = offset;
    }
    pool_ = std::move(pool);
  }

 private:
  struct ListRef {
    uint32_t offset = 0;
    uint32_t size = 0;
  };
  std::vector<TriangleEntry> pool_;
  std::vector<ListRef> lists_;  // by union slot
  size_t live_ = 0;             // pool entries some list holds
};

// The union as the Algorithm-2 kernel's record set (core/algorithm2.h):
// per-shard inclusion probabilities, per-record strata, and the triangles
// from the index.
class UnionRecords {
 public:
  UnionRecords(const SampledGraph& graph,
               const std::vector<UnionRecord>& records,
               const TriangleIndex& triangles)
      : graph_(graph), records_(records), triangles_(triangles) {}

  const SampledGraph& graph() const { return graph_; }
  size_t slot_bound() const { return records_.size(); }
  Edge edge(SlotId slot) const { return records_[slot].edge; }
  double inv_q(SlotId slot) const { return records_[slot].inv_q; }
  uint64_t stratum(SlotId slot) const { return records_[slot].stratum; }
  void Prefetch(SlotId slot) const { __builtin_prefetch(&records_[slot]); }

  /// IntersectTriangles' sequence, read from the index: the list is in
  /// ascending w with (u, w)'s slot first, so the pair swaps when v has
  /// the smaller block.
  template <typename Fn>
  void ForEachTriangle(SlotId slot, const Edge& edge, Fn&& fn) const {
    const std::span<const TriangleEntry> list = triangles_.List(slot);
    if (list.empty()) return;
    if (graph_.Degree(edge.u) > graph_.Degree(edge.v)) {
      for (const TriangleEntry& t : list) fn(t.slot_v, t.slot_u);
    } else {
      for (const TriangleEntry& t : list) fn(t.slot_u, t.slot_v);
    }
  }

 private:
  const SampledGraph& graph_;
  const std::vector<UnionRecord>& records_;
  const TriangleIndex& triangles_;
};

std::vector<ShardSampleRef> PlainRefs(
    std::span<const GpsReservoir* const> shards) {
  std::vector<ShardSampleRef> refs;
  refs.reserve(shards.size());
  for (const GpsReservoir* r : shards) refs.push_back({r, {}});
  return refs;
}

unsigned PassThreads(unsigned num_threads) {
  return num_threads != 0 ? num_threads : MergeThreads();
}

/// The motif cross-shard pass over an up-to-date union, in its record
/// order.
std::vector<MotifAccumulator> CrossShardMotifs(
    const SampledGraph& graph, const std::vector<UnionRecord>& records,
    std::span<const SlotId> order, std::span<const std::string> motif_names) {
  std::vector<MotifAccumulator> out(motif_names.size());
  for (size_t m = 0; m < motif_names.size(); ++m) {
    const MotifEntry* entry = FindMotif(motif_names[m]);
    assert(entry != nullptr && "unvalidated motif name");
    MotifAccumulator raw;
    for (const SlotId slot : order) {
      const UnionRecord& rec = records[slot];
      // Treat each union-sampled edge as the enumerator's "arriving" edge:
      // the streaming enumerators report instances containing it without
      // ever listing it among the members, so each instance is enumerated
      // once per member edge — hence the num_edges division below.
      const Emitter emit = [&](std::span<const Edge> members) {
        double product = rec.inv_q;
        bool spans = false;
        for (const Edge& member : members) {
          const SlotId member_slot = graph.FindEdge(member.Canonical());
          if (member_slot == kNoSlot) return;
          product *= records[member_slot].inv_q;
          spans |= records[member_slot].stratum != rec.stratum;
        }
        // Within-shard instances belong to the in-stream stratum.
        if (!spans) return;
        raw.count += product;
        raw.variance += product * (product - 1.0);
        ++raw.snapshots;
      };
      entry->enumerate(rec.edge, graph, emit);
    }
    out[m].count = raw.count / entry->num_edges;
    out[m].variance = raw.variance / entry->num_edges;
    out[m].snapshots = raw.snapshots / entry->num_edges;
  }
  return out;
}

/// Union-slot state within one Update.
enum class SlotState : uint8_t {
  kLive,    // an indexed record whose list is current
  kFree,    // on the free list
  kAdded,   // admitted by this Update; its list is computed fresh
  kQueued,  // live, its list queued for recomputation
};

/// Union records per chunk of a list recomputation.
constexpr size_t kListChunk = 256;

}  // namespace

// The union of the shard reservoirs, indexed like a reservoir: a sampled
// adjacency whose payloads index the record array. Edge-hash sharding
// keeps shard samples edge-disjoint, so AddEdge never collides.
struct UnionSample::Impl {
  SampledGraph graph;
  std::vector<UnionRecord> records;  // by union slot
  std::vector<SlotState> state;      // by union slot
  std::vector<SlotId> free_slots;    // union slots of removed records
  // Per shard: reservoir slot -> union slot of the edge that reservoir
  // slot held at the last update, or kNoSlot.
  std::vector<std::vector<SlotId>> union_slot;
  // The live union slots, shard by shard in reservoir heap order: the
  // resume-stable record order every pass reads.
  std::vector<SlotId> order;
  TriangleIndex triangles;
  // Reused by every pass; the passes take the union by const reference.
  algorithm2::PassBuffers pass_buffers;

  // Update's working sets: the union slots admitted by the current
  // call, and those whose lists it recomputes.
  std::vector<SlotId> added;
  std::vector<SlotId> queued;

  /// Queues a live record's list for recomputation, once.
  void Queue(SlotId slot) {
    if (state[slot] != SlotState::kLive) return;
    state[slot] = SlotState::kQueued;
    queued.push_back(slot);
  }

  /// Recomputes the triangle lists of `slots` — one intersection each, on
  /// `threads` threads — and installs them chunk by chunk under a lock,
  /// so no more than a chunk per thread is ever held twice. With
  /// `queue_partners` the other two records of every new triangle are
  /// queued (as a set: the queue's order may vary, its members do not).
  void RecomputeLists(std::span<const SlotId> slots, unsigned threads,
                      bool queue_partners);
};

void UnionSample::Impl::RecomputeLists(std::span<const SlotId> slots,
                                       unsigned threads,
                                       bool queue_partners) {
  const size_t chunks = NumChunks(slots.size(), kListChunk);
  std::vector<std::vector<TriangleEntry>> scratch(
      ChunkWorkers(chunks, threads));
  // Guards the index, `state` and `queued` while the chunks install.
  std::mutex install_mu;
  ForEachChunk(chunks, threads, [&](size_t chunk, unsigned worker) {
    std::vector<TriangleEntry>& lists = scratch[worker];
    lists.clear();
    uint32_t sizes[kListChunk] = {};
    const size_t begin = chunk * kListChunk;
    const size_t end = std::min(slots.size(), begin + kListChunk);
    for (size_t i = begin; i < end; ++i) {
      const Edge edge = records[slots[i]].edge;
      const std::span<const AdjEntry> a = graph.Neighbors(edge.u);
      const std::span<const AdjEntry> b = graph.Neighbors(edge.v);
      const size_t before = lists.size();
      IntersectSorted(a.data(), a.size(), b.data(), b.size(),
                      /*metrics=*/nullptr,
                      [&](NodeId w, SlotId slot_u, SlotId slot_v) {
                        lists.push_back({w, slot_u, slot_v});
                      });
      sizes[i - begin] = static_cast<uint32_t>(lists.size() - before);
    }
    // Which chunk installs first moves pool offsets only, never a list.
    const std::lock_guard<std::mutex> lock(install_mu);
    const TriangleEntry* next = lists.data();
    for (size_t i = begin; i < end; ++i) {
      const std::span<const TriangleEntry> list(next, sizes[i - begin]);
      triangles.Set(slots[i], list);
      if (queue_partners) {
        for (const TriangleEntry& t : list) {
          Queue(t.slot_u);
          Queue(t.slot_v);
        }
      }
      next += list.size();
    }
  });
}

unsigned MergeThreads() { return UsableCpus(); }

UnionSample::UnionSample() : impl_(std::make_unique<Impl>()) {}
UnionSample::~UnionSample() = default;
UnionSample::UnionSample(UnionSample&&) noexcept = default;
UnionSample& UnionSample::operator=(UnionSample&&) noexcept = default;

size_t UnionSample::num_edges() const {
  return impl_ ? impl_->order.size() : 0;
}

void UnionSample::Update(std::span<const ShardSampleRef> shards) {
  num_shards_ = shards.size();
  if (shards.size() < 2) return;
  if (!impl_ || impl_->union_slot.size() != shards.size()) {
    impl_ = std::make_unique<Impl>();
    impl_->union_slot.resize(shards.size());
  }
  Impl& u = *impl_;
  const unsigned threads = MergeThreads();
  const size_t k = shards.size();

  // The shards' capacities bound the live records, and so the union
  // slots: a removed record's slot is reused before a new one is made.
  // Reserving that bound keeps the per-slot arrays from reallocating — and
  // holding two copies — each time the union grows; reserved pages cost
  // nothing until used. The kept partner sums join once a pass has sized
  // them: a fresh union's first pass allocates them exactly, where the
  // build's freed memory can serve it.
  std::vector<size_t> begin(k + 1, 0);  // each shard's run of the order
  size_t max_slots = 0;
  for (size_t s = 0; s < k; ++s) {
    begin[s + 1] = begin[s] + shards[s].reservoir->size();
    max_slots += shards[s].reservoir->capacity();
  }
  u.records.reserve(max_slots);
  u.state.reserve(max_slots);
  u.order.reserve(max_slots);
  u.triangles.Reserve(max_slots);
  if (!u.pass_buffers.partners.empty()) {
    u.pass_buffers.partners.reserve(max_slots);
  }

  // Per shard, on the merge threads: the reservoir slots whose record
  // leaves — the slot was freed or now holds another edge.
  std::vector<std::vector<SlotId>> evicted(k);
  ForEachChunk(k, threads, [&](size_t s, unsigned) {
    const PackedSampleStore& store = shards[s].reservoir->store();
    const std::vector<SlotId>& column = u.union_slot[s];
    for (SlotId slot = 0; slot < column.size(); ++slot) {
      const SlotId held = column[slot];
      if (held == kNoSlot) continue;
      if (slot < store.num_slots() && store.live(slot) &&
          store.edge(slot) == u.records[held].edge) {
        continue;
      }
      evicted[s].push_back(slot);
    }
  });

  // Graph and index edits, on this thread. Evictions first, over every
  // shard, so no edge is re-added while a stale copy is still indexed. A
  // removed record's triangles lose an edge, so the other two records of
  // each are queued for a new list.
  u.queued.clear();
  for (size_t s = 0; s < k; ++s) {
    std::vector<SlotId>& column = u.union_slot[s];
    for (const SlotId slot : evicted[s]) {
      const SlotId held = column[slot];
      for (const TriangleEntry& t : u.triangles.List(held)) {
        u.Queue(t.slot_u);
        u.Queue(t.slot_v);
      }
      u.triangles.Set(held, {});
      u.graph.RemoveEdge(u.records[held].edge);
      u.state[held] = SlotState::kFree;
      u.free_slots.push_back(held);
      column[slot] = kNoSlot;
    }
    column.resize(shards[s].reservoir->store().num_slots(), kNoSlot);
  }
  // Admissions: every sampled slot without a record, in heap order.
  u.added.clear();
  // Exactly: the sampled slots less the records still live.
  u.added.reserve(begin[k] - (u.records.size() - u.free_slots.size()));
  for (size_t s = 0; s < k; ++s) {
    const GpsReservoir& reservoir = *shards[s].reservoir;
    std::vector<SlotId>& column = u.union_slot[s];
    reservoir.ForEachSlot([&](SlotId slot) {
      if (column[slot] != kNoSlot) return;
      SlotId held;
      if (u.free_slots.empty()) {
        held = static_cast<SlotId>(u.records.size());
        u.records.emplace_back();
        u.state.push_back(SlotState::kFree);
      } else {
        held = u.free_slots.back();
        u.free_slots.pop_back();
      }
      u.records[held].edge = reservoir.store().edge(slot);
      const bool added = u.graph.AddEdge(u.records[held].edge, held);
      assert(added && "shard samples must be edge-disjoint");
      (void)added;
      u.state[held] = SlotState::kAdded;
      column[slot] = held;
      u.added.push_back(held);
    });
  }

  u.triangles.Resize(u.records.size());

  // Every live record's inclusion probability (its shard's z* moves) and
  // stratum, and the record order the passes read: per shard, on the
  // merge threads.
  u.order.resize(begin[k]);
  ForEachChunk(k, threads, [&](size_t s, unsigned) {
    const GpsReservoir& reservoir = *shards[s].reservoir;
    const std::span<const uint32_t> strata = shards[s].slot_strata;
    const uint64_t shard_bits = static_cast<uint64_t>(s) << 32;
    const std::vector<SlotId>& column = u.union_slot[s];
    SlotId* out = u.order.data() + begin[s];
    reservoir.ForEachSlot([&](SlotId slot) {
      UnionRecord& rec = u.records[column[slot]];
      rec.inv_q = 1.0 / reservoir.Probability(slot);
      rec.stratum = shard_bits | (slot < strata.size() ? strata[slot] : 0u);
      *out++ = column[slot];
    });
  });

  // The triangle lists: the added records', then those of every live
  // record a changed triangle holds — the triangle gained or lost an edge
  // other than the record's own. Every other list is still current: its
  // triangles kept all three edges, and a live record keeps its union
  // slot. A record queued by an eviction may have left since, or come
  // back as an added one; only those still queued are recomputed.
  u.RecomputeLists(u.added, threads, /*queue_partners=*/true);
  std::erase_if(u.queued, [&](SlotId slot) {
    return u.state[slot] != SlotState::kQueued;
  });
  u.RecomputeLists(u.queued, threads, /*queue_partners=*/false);
  for (const SlotId slot : u.added) u.state[slot] = SlotState::kLive;
  for (const SlotId slot : u.queued) u.state[slot] = SlotState::kLive;
  u.triangles.Compact();
  u.added = {};  // a fresh build's sets are as large as the union
  u.queued = {};
}

UnionSample BuildUnionSample(std::span<const ShardSampleRef> shards) {
  UnionSample sample;
  sample.Update(shards);
  return sample;
}

UnionSample BuildUnionSample(std::span<const GpsReservoir* const> shards) {
  return BuildUnionSample(std::span<const ShardSampleRef>(PlainRefs(shards)));
}

GraphEstimates EstimateCrossShard(const UnionSample& sample,
                                  unsigned num_threads) {
  if (sample.num_shards() < 2) return {};
  UnionSample::Impl& u = *sample.impl_;
  return algorithm2::Estimate</*SpanOnly=*/true>(
      UnionRecords(u.graph, u.records, u.triangles), u.order,
      PassThreads(num_threads), &u.pass_buffers);
}

GraphEstimates EstimateMergedPostStream(const UnionSample& sample,
                                        unsigned num_threads) {
  assert(sample.num_shards() >= 2 &&
         "a lone shard's post-stream estimate is EstimatePostStream");
  if (sample.num_shards() < 2) return {};
  UnionSample::Impl& u = *sample.impl_;
  return algorithm2::Estimate</*SpanOnly=*/false>(
      UnionRecords(u.graph, u.records, u.triangles), u.order,
      PassThreads(num_threads), &u.pass_buffers);
}

std::vector<MotifAccumulator> EstimateCrossShardMotifs(
    const UnionSample& sample, std::span<const std::string> motif_names) {
  if (sample.num_shards() < 2) {
    return std::vector<MotifAccumulator>(motif_names.size());
  }
  const UnionSample::Impl& u = *sample.impl_;
  return CrossShardMotifs(u.graph, u.records, u.order, motif_names);
}

GraphEstimates SumShardEstimates(std::span<const GraphEstimates> shards) {
  GraphEstimates total;
  for (const GraphEstimates& e : shards) total = AddEstimates(total, e);
  return total;
}

GraphEstimates EstimateCrossShard(
    std::span<const GpsReservoir* const> shards) {
  return EstimateCrossShard(BuildUnionSample(shards));
}

GraphEstimates EstimateMergedPostStream(
    std::span<const GpsReservoir* const> shards) {
  if (shards.empty()) return {};
  if (shards.size() == 1) return EstimatePostStream(*shards[0]);
  return EstimateMergedPostStream(BuildUnionSample(shards));
}

GraphEstimates AddEstimates(const GraphEstimates& a,
                            const GraphEstimates& b) {
  GraphEstimates out;
  out.triangles.value = a.triangles.value + b.triangles.value;
  out.triangles.variance = a.triangles.variance + b.triangles.variance;
  out.wedges.value = a.wedges.value + b.wedges.value;
  out.wedges.variance = a.wedges.variance + b.wedges.variance;
  out.tri_wedge_cov = a.tri_wedge_cov + b.tri_wedge_cov;
  return out;
}

std::vector<MotifAccumulator> SumShardMotifAccumulators(
    std::span<const std::vector<MotifAccumulator>> shards) {
  std::vector<MotifAccumulator> total;
  for (const std::vector<MotifAccumulator>& shard : shards) {
    if (total.empty()) total.resize(shard.size());
    assert(shard.size() == total.size() &&
           "shards carry mismatched motif suites");
    for (size_t m = 0; m < shard.size(); ++m) {
      total[m].count += shard[m].count;
      total[m].variance += shard[m].variance;
      total[m].snapshots += shard[m].snapshots;
    }
  }
  return total;
}

std::vector<MotifEstimate> MakeMotifEstimates(
    std::span<const std::string> motif_names,
    std::span<const MotifAccumulator> within,
    std::span<const MotifAccumulator> cross) {
  assert(within.size() == motif_names.size());
  assert(cross.size() == motif_names.size());
  std::vector<MotifEstimate> out;
  out.reserve(motif_names.size());
  for (size_t m = 0; m < motif_names.size(); ++m) {
    MotifEstimate est;
    est.name = motif_names[m];
    est.estimate.value = within[m].count + cross[m].count;
    est.estimate.variance = within[m].variance + cross[m].variance;
    if (est.estimate.variance < 0.0) est.estimate.variance = 0.0;
    est.snapshots = within[m].snapshots + cross[m].snapshots;
    out.push_back(std::move(est));
  }
  return out;
}

double EstimateMergedEdgeCount(
    std::span<const GpsReservoir* const> shards) {
  double total = 0.0;
  for (const GpsReservoir* reservoir : shards) {
    total += EstimateEdgeCount(*reservoir);
  }
  return total;
}

double EstimateMergedDegree(std::span<const GpsReservoir* const> shards,
                            NodeId v) {
  double total = 0.0;
  for (const GpsReservoir* reservoir : shards) {
    total += EstimateDegree(*reservoir, v);
  }
  return total;
}

}  // namespace gps
