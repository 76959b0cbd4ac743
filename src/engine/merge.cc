#include "engine/merge.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/algorithm2.h"
#include "core/local_counts.h"
#include "core/post_stream.h"
#include "graph/sampled_graph.h"
#include "graph/types.h"

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

// The union as the Algorithm-2 kernel's record set (core/algorithm2.h):
// per-shard inclusion probabilities and per-record strata.
class UnionRecords {
 public:
  UnionRecords(const SampledGraph& graph,
               const std::vector<UnionRecord>& records)
      : graph_(graph), records_(records) {}

  const SampledGraph& graph() const { return graph_; }
  size_t slot_bound() const { return records_.size(); }
  Edge edge(SlotId slot) const { return records_[slot].edge; }
  double inv_q(SlotId slot) const { return records_[slot].inv_q; }
  uint64_t stratum(SlotId slot) const { return records_[slot].stratum; }

 private:
  const SampledGraph& graph_;
  const std::vector<UnionRecord>& records_;
};

std::vector<ShardSampleRef> PlainRefs(
    std::span<const GpsReservoir* const> shards) {
  std::vector<ShardSampleRef> refs;
  refs.reserve(shards.size());
  for (const GpsReservoir* r : shards) refs.push_back({r, {}});
  return refs;
}

unsigned PassThreads(const UnionSample& sample, unsigned num_threads) {
  return num_threads != 0 ? num_threads : MergeThreads(sample.num_shards());
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
    const InStreamMotifCounter::EnumerateFn enumerate =
        entry->make_enumerator();
    MotifAccumulator raw;
    for (const SlotId slot : order) {
      const UnionRecord& rec = records[slot];
      // Treat each union-sampled edge as the enumerator's "arriving" edge:
      // the streaming enumerators report instances containing it without
      // ever listing it among the members, so each instance is enumerated
      // once per member edge — hence the num_edges division below.
      const InStreamMotifCounter::Emitter emit =
          [&](std::span<const Edge> members) {
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
      enumerate(rec.edge, graph, emit);
    }
    out[m].count = raw.count / entry->num_edges;
    out[m].variance = raw.variance / entry->num_edges;
    out[m].snapshots = raw.snapshots / entry->num_edges;
  }
  return out;
}

}  // namespace

// The union of the shard reservoirs, indexed like a reservoir: a sampled
// adjacency whose payloads index the record array. Edge-hash sharding
// keeps shard samples edge-disjoint, so AddEdge never collides.
struct UnionSample::Impl {
  SampledGraph graph;
  std::vector<UnionRecord> records;  // by union slot
  std::vector<SlotId> free_slots;    // union slots of removed records
  // Per shard: reservoir slot -> union slot of the edge that reservoir
  // slot held at the last update, or kNoSlot.
  std::vector<std::vector<SlotId>> union_slot;
  // The live union slots, shard by shard in reservoir heap order: the
  // resume-stable record order every pass reads.
  std::vector<SlotId> order;
};

unsigned MergeThreads(size_t num_shards) {
  const size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::max<size_t>(1, std::min(num_shards, hardware)));
}

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

  // Evictions first, over every shard, so no edge is re-added while a
  // stale copy is still indexed. A record goes when its reservoir slot was
  // freed or now holds another edge.
  for (size_t s = 0; s < shards.size(); ++s) {
    const PackedSampleStore& store = shards[s].reservoir->store();
    std::vector<SlotId>& column = u.union_slot[s];
    for (SlotId slot = 0; slot < column.size(); ++slot) {
      const SlotId held = column[slot];
      if (held == kNoSlot) continue;
      if (slot < store.num_slots() && store.live(slot) &&
          store.edge(slot) == u.records[held].edge) {
        continue;
      }
      u.graph.RemoveEdge(u.records[held].edge);
      u.free_slots.push_back(held);
      column[slot] = kNoSlot;
    }
    column.resize(store.num_slots(), kNoSlot);
  }

  // Admissions, then every live record's inclusion probability (its
  // shard's z* moves) and stratum, in the record order the passes read.
  size_t total = 0;
  for (const ShardSampleRef& ref : shards) total += ref.reservoir->size();
  u.records.reserve(total);
  u.order.clear();
  u.order.reserve(total);
  for (size_t s = 0; s < shards.size(); ++s) {
    const GpsReservoir& reservoir = *shards[s].reservoir;
    const std::span<const uint32_t> strata = shards[s].slot_strata;
    const uint64_t shard_bits = static_cast<uint64_t>(s) << 32;
    std::vector<SlotId>& column = u.union_slot[s];
    reservoir.ForEachSlot([&](SlotId slot) {
      SlotId& held = column[slot];
      if (held == kNoSlot) {
        if (u.free_slots.empty()) {
          held = static_cast<SlotId>(u.records.size());
          u.records.emplace_back();
        } else {
          held = u.free_slots.back();
          u.free_slots.pop_back();
        }
        u.records[held].edge = reservoir.store().edge(slot);
        const bool added = u.graph.AddEdge(u.records[held].edge, held);
        assert(added && "shard samples must be edge-disjoint");
        (void)added;
      }
      UnionRecord& rec = u.records[held];
      rec.inv_q = 1.0 / reservoir.Probability(slot);
      rec.stratum = shard_bits | (slot < strata.size() ? strata[slot] : 0u);
      u.order.push_back(held);
    });
  }
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
  const UnionSample::Impl& u = *sample.impl_;
  return algorithm2::Estimate</*SpanOnly=*/true>(
      UnionRecords(u.graph, u.records), u.order,
      PassThreads(sample, num_threads));
}

GraphEstimates EstimateMergedPostStream(const UnionSample& sample,
                                        unsigned num_threads) {
  assert(sample.num_shards() >= 2 &&
         "a lone shard's post-stream estimate is EstimatePostStream");
  if (sample.num_shards() < 2) return {};
  const UnionSample::Impl& u = *sample.impl_;
  return algorithm2::Estimate</*SpanOnly=*/false>(
      UnionRecords(u.graph, u.records), u.order,
      PassThreads(sample, num_threads));
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

std::vector<MotifAccumulator> EstimateCrossShardMotifs(
    std::span<const GpsReservoir* const> shards,
    std::span<const std::string> motif_names) {
  if (shards.size() < 2 || motif_names.empty()) {
    return std::vector<MotifAccumulator>(motif_names.size());
  }
  return EstimateCrossShardMotifs(BuildUnionSample(shards), motif_names);
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
