// Contracts of the one Algorithm-2 kernel (core/algorithm2.h, reached
// through core/post_stream.h and engine/merge.h) and of the engine's union
// index:
//
//   * the kernel agrees with a brute-force reference that enumerates every
//     sampled triangle and wedge and every pair of them, on ER, BA and
//     Chung–Lu samples — the serial reservoir (one stratum) and span-only
//     unions of K in {2, 4} shards, with and without per-slot sub-strata;
//   * its output is bit-identical for every thread count;
//   * the union the engine patches across monitor ticks gives the same
//     bits as a fresh BuildUnionSample at every tick — at K in {2, 3, 4,
//     8}, under heavy churn, with motifs, and after ResumeFromCheckpoints;
//   * the partner pass, which walks the node table by position, gives the
//     same bits over a table full of tombstones as over a compact one;
//   * estimating never moves the arrival-path intersection counters.
//
// The suite runs under ASan and TSan in CI (engine_ suites): the merge
// passes run on several threads inside monitor ticks.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/gps.h"
#include "core/in_stream.h"
#include "core/post_stream.h"
#include "core/seeding.h"
#include "engine/merge.h"
#include "engine/sharded_engine.h"
#include "engine_test_util.h"
#include "gen/generators.h"
#include "graph/stream.h"
#include "util/metrics.h"

namespace gps {
namespace {

using engine_test::ExpectExactlyEqual;
using engine_test::ExpectMotifsExactlyEqual;
using engine_test::FeedCutAt;
using engine_test::ManifestPath;
using engine_test::ScopedTempDir;

// ---- Brute-force reference ------------------------------------------------

/// One sampled edge as the reference sees it.
struct RefEdge {
  Edge edge;
  double inv_q = 1.0;
  uint64_t stratum = 0;
};

/// A sampled subgraph: its member edges (sorted indices into the edge
/// list) and its Horvitz–Thompson estimate Ŝ = Π 1/q.
struct RefSubgraph {
  std::vector<size_t> members;
  double est = 1.0;
};

/// Σ over pairs (a, b) in as × bs sharing at least one edge of
/// Ŝ_{a∪b} (Ŝ_{a∩b} − 1): the variance estimate of a subgraph count when
/// as == bs (a == b gives the Ŝ(Ŝ − 1) terms), and the triangle-wedge
/// covariance of paper Eq. 12 for triangles × wedges.
double PairSum(const std::vector<RefSubgraph>& as,
               const std::vector<RefSubgraph>& bs,
               const std::vector<RefEdge>& edges) {
  std::vector<std::vector<size_t>> containing(edges.size());
  for (size_t j = 0; j < bs.size(); ++j) {
    for (const size_t e : bs[j].members) containing[e].push_back(j);
  }
  double total = 0.0;
  for (const RefSubgraph& a : as) {
    std::vector<size_t> partners;
    for (const size_t e : a.members) {
      partners.insert(partners.end(), containing[e].begin(),
                      containing[e].end());
    }
    std::sort(partners.begin(), partners.end());
    partners.erase(std::unique(partners.begin(), partners.end()),
                   partners.end());
    for (const size_t j : partners) {
      const std::vector<size_t>& b = bs[j].members;
      std::vector<size_t> both, shared;
      std::set_union(a.members.begin(), a.members.end(), b.begin(), b.end(),
                     std::back_inserter(both));
      std::set_intersection(a.members.begin(), a.members.end(), b.begin(),
                            b.end(), std::back_inserter(shared));
      double union_est = 1.0, shared_est = 1.0;
      for (const size_t e : both) union_est *= edges[e].inv_q;
      for (const size_t e : shared) shared_est *= edges[e].inv_q;
      total += union_est * (shared_est - 1.0);
    }
  }
  return total;
}

/// Algorithm 2 by explicit enumeration of subgraphs and subgraph pairs.
/// With span_only a subgraph counts only when its edges lie in >= 2
/// strata.
GraphEstimates BruteForceAlgorithm2(const std::vector<RefEdge>& edges,
                                    bool span_only) {
  std::map<std::pair<NodeId, NodeId>, size_t> index;
  std::map<NodeId, std::vector<NodeId>> adjacency;
  for (size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i].edge;
    index[{e.u, e.v}] = i;
    adjacency[e.u].push_back(e.v);
    adjacency[e.v].push_back(e.u);
  }
  const auto id = [&](NodeId a, NodeId b) {
    const Edge e = MakeEdge(a, b);
    return index.at({e.u, e.v});
  };
  std::vector<RefSubgraph> triangles, wedges;
  const auto add = [&](std::vector<size_t> members,
                       std::vector<RefSubgraph>* out) {
    std::sort(members.begin(), members.end());
    RefSubgraph sub;
    bool spans = false;
    for (const size_t e : members) {
      sub.est *= edges[e].inv_q;
      spans |= edges[e].stratum != edges[members[0]].stratum;
    }
    if (span_only && !spans) return;
    sub.members = std::move(members);
    out->push_back(std::move(sub));
  };
  for (auto& [center, nbrs] : adjacency) {
    std::sort(nbrs.begin(), nbrs.end());
    for (size_t i = 0; i < nbrs.size(); ++i) {
      for (size_t j = i + 1; j < nbrs.size(); ++j) {
        add({id(center, nbrs[i]), id(center, nbrs[j])}, &wedges);
        // Each triangle once, from its smallest node.
        if (center < nbrs[i] && index.count({nbrs[i], nbrs[j]}) != 0) {
          add({id(center, nbrs[i]), id(center, nbrs[j]),
               id(nbrs[i], nbrs[j])},
              &triangles);
        }
      }
    }
  }
  GraphEstimates out;
  for (const RefSubgraph& t : triangles) out.triangles.value += t.est;
  for (const RefSubgraph& w : wedges) out.wedges.value += w.est;
  out.triangles.variance = PairSum(triangles, triangles, edges);
  out.wedges.variance = PairSum(wedges, wedges, edges);
  out.tri_wedge_cov = PairSum(triangles, wedges, edges);
  return out;
}

/// Appends the reference's view of a reservoir: every sampled edge with
/// its own inclusion probability and stratum shard_bits | sub_strata[slot].
void AppendRefEdges(const GpsReservoir& reservoir, uint64_t shard_bits,
                    std::span<const uint32_t> sub_strata,
                    std::vector<RefEdge>* out) {
  reservoir.ForEachEdge(
      [&](SlotId slot, const GpsReservoir::EdgeRecord& rec) {
        out->push_back(
            {rec.edge, 1.0 / reservoir.Probability(slot),
             shard_bits |
                 (slot < sub_strata.size() ? sub_strata[slot] : 0u)});
      });
}

void ExpectNearReference(const GraphEstimates& got,
                         const GraphEstimates& want,
                         const std::string& what) {
  const auto near = [&](double a, double b, const char* field) {
    EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::abs(b)))
        << what << ": " << field;
  };
  near(got.triangles.value, want.triangles.value, "triangles");
  near(got.triangles.variance, want.triangles.variance, "triangle variance");
  near(got.wedges.value, want.wedges.value, "wedges");
  near(got.wedges.variance, want.wedges.variance, "wedge variance");
  near(got.tri_wedge_cov, want.tri_wedge_cov, "triangle-wedge covariance");
}

struct GraphCase {
  const char* name;
  EdgeList (*make)();
};

const GraphCase kGraphs[] = {
    {"erdos_renyi", [] { return GenerateErdosRenyi(70, 360, 11).value(); }},
    {"barabasi_albert",
     [] { return GenerateBarabasiAlbert(120, 4, 0.5, 12).value(); }},
    {"chung_lu", [] { return GenerateChungLu(150, 500, 2.2, 13).value(); }},
};

/// K edge-disjoint shard samples of `stream` — the engine's edge-hash
/// partition and seed derivation — of `capacity` edges each.
std::vector<GpsSampler> ShardSamples(const std::vector<Edge>& stream,
                                     uint32_t k, size_t capacity,
                                     uint64_t seed) {
  std::vector<GpsSampler> shards;
  shards.reserve(k);
  for (uint32_t s = 0; s < k; ++s) {
    GpsSamplerOptions options;
    options.capacity = capacity;
    options.seed = DeriveShardSeed(seed, s, k);
    shards.emplace_back(options);
  }
  for (const Edge& e : stream) {
    shards[ShardedEngine::ShardOfEdge(e, k)].Process(e);
  }
  return shards;
}

std::vector<const GpsReservoir*> Reservoirs(
    const std::vector<GpsSampler>& shards) {
  std::vector<const GpsReservoir*> out;
  for (const GpsSampler& shard : shards) out.push_back(&shard.reservoir());
  return out;
}

TEST(Algorithm2ReferenceTest, OneStratumMatchesBruteForce) {
  for (const GraphCase& g : kGraphs) {
    const std::vector<Edge> stream = MakePermutedStream(g.make(), 21);
    GpsSamplerOptions options;
    options.capacity = stream.size() * 3 / 5;
    options.seed = 22;
    GpsSampler sampler(options);
    for (const Edge& e : stream) sampler.Process(e);
    ASSERT_GT(sampler.reservoir().threshold(), 0.0) << g.name;  // q < 1

    std::vector<RefEdge> ref;
    AppendRefEdges(sampler.reservoir(), 0, {}, &ref);
    const GraphEstimates want = BruteForceAlgorithm2(ref, false);
    EXPECT_GT(want.triangles.value, 0.0) << g.name;
    ExpectNearReference(EstimatePostStream(sampler.reservoir()), want,
                        g.name);
  }
}

TEST(Algorithm2ReferenceTest, SpanOnlyUnionMatchesBruteForce) {
  for (const GraphCase& g : kGraphs) {
    const std::vector<Edge> stream = MakePermutedStream(g.make(), 31);
    for (const uint32_t k : {2u, 4u}) {
      const std::string what =
          std::string(g.name) + " K=" + std::to_string(k);
      const std::vector<GpsSampler> shards =
          ShardSamples(stream, k, stream.size() * 3 / (5 * k), 32);
      std::vector<RefEdge> ref;
      for (uint32_t s = 0; s < k; ++s) {
        AppendRefEdges(shards[s].reservoir(), uint64_t{s} << 32, {}, &ref);
      }
      const std::vector<const GpsReservoir*> reservoirs = Reservoirs(shards);
      const GraphEstimates cross = BruteForceAlgorithm2(ref, true);
      EXPECT_GT(cross.triangles.value, 0.0) << what;
      ExpectNearReference(EstimateCrossShard(reservoirs), cross,
                          what + " cross-shard");
      ExpectNearReference(EstimateMergedPostStream(reservoirs),
                          BruteForceAlgorithm2(ref, false),
                          what + " merged post-stream");
    }
  }
}

TEST(Algorithm2ReferenceTest, BatchSubStrataMatchBruteForce) {
  // A per-slot sub-stratum table (ShardSampleRef) splits a shard: instances
  // spanning two sub-strata of ONE shard belong to the cross pass as well.
  const std::vector<Edge> stream = MakePermutedStream(kGraphs[1].make(), 41);
  const std::vector<GpsSampler> shards =
      ShardSamples(stream, 2, stream.size() / 3, 42);
  std::vector<std::vector<uint32_t>> batches(shards.size());
  std::vector<ShardSampleRef> refs;
  std::vector<RefEdge> ref;
  for (uint32_t s = 0; s < shards.size(); ++s) {
    const GpsReservoir& reservoir = shards[s].reservoir();
    for (SlotId slot = 0; slot < reservoir.store().num_slots(); ++slot) {
      batches[s].push_back(slot % 3);
    }
    refs.push_back({&reservoir, batches[s]});
    AppendRefEdges(reservoir, uint64_t{s} << 32, batches[s], &ref);
  }
  ExpectNearReference(EstimateCrossShard(BuildUnionSample(refs)),
                      BruteForceAlgorithm2(ref, true), "batch sub-strata");
}

// ---- Thread-count invariance -----------------------------------------------

TEST(Algorithm2ThreadsTest, UnionPassesBitIdenticalForAnyThreadCount) {
  const std::vector<Edge> stream = MakePermutedStream(
      GenerateBarabasiAlbert(1500, 6, 0.6, 51).value(), 52);
  const std::vector<GpsSampler> shards = ShardSamples(stream, 4, 1000, 53);
  const UnionSample sample = BuildUnionSample(Reservoirs(shards));
  ASSERT_EQ(sample.num_edges(), 4000u);  // 16 fixed-size chunks
  const GraphEstimates cross = EstimateCrossShard(sample, 1);
  const GraphEstimates post = EstimateMergedPostStream(sample, 1);
  for (const unsigned threads : {2u, 4u, 8u, 16u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectExactlyEqual(EstimateCrossShard(sample, threads), cross);
    ExpectExactlyEqual(EstimateMergedPostStream(sample, threads), post);
  }
  ExpectExactlyEqual(EstimateCrossShard(sample), cross);
}

// ---- Intersection counters -------------------------------------------------

/// Every intersection counter of a reservoir's sampled graph, summed.
uint64_t IntersectCount(const GpsReservoir& reservoir) {
  const IntersectMetrics& m = *reservoir.graph().intersect_metrics();
  return m.merge_calls.Value() + m.gallop_calls.Value() +
         m.simd_calls.Value() + m.comparisons_saved.Value();
}

TEST(Algorithm2CountersTest, EstimationLeavesIntersectCountersUnchanged) {
  // graph.intersect.* count the arrival path's intersections; the kernel
  // intersects without metrics, so estimating must not move them.
  const std::vector<Edge> stream = MakePermutedStream(
      GenerateBarabasiAlbert(800, 6, 0.6, 81).value(), 82);
  GpsSamplerOptions options;
  options.capacity = 2000;
  options.seed = 83;

  InStreamEstimator serial(options);
  for (const Edge& e : stream) serial.Process(e);
  const uint64_t before = IntersectCount(serial.reservoir());
  EXPECT_GT(before, 0u);
  EstimatePostStream(serial.reservoir());
  EstimatePostStreamParallel(serial.reservoir(), 4);
  EXPECT_EQ(IntersectCount(serial.reservoir()), before);

  ShardedEngineOptions engine_options;
  engine_options.sampler = options;
  engine_options.num_shards = 4;
  engine_options.motifs = {"4clique"};
  ShardedEngine engine(engine_options);
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();
  std::vector<uint64_t> shard_before;
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    shard_before.push_back(IntersectCount(engine.shard(s).reservoir()));
  }
  engine.MergedEstimates();
  engine.MergedMotifEstimates();
  engine.MergedPostStreamEstimates();
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    EXPECT_EQ(IntersectCount(engine.shard(s).reservoir()), shard_before[s])
        << "shard " << s;
  }
}

// ---- Union patched across monitor ticks ------------------------------------

/// Checks merged estimates and motif statistics against what a FRESH
/// union over the engine's current shard state gives.
void ExpectMatchesFreshUnion(const ShardedEngine& engine,
                             const GraphEstimates& estimates,
                             const std::vector<MotifEstimate>& motifs) {
  std::vector<ShardSampleRef> refs;
  std::vector<GraphEstimates> within;
  std::vector<std::vector<MotifAccumulator>> motif_within;
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    const ShardWorker& shard = engine.shard(s);
    refs.push_back({&shard.reservoir(), shard.slot_strata()});
    within.push_back(shard.InStreamEstimates());
    std::vector<MotifAccumulator> accs;
    for (size_t m = 0; m < shard.motif_suite().size(); ++m) {
      accs.push_back(shard.motif_suite().accumulator(m));
    }
    motif_within.push_back(std::move(accs));
  }
  const UnionSample fresh = BuildUnionSample(refs);
  ExpectExactlyEqual(estimates, AddEstimates(SumShardEstimates(within),
                                             EstimateCrossShard(fresh)));
  const std::vector<std::string>& names = engine.options().motifs;
  ExpectMotifsExactlyEqual(
      motifs,
      MakeMotifEstimates(names, SumShardMotifAccumulators(motif_within),
                         EstimateCrossShardMotifs(fresh, names)));
}

/// One monitor tick, checked against a fresh union.
void CheckTick(ShardedEngine& engine) {
  const MonitorRecord record = engine.MergedRecord();
  ExpectMatchesFreshUnion(engine, record.estimates, record.motifs);
}

/// The end-of-stream merge, checked like a tick.
void ExpectFinalMatchesFreshUnion(ShardedEngine& engine) {
  const GraphEstimates estimates = engine.MergedEstimates();
  const std::vector<MotifEstimate> motifs = engine.MergedMotifEstimates();
  ExpectMatchesFreshUnion(engine, estimates, motifs);
}

/// The union's edge set at each tick, for counting the union triangles
/// that gained or lost two or three edges between two ticks — the patch
/// cases where a list is touched through more than one changed edge.
class TriangleChangeTracker {
  using EdgeSet = std::set<std::pair<NodeId, NodeId>>;

 public:
  void Observe(const ShardedEngine& engine) {
    EdgeSet now;
    for (uint32_t s = 0; s < engine.num_shards(); ++s) {
      engine.shard(s).reservoir().ForEachEdge(
          [&](SlotId, const GpsReservoir::EdgeRecord& rec) {
            now.insert({rec.edge.u, rec.edge.v});
          });
    }
    multi_admitted_ += CountMultiChanged(now, last_);
    multi_evicted_ += CountMultiChanged(last_, now);
    last_ = std::move(now);
  }
  int multi_admitted() const { return multi_admitted_; }
  int multi_evicted() const { return multi_evicted_; }

 private:
  /// Triangles of `graph` with >= 2 edges missing from `other`.
  static int CountMultiChanged(const EdgeSet& graph, const EdgeSet& other) {
    std::map<NodeId, std::set<NodeId>> adj;
    for (const auto& [u, v] : graph) {
      adj[u].insert(v);
      adj[v].insert(u);
    }
    const auto changed = [&](NodeId a, NodeId b) {
      return other.count({std::min(a, b), std::max(a, b)}) == 0;
    };
    int count = 0;
    for (const auto& [u, v] : graph) {
      for (const NodeId w : adj[u]) {
        if (w <= v || adj[v].count(w) == 0) continue;  // once, u < v < w
        count += changed(u, v) + changed(u, w) + changed(v, w) >= 2;
      }
    }
    return count;
  }

  EdgeSet last_;
  int multi_admitted_ = 0;
  int multi_evicted_ = 0;
};

TEST(UnionPatchTest, PatchedUnionMatchesFreshBuildAtEveryTick) {
  // Churn-heavy and hub-heavy: a clustered preferential-attachment graph
  // streamed three times (every edge re-arrives, so evicted edges come
  // back in new reservoir slots) into a small sample, with a tick every
  // 97 edges.
  const EdgeList graph = GenerateBarabasiAlbert(250, 10, 0.8, 71).value();
  std::vector<Edge> stream;
  for (const uint64_t seed : {72, 73, 74}) {
    const std::vector<Edge> pass = MakePermutedStream(graph, seed);
    stream.insert(stream.end(), pass.begin(), pass.end());
  }
  constexpr uint64_t kEvery = 97;
  const size_t half = stream.size() / 2;
  for (const uint32_t k : {2u, 3u, 4u, 8u}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    ShardedEngineOptions options;
    options.sampler.capacity = 240;
    options.sampler.seed = 73;
    options.num_shards = k;
    options.batch_size = 16;
    options.motifs = {"4cycle", "4clique", "3path"};

    int ticks = 0;
    TriangleChangeTracker tracker;
    ShardedEngine engine(options);
    const auto tick = [&](uint64_t) {
      ++ticks;
      CheckTick(engine);
      tracker.Observe(engine);
    };
    const std::span<const Edge> all(stream);
    FeedCutAt(engine, all.first(half), kEvery, tick);
    const ScopedTempDir dir("engine_merge", "k" + std::to_string(k));
    ASSERT_TRUE(engine.SerializeShards(dir.string()).ok());
    FeedCutAt(engine, all.subspan(half), kEvery, tick);
    engine.Finish();
    EXPECT_EQ(ticks, static_cast<int>(stream.size() / kEvery));
    // The ticks patched evictions as well as admissions, including
    // triangles that gained or lost two or three edges in one tick.
    EXPECT_GT(engine.shard(0).reservoir().threshold(), 0.0);
    EXPECT_GT(tracker.multi_admitted(), 0);
    EXPECT_GT(tracker.multi_evicted(), 0);
    ExpectFinalMatchesFreshUnion(engine);

    auto resumed = ShardedEngine::ResumeFromCheckpoints(ManifestPath(dir));
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ShardedEngine& continued = **resumed;
    ticks = 0;
    FeedCutAt(continued, all.subspan(half), kEvery, [&](uint64_t) {
      ++ticks;
      CheckTick(continued);
    });
    continued.Finish();
    EXPECT_GT(ticks, 0);
    ExpectFinalMatchesFreshUnion(continued);
  }
}

// ---- Partner pass over a node table full of tombstones ---------------------

TEST(Algorithm2ThreadsTest, TombstoneHeavyNodeTablesKeepTheBits) {
  // The partner pass walks the node table by position, so erased nodes'
  // tombstones lie in its path. A matching over thousands of nodes grows
  // the tables; a clustered region, streamed twice, then takes over the
  // sample, and the matching's nodes leave tombstones behind.
  std::vector<Edge> stream;
  for (NodeId i = 0; i < 4000; ++i) {
    stream.push_back({2 * i + 1000, 2 * i + 1001});
  }
  const EdgeList clustered = GenerateBarabasiAlbert(300, 10, 0.8, 91).value();
  for (const uint64_t seed : {92, 94}) {
    const std::vector<Edge> dense = MakePermutedStream(clustered, seed);
    stream.insert(stream.end(), dense.begin(), dense.end());
  }

  // The serial reservoir: its own sampled graph.
  GpsSamplerOptions options;
  options.capacity = 1200;
  options.seed = 93;
  GpsSampler serial(options);
  for (const Edge& e : stream) serial.Process(e);
  const SampledGraph& sampled = serial.reservoir().graph();
  // Most positions the matching's nodes filled are tombstones now.
  ASSERT_LT(sampled.node_load_factor(), 0.25);
  const GraphEstimates want = EstimatePostStreamParallel(serial.reservoir(), 1);
  EXPECT_GT(want.triangles.value, 0.0);
  for (const unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("serial, threads=" + std::to_string(threads));
    ExpectExactlyEqual(EstimatePostStreamParallel(serial.reservoir(), threads),
                       want);
  }

  // A union patched through the same churn against one built fresh: the
  // patched node table is mostly tombstones, the fresh one has none.
  constexpr uint32_t kShards = 4;
  std::vector<GpsSampler> shards;
  for (uint32_t s = 0; s < kShards; ++s) {
    GpsSamplerOptions shard_options = options;
    shard_options.capacity = options.capacity / kShards;
    shard_options.seed = DeriveShardSeed(options.seed, s, kShards);
    shards.emplace_back(shard_options);
  }
  UnionSample patched;
  std::vector<ShardSampleRef> refs;
  for (const GpsSampler& shard : shards) refs.push_back({&shard.reservoir()});
  for (size_t i = 0; i < stream.size(); ++i) {
    shards[ShardedEngine::ShardOfEdge(stream[i], kShards)].Process(stream[i]);
    if (i % 500 == 499) patched.Update(refs);
  }
  patched.Update(refs);
  const UnionSample fresh = BuildUnionSample(Reservoirs(shards));
  const GraphEstimates cross = EstimateCrossShard(fresh, 1);
  const GraphEstimates post = EstimateMergedPostStream(fresh, 1);
  EXPECT_GT(cross.triangles.value, 0.0);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("union, threads=" + std::to_string(threads));
    ExpectExactlyEqual(EstimateCrossShard(patched, threads), cross);
    ExpectExactlyEqual(EstimateMergedPostStream(patched, threads), post);
  }
}

}  // namespace
}  // namespace gps
