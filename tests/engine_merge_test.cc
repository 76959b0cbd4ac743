// Contracts of the one Algorithm-2 kernel (core/algorithm2.h, reached
// through core/post_stream.h and engine/merge.h) and of the engine's union
// index:
//
//   * the kernel agrees with a brute-force reference that enumerates every
//     sampled triangle and wedge and every pair of them, on ER, BA and
//     Chung–Lu samples — the serial reservoir (one stratum) and span-only
//     unions of K in {2, 4} shards, with and without batch sub-strata;
//   * its output is bit-identical for every thread count;
//   * the union the engine patches across monitor ticks gives the same
//     bits as a fresh BuildUnionSample at every tick — with motifs, with
//     steal-mode sub-strata, and after ResumeFromCheckpoints;
//   * estimating never moves the arrival-path intersection counters.
//
// The suite runs under ASan and TSan in CI (engine_ suites): the merge
// passes run on several threads inside monitor ticks.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
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
using engine_test::FreshDir;
using engine_test::ManifestPath;

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
  // Steal-mode engines tag each sampled edge with its batch: instances
  // spanning two batches of ONE shard belong to the cross pass as well.
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
  if (MetricsEnabled()) {
    EXPECT_GT(before, 0u);
  }
  EstimatePostStream(serial.reservoir());
  EstimatePostStreamParallel(serial.reservoir(), 4);
  EXPECT_EQ(IntersectCount(serial.reservoir()), before);

  ShardedEngineOptions engine_options;
  engine_options.sampler = options;
  engine_options.num_shards = 4;
  engine_options.motifs = {"tri"};
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

/// A monitor callback checking every tick against a fresh union.
std::function<void(const MonitorRecord&)> CheckEachTick(
    const ShardedEngine* engine, int* ticks) {
  return [engine, ticks](const MonitorRecord& record) {
    ++*ticks;
    ExpectMatchesFreshUnion(*engine, record.estimates, record.motifs);
  };
}

/// The end-of-stream merge, checked like a tick.
void ExpectFinalMatchesFreshUnion(ShardedEngine& engine) {
  const GraphEstimates estimates = engine.MergedEstimates();
  const std::vector<MotifEstimate> motifs = engine.MergedMotifEstimates();
  ExpectMatchesFreshUnion(engine, estimates, motifs);
}

TEST(UnionPatchTest, PatchedUnionMatchesFreshBuildAtEveryTick) {
  const std::vector<Edge> stream = MakePermutedStream(
      GenerateBarabasiAlbert(1500, 6, 0.6, 71).value(), 72);
  constexpr uint64_t kEvery = 600;
  const size_t half = stream.size() / 2;
  for (const StealMode steal : {StealMode::kDisabled, StealMode::kArmed}) {
    const std::string mode =
        steal == StealMode::kArmed ? "steal_armed" : "sequential";
    SCOPED_TRACE(mode);
    ShardedEngineOptions options;
    options.sampler.capacity = 900;
    options.sampler.seed = 73;
    options.num_shards = 4;
    options.batch_size = 64;
    options.steal = steal;
    options.motifs = {"tri", "4clique", "3path"};

    int ticks = 0;
    ShardedEngine engine(options);
    engine.EstimateEvery(kEvery, CheckEachTick(&engine, &ticks));
    for (size_t i = 0; i < half; ++i) engine.Process(stream[i]);
    const std::filesystem::path dir = FreshDir("engine_merge", mode);
    ASSERT_TRUE(engine.SerializeShards(dir.string()).ok());
    for (size_t i = half; i < stream.size(); ++i) engine.Process(stream[i]);
    engine.Finish();
    EXPECT_EQ(ticks, static_cast<int>(stream.size() / kEvery));
    // Thresholds rose, so ticks patched evictions as well as admissions.
    EXPECT_GT(engine.shard(0).reservoir().threshold(), 0.0);
    ExpectFinalMatchesFreshUnion(engine);

    auto resumed = ShardedEngine::ResumeFromCheckpoints(
        std::vector<std::string>{ManifestPath(dir)});
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ShardedEngine& continued = **resumed;
    ticks = 0;
    continued.EstimateEvery(kEvery, CheckEachTick(&continued, &ticks));
    for (size_t i = half; i < stream.size(); ++i) continued.Process(stream[i]);
    continued.Finish();
    EXPECT_GT(ticks, 0);
    ExpectFinalMatchesFreshUnion(continued);
  }
}

}  // namespace
}  // namespace gps
