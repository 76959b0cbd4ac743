// Differential tests for the adaptive intersection kernels: every kernel
// (merge / gallop / simd when compiled+supported) against a scalar
// two-pointer reference, across adversarial block shapes — size ratios
// 1:1 … 1:1024, empty/disjoint/identical blocks, runs of near-adjacent
// ids, unaligned block offsets — plus the byte-identity contract on the
// in-stream estimator and the sharded engine (forced kernels must produce
// bit-identical estimates, monitor ticks and manifests).

#include "graph/intersect.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <set>
#include <span>
#include <sstream>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/in_stream.h"
#include "engine/sharded_engine.h"
#include "engine_test_util.h"
#include "gen/generators.h"
#include "graph/sampled_graph.h"
#include "graph/stream.h"
#include "util/random.h"

namespace gps {
namespace {

using Match = std::tuple<NodeId, SlotId, SlotId>;

/// Restores adaptive dispatch even when a test body fails mid-way: a
/// leaked forced kernel would silently re-shape every later test in the
/// same process.
struct KernelGuard {
  ~KernelGuard() { SetIntersectKernel(IntersectKernel::kAuto); }
};

/// The kernels every build can force. simd rides along only when the
/// build and CPU provide it — forcing it elsewhere degrades to merge,
/// whose identity the same loop already covers.
std::vector<IntersectKernel> ForcibleKernels() {
  std::vector<IntersectKernel> kernels = {IntersectKernel::kMerge,
                                          IntersectKernel::kGallop};
  if (IntersectSimdAvailable()) kernels.push_back(IntersectKernel::kSimd);
  return kernels;
}

/// Scalar two-pointer reference, written independently of the production
/// merge kernel.
std::vector<Match> ReferenceIntersect(const std::vector<AdjEntry>& a,
                                      const std::vector<AdjEntry>& b) {
  std::vector<Match> out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].nbr < b[j].nbr) {
      ++i;
    } else if (b[j].nbr < a[i].nbr) {
      ++j;
    } else {
      out.emplace_back(a[i].nbr, a[i].slot, b[j].slot);
      ++i;
      ++j;
    }
  }
  return out;
}

std::vector<Match> RunKernel(IntersectKernel kernel, const AdjEntry* a,
                             size_t na, const AdjEntry* b, size_t nb,
                             IntersectMetrics* metrics = nullptr) {
  KernelGuard guard;
  SetIntersectKernel(kernel);
  std::vector<Match> out;
  const size_t n = IntersectSorted(
      a, na, b, nb, metrics,
      [&](NodeId nbr, SlotId sa, SlotId sb) { out.emplace_back(nbr, sa, sb); });
  EXPECT_EQ(n, out.size());
  return out;
}

size_t RunCount(IntersectKernel kernel, const AdjEntry* a, size_t na,
                const AdjEntry* b, size_t nb) {
  KernelGuard guard;
  SetIntersectKernel(kernel);
  return IntersectCountSorted(a, na, b, nb, nullptr);
}

/// Sorted-unique block of `n` entries drawn from [0, universe); each slot
/// encodes (id, tag) so slot mix-ups and argument-order swaps are
/// detectable, not just id-set mismatches.
std::vector<AdjEntry> RandomBlock(Rng* rng, size_t n, NodeId universe,
                                  SlotId slot_tag) {
  std::set<NodeId> ids;
  while (ids.size() < n) {
    ids.insert(static_cast<NodeId>(rng->UniformU64(universe)));
  }
  std::vector<AdjEntry> block;
  block.reserve(n);
  for (const NodeId id : ids) {
    block.push_back(AdjEntry{id, (id << 4) | slot_tag});
  }
  return block;
}

void ExpectAllKernelsMatchReference(const std::vector<AdjEntry>& a,
                                    const std::vector<AdjEntry>& b,
                                    const std::string& label) {
  const std::vector<Match> want = ReferenceIntersect(a, b);
  for (const IntersectKernel kernel : ForcibleKernels()) {
    const std::vector<Match> got =
        RunKernel(kernel, a.data(), a.size(), b.data(), b.size());
    EXPECT_EQ(got, want) << label << " kernel=" << IntersectKernelName(kernel)
                         << " |a|=" << a.size() << " |b|=" << b.size();
    // Argument order flipped: same neighbors, slots swapped per match.
    std::vector<Match> want_flipped;
    want_flipped.reserve(want.size());
    for (const Match& m : want) {
      want_flipped.emplace_back(std::get<0>(m), std::get<2>(m),
                                std::get<1>(m));
    }
    const std::vector<Match> got_flipped =
        RunKernel(kernel, b.data(), b.size(), a.data(), a.size());
    EXPECT_EQ(got_flipped, want_flipped)
        << label << " (flipped) kernel=" << IntersectKernelName(kernel);
    EXPECT_EQ(RunCount(kernel, a.data(), a.size(), b.data(), b.size()),
              want.size())
        << label << " count kernel=" << IntersectKernelName(kernel);
  }
  // Adaptive dispatch must agree too, whatever it picks.
  EXPECT_EQ(RunKernel(IntersectKernel::kAuto, a.data(), a.size(), b.data(),
                      b.size()),
            want)
      << label << " kernel=auto";
}

TEST(IntersectKernelTest, EmptyDisjointIdenticalBlocks) {
  Rng rng(101);
  const std::vector<AdjEntry> empty;
  const std::vector<AdjEntry> some = RandomBlock(&rng, 64, 1000, 1);
  ExpectAllKernelsMatchReference(empty, some, "empty-vs-some");
  ExpectAllKernelsMatchReference(empty, empty, "empty-vs-empty");

  // Disjoint: even ids vs odd ids.
  std::vector<AdjEntry> evens, odds;
  for (NodeId id = 0; id < 512; ++id) {
    (id % 2 == 0 ? evens : odds).push_back(AdjEntry{id, (id << 4) | 2});
  }
  ExpectAllKernelsMatchReference(evens, odds, "disjoint");

  // Identical id sets with distinct slots per side.
  std::vector<AdjEntry> left = RandomBlock(&rng, 200, 5000, 3);
  std::vector<AdjEntry> right = left;
  for (AdjEntry& e : right) e.slot = (e.slot & ~SlotId{0xF}) | 4;
  ExpectAllKernelsMatchReference(left, right, "identical-ids");
}

TEST(IntersectKernelTest, RandomizedAdversarialSizeRatios) {
  Rng rng(202);
  // Small-side sizes crossed with ratios 1:1 … 1:1024; universes both
  // dense (many matches, near-adjacent ids) and sparse (few matches).
  const size_t small_sizes[] = {1, 2, 3, 7, 16, 33, 100};
  const size_t ratios[] = {1, 4, 16, 64, 256, 1024};
  for (const size_t ns : small_sizes) {
    for (const size_t ratio : ratios) {
      const size_t nl = ns * ratio;
      if (nl > 40000) continue;
      for (const NodeId universe :
           {static_cast<NodeId>(2 * (ns + nl)),
            static_cast<NodeId>(50 * (ns + nl))}) {
        const std::vector<AdjEntry> a = RandomBlock(&rng, ns, universe, 5);
        const std::vector<AdjEntry> b = RandomBlock(&rng, nl, universe, 6);
        ExpectAllKernelsMatchReference(
            a, b,
            "ratio 1:" + std::to_string(ratio) + " u=" +
                std::to_string(universe));
      }
    }
  }
}

TEST(IntersectKernelTest, NearAdjacentRunsAndUnalignedOffsets) {
  Rng rng(303);
  // Runs of consecutive ids with occasional gaps — the worst case for a
  // galloping probe (every probe lands one step ahead) and the best case
  // for simd (dense matches in every vector block).
  std::vector<AdjEntry> a, b;
  NodeId id = 0;
  for (int run = 0; run < 40; ++run) {
    const size_t len = 1 + rng.UniformU64(20);
    for (size_t i = 0; i < len; ++i, ++id) {
      a.push_back(AdjEntry{id, (id << 4) | 7});
      if (rng.Uniform01() < 0.7) b.push_back(AdjEntry{id, (id << 4) | 8});
    }
    id += static_cast<NodeId>(rng.UniformU64(5));
  }
  ExpectAllKernelsMatchReference(a, b, "near-adjacent-runs");

  // Unaligned views: intersect subranges starting at every offset 0..8 of
  // a shared block, so the simd loads hit every 8-byte phase relative to
  // the 16/32-byte vector width (loadu correctness + ASan bounds on the
  // scalar tails).
  const std::vector<AdjEntry> big = RandomBlock(&rng, 400, 4000, 9);
  const std::vector<AdjEntry> probe = RandomBlock(&rng, 64, 4000, 10);
  for (size_t off = 0; off <= 8; ++off) {
    const size_t n = big.size() - off;
    const std::vector<AdjEntry> view(big.begin() + static_cast<long>(off),
                                     big.end());
    const std::vector<Match> want = ReferenceIntersect(view, probe);
    for (const IntersectKernel kernel : ForcibleKernels()) {
      EXPECT_EQ(RunKernel(kernel, big.data() + off, n, probe.data(),
                          probe.size()),
                want)
          << "offset=" << off << " kernel=" << IntersectKernelName(kernel);
    }
  }
}

TEST(IntersectKernelTest, DispatchCrossoverAndForcedFallback) {
  EXPECT_EQ(ChooseIntersectKernel(0, 100), IntersectKernel::kMerge);
  // Skew at/above the crossover ratio gallops.
  EXPECT_EQ(ChooseIntersectKernel(4, 4 * intersect_detail::kGallopRatio),
            IntersectKernel::kGallop);
  EXPECT_EQ(ChooseIntersectKernel(4 * intersect_detail::kGallopRatio, 4),
            IntersectKernel::kGallop);
  // Comparable sizes: simd when available and big enough, else merge.
  const IntersectKernel comparable = ChooseIntersectKernel(64, 64);
  if (IntersectSimdAvailable()) {
    EXPECT_EQ(comparable, IntersectKernel::kSimd);
  } else {
    EXPECT_EQ(comparable, IntersectKernel::kMerge);
  }
  // Tiny comparable blocks never pay for a vector loop.
  EXPECT_EQ(ChooseIntersectKernel(4, 4), IntersectKernel::kMerge);

  // SimdLevel is consistent with availability.
  if (IntersectSimdAvailable()) {
    EXPECT_TRUE(std::strcmp(IntersectSimdLevel(), "sse2") == 0 ||
                std::strcmp(IntersectSimdLevel(), "avx2") == 0)
        << IntersectSimdLevel();
  } else {
    EXPECT_STREQ(IntersectSimdLevel(), "off");
  }

  // Forcing simd on a build without it degrades to merge, not a crash.
  KernelGuard guard;
  SetIntersectKernel(IntersectKernel::kSimd);
  Rng rng(404);
  const std::vector<AdjEntry> a = RandomBlock(&rng, 50, 500, 11);
  const std::vector<AdjEntry> b = RandomBlock(&rng, 50, 500, 12);
  std::vector<Match> got;
  IntersectSorted(a.data(), a.size(), b.data(), b.size(), nullptr,
                  [&](NodeId nbr, SlotId sa, SlotId sb) {
                    got.emplace_back(nbr, sa, sb);
                  });
  EXPECT_EQ(got, ReferenceIntersect(a, b));
}

TEST(IntersectKernelTest, MetricsAttributeCallsToTheChosenKernel) {
  Rng rng(505);
  const std::vector<AdjEntry> small = RandomBlock(&rng, 8, 100000, 13);
  const std::vector<AdjEntry> large = RandomBlock(&rng, 4096, 100000, 14);
  IntersectMetrics metrics;
  RunKernel(IntersectKernel::kMerge, small.data(), small.size(),
            large.data(), large.size(), &metrics);
  RunKernel(IntersectKernel::kGallop, small.data(), small.size(),
            large.data(), large.size(), &metrics);
  EXPECT_EQ(metrics.merge_calls.Value(), 1u);
  EXPECT_EQ(metrics.gallop_calls.Value(), 1u);
  // 8-vs-4096 galloping touches a tiny fraction of the large block.
  EXPECT_GT(metrics.comparisons_saved.Value(), 3000u);
}

TEST(IntersectKernelTest, SampledGraphCommonNeighborsUseKernels) {
  // End-to-end through SampledGraph: a hub intersected against a small
  // node must enumerate the same (w, slot_uw, slot_vw) triples under
  // every forced kernel.
  SampledGraph g;
  SlotId next_slot = 0;
  for (NodeId v = 2; v < 600; ++v) g.AddEdge(MakeEdge(1, v), next_slot++);
  for (NodeId v = 2; v < 40; v += 3) g.AddEdge(MakeEdge(0, v), next_slot++);
  std::vector<std::vector<Match>> per_kernel;
  for (const IntersectKernel kernel : ForcibleKernels()) {
    KernelGuard guard;
    SetIntersectKernel(kernel);
    std::vector<Match> got;
    g.ForEachCommonNeighbor(0, 1, [&](NodeId w, SlotId s0, SlotId s1) {
      got.emplace_back(w, s0, s1);
    });
    EXPECT_EQ(got.size(), g.CountCommonNeighbors(0, 1));
    per_kernel.push_back(std::move(got));
  }
  for (size_t k = 1; k < per_kernel.size(); ++k) {
    EXPECT_EQ(per_kernel[k], per_kernel[0]);
  }
  ASSERT_FALSE(per_kernel.empty());
  ASSERT_FALSE(per_kernel[0].empty());
  // Ascending-w emission.
  EXPECT_TRUE(std::is_sorted(per_kernel[0].begin(), per_kernel[0].end()));
}

// ---- Byte-identity on the real estimators -------------------------------

std::vector<Edge> TestStream(uint32_t nodes, uint32_t edges_per_node,
                             uint64_t graph_seed, uint64_t stream_seed) {
  EdgeList graph =
      GenerateBarabasiAlbert(nodes, edges_per_node, 0.6, graph_seed).value();
  return MakePermutedStream(graph, stream_seed);
}

TEST(IntersectByteIdentityTest, InStreamEstimatorAcrossForcedKernels) {
  const std::vector<Edge> stream = TestStream(1500, 6, 71, 72);
  GpsSamplerOptions options;
  options.capacity = 2000;
  options.seed = 9;
  std::vector<GraphEstimates> estimates;
  for (const IntersectKernel kernel : ForcibleKernels()) {
    KernelGuard guard;
    SetIntersectKernel(kernel);
    InStreamEstimator est(options);
    for (const Edge& e : stream) est.Process(e);
    estimates.push_back(est.Estimates());
  }
  for (size_t k = 1; k < estimates.size(); ++k) {
    engine_test::ExpectExactlyEqual(estimates[k], estimates[0]);
  }
}

TEST(IntersectByteIdentityTest, ShardedEngineEstimatesAndManifests) {
  const std::vector<Edge> stream = TestStream(1200, 6, 81, 82);
  std::vector<GraphEstimates> estimates;
  std::vector<std::string> manifests;
  for (const IntersectKernel kernel : ForcibleKernels()) {
    KernelGuard guard;
    SetIntersectKernel(kernel);
    ShardedEngineOptions options;
    options.sampler.capacity = 4000;
    options.sampler.seed = 17;
    options.num_shards = 4;
    ShardedEngine engine(options);
    for (const Edge& e : stream) engine.Process(e);
    engine.Finish();
    estimates.push_back(engine.MergedEstimates());
    const engine_test::ScopedTempDir dir("intersect_identity",
                                         IntersectKernelName(kernel));
    ASSERT_TRUE(engine.SerializeShards(dir.string()).ok());
    std::ifstream in(engine_test::ManifestPath(dir), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    manifests.push_back(bytes.str());
  }
  for (size_t k = 1; k < estimates.size(); ++k) {
    engine_test::ExpectExactlyEqual(estimates[k], estimates[0]);
    EXPECT_EQ(manifests[k], manifests[0]) << "manifest kernel #" << k;
  }
  ASSERT_FALSE(manifests.empty());
  EXPECT_FALSE(manifests[0].empty());
}

TEST(IntersectByteIdentityTest, MonitorTicksAcrossForcedKernels) {
  // A monitor keeps its union sample across ticks and patches it at each
  // one (engine/merge.h), so every tick's cross pass intersects blocks of
  // a patched union. A K=2 engine fed in 1000-edge pieces, with a merged
  // record after each piece and the post-stream and edge-count estimates
  // at the end, must read the same values under every forced kernel.
  const std::vector<Edge> stream = TestStream(1500, 6, 91, 92);
  struct Run {
    std::vector<MonitorRecord> ticks;
    GraphEstimates post;
    double edges = 0.0;
  };
  std::vector<Run> runs;
  for (const IntersectKernel kernel : ForcibleKernels()) {
    KernelGuard guard;
    SetIntersectKernel(kernel);
    ShardedEngineOptions options;
    options.sampler.capacity = 1500;
    options.sampler.seed = 11;
    options.num_shards = 2;
    options.motifs = {"4clique", "3path"};
    ShardedEngine engine(options);
    Run& run = runs.emplace_back();
    const std::span<const Edge> all(stream);
    for (size_t at = 0; at < all.size(); at += 1000) {
      const size_t take = std::min<size_t>(1000, all.size() - at);
      engine.ProcessEdges(all.subspan(at, take));
      run.ticks.push_back(engine.MergedRecord());
    }
    engine.Finish();
    run.post = engine.MergedPostStreamEstimates();
    run.edges = engine.MergedEdgeCountEstimate();
  }
  ASSERT_FALSE(runs.empty());
  ASSERT_GT(runs[0].ticks.size(), 1u);
  for (size_t k = 1; k < runs.size(); ++k) {
    SCOPED_TRACE("kernel #" + std::to_string(k));
    ASSERT_EQ(runs[k].ticks.size(), runs[0].ticks.size());
    for (size_t t = 0; t < runs[0].ticks.size(); ++t) {
      SCOPED_TRACE("tick " + std::to_string(t));
      EXPECT_EQ(runs[k].ticks[t].edges_processed,
                runs[0].ticks[t].edges_processed);
      engine_test::ExpectExactlyEqual(runs[k].ticks[t].estimates,
                                      runs[0].ticks[t].estimates);
      engine_test::ExpectMotifsExactlyEqual(runs[k].ticks[t].motifs,
                                            runs[0].ticks[t].motifs);
    }
    engine_test::ExpectExactlyEqual(runs[k].post, runs[0].post);
    EXPECT_EQ(runs[k].edges, runs[0].edges);
  }
}

}  // namespace
}  // namespace gps
