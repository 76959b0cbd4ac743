// Microbench for the adaptive set-intersection kernels
// (graph/intersect.h): per-kernel timings across adversarial size ratios,
// the measured merge/gallop crossover (which justifies kGallopRatio), and
// two hard gates on adaptive dispatch against forced scalar merge:
//
//   * skewed blocks: >= 2x on synthetic sorted-block pairs at ratio
//     1:1024, the hub-vs-leaf shape that dominates the per-edge cost on
//     power-law graphs;
//   * hub pairs: >= 0.99x on the |Γ̂(u) ∩ Γ̂(v)| queries a Barabási–Albert
//     stream issues at its hubs, so dispatch never falls behind merge on
//     a real sample.
//
//   bench_intersect [--quick]
//
// --quick shrinks the grid's iteration counts for a sub-second smoke
// pass; the hub-pair replay runs the same in both modes, and both gates
// hold in both.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <vector>

#include "gen/generators.h"
#include "graph/intersect.h"
#include "graph/sampled_graph.h"
#include "graph/stream.h"
#include "util/random.h"
#include "util/table.h"
#include "util/timer.h"

namespace gps {
namespace {

using Clock = std::chrono::steady_clock;

/// Sorted-unique block of n ids drawn from [0, universe).
std::vector<AdjEntry> MakeBlock(Rng* rng, size_t n, NodeId universe) {
  std::set<NodeId> ids;
  while (ids.size() < n) {
    ids.insert(static_cast<NodeId>(rng->UniformU64(universe)));
  }
  std::vector<AdjEntry> block;
  block.reserve(n);
  for (const NodeId id : ids) block.push_back(AdjEntry{id, id});
  return block;
}

/// Best-of-3 nanoseconds per intersection call of `kernel` over the pair,
/// with the match count accumulated into *sink so the work cannot be
/// optimized away.
double TimeKernel(IntersectKernel kernel, const std::vector<AdjEntry>& a,
                  const std::vector<AdjEntry>& b, size_t iters,
                  size_t* sink) {
  SetIntersectKernel(kernel);
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    size_t total = 0;
    for (size_t i = 0; i < iters; ++i) {
      total += IntersectCountSorted(a.data(), a.size(), b.data(), b.size(),
                                    nullptr);
    }
    const double ns =
        static_cast<double>(std::chrono::duration_cast<
                                std::chrono::nanoseconds>(Clock::now() - start)
                                .count()) /
        static_cast<double>(iters);
    best = std::min(best, ns);
    *sink += total;
  }
  SetIntersectKernel(IntersectKernel::kAuto);
  return best;
}

/// Adaptive dispatch over forced scalar merge, in pairs per second, on
/// hub pairs: a sampled graph holds the first 50,000 edges of a permuted
/// ~200K-edge BA stream (skew intact, so hub-vs-leaf blocks dominate),
/// and the replay asks |Γ̂(u) ∩ Γ̂(v)| — the query the per-arrival
/// estimator issues — for every stream edge touching a node of sampled
/// degree >= 64. Those are the arrivals whose cost the kernels exist to
/// cut; the node-table lookups do not dominate them. Best of 3 per
/// kernel; the two match counts must agree (kernel identity is a
/// contract).
double HubPairSpeedup() {
  constexpr size_t kSampledEdges = 50000;
  constexpr size_t kHubDegree = 64;
  const std::vector<Edge> stream = MakePermutedStream(
      GenerateBarabasiAlbert(12516, 16, 0.5, 901).value(), 902);
  SampledGraph graph;
  SlotId slot = 0;
  for (const Edge& e : stream) {
    if (graph.NumEdges() >= kSampledEdges) break;
    graph.AddEdge(e.Canonical(), slot++);
  }
  std::vector<Edge> pairs;
  for (const Edge& e : stream) {
    if (graph.Degree(e.u) >= kHubDegree || graph.Degree(e.v) >= kHubDegree) {
      pairs.push_back(e);
    }
  }
  const auto pairs_per_sec = [&](IntersectKernel kernel, uint64_t* matches) {
    SetIntersectKernel(kernel);
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      uint64_t total = 0;
      WallTimer timer;
      for (const Edge& e : pairs) {
        total += graph.CountCommonNeighbors(e.u, e.v);
      }
      best = std::max(best, pairs.size() / timer.ElapsedSeconds());
      *matches = total;
    }
    SetIntersectKernel(IntersectKernel::kAuto);
    return best;
  };
  uint64_t merge_matches = 0, adaptive_matches = 0;
  const double merge_pps =
      pairs_per_sec(IntersectKernel::kMerge, &merge_matches);
  const double adaptive_pps =
      pairs_per_sec(IntersectKernel::kAuto, &adaptive_matches);
  if (merge_matches != adaptive_matches) {
    std::fprintf(stderr,
                 "FAIL: adaptive intersection count %" PRIu64
                 " != scalar merge count %" PRIu64 " on hub pairs\n",
                 adaptive_matches, merge_matches);
    std::exit(1);
  }
  std::printf("\nHub-pair replay (%zu sampled edges, %zu pairs touching a "
              "degree >= %zu node, %" PRIu64 " common neighbors): merge "
              "%.0f pairs/s, adaptive %.0f pairs/s\n",
              graph.NumEdges(), pairs.size(), kHubDegree, merge_matches,
              merge_pps, adaptive_pps);
  return adaptive_pps / merge_pps;
}

}  // namespace
}  // namespace gps

int main(int argc, char** argv) {
  using namespace gps;  // NOLINT

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: bench_intersect [--quick]\n");
      return 2;
    }
  }

  std::printf("Set-intersection kernels over sorted AdjEntry blocks "
              "(simd level: %s)\n\n",
              IntersectSimdLevel());

  Rng rng(0x15EC7);
  size_t sink = 0;

  // Skewed shapes: a fixed small side against growing ratios — the
  // hub-vs-leaf pattern. The 50%-dense universe keeps matches plentiful
  // so the emit path is exercised, not just the advance path.
  const size_t small_n = 64;
  const size_t ratios[] = {1, 2, 4, 8, 16, 32, 64, 256, 1024};
  const size_t iters_base = quick ? 2000 : 20000;

  TextTable table({"ratio", "|a|", "|b|", "merge ns", "gallop ns", "simd ns",
                   "auto ns", "auto/merge", "auto pick"});
  double crossover_ratio = 0.0;
  double skew_speedup = 0.0;  // adaptive over merge at the largest ratio
  for (const size_t ratio : ratios) {
    const size_t large_n = small_n * ratio;
    const NodeId universe = static_cast<NodeId>(2 * (small_n + large_n));
    const std::vector<AdjEntry> a = MakeBlock(&rng, small_n, universe);
    const std::vector<AdjEntry> b = MakeBlock(&rng, large_n, universe);
    const size_t iters = std::max<size_t>(iters_base / ratio, 50);

    const double merge_ns =
        TimeKernel(IntersectKernel::kMerge, a, b, iters, &sink);
    const double gallop_ns =
        TimeKernel(IntersectKernel::kGallop, a, b, iters, &sink);
    const double simd_ns =
        IntersectSimdAvailable()
            ? TimeKernel(IntersectKernel::kSimd, a, b, iters, &sink)
            : 0.0;
    const double auto_ns =
        TimeKernel(IntersectKernel::kAuto, a, b, iters, &sink);

    if (crossover_ratio == 0.0 && gallop_ns < merge_ns) {
      crossover_ratio = static_cast<double>(ratio);
    }
    skew_speedup = merge_ns / auto_ns;

    char buf[9][32];
    std::snprintf(buf[0], sizeof(buf[0]), "1:%zu", ratio);
    std::snprintf(buf[1], sizeof(buf[1]), "%zu", a.size());
    std::snprintf(buf[2], sizeof(buf[2]), "%zu", b.size());
    std::snprintf(buf[3], sizeof(buf[3]), "%.0f", merge_ns);
    std::snprintf(buf[4], sizeof(buf[4]), "%.0f", gallop_ns);
    if (IntersectSimdAvailable()) {
      std::snprintf(buf[5], sizeof(buf[5]), "%.0f", simd_ns);
    } else {
      std::snprintf(buf[5], sizeof(buf[5]), "n/a");
    }
    std::snprintf(buf[6], sizeof(buf[6]), "%.0f", auto_ns);
    std::snprintf(buf[7], sizeof(buf[7]), "%.2fx", merge_ns / auto_ns);
    std::snprintf(buf[8], sizeof(buf[8]), "%s",
                  IntersectKernelName(
                      ChooseIntersectKernel(a.size(), b.size())));
    table.AddRow({buf[0], buf[1], buf[2], buf[3], buf[4], buf[5], buf[6],
                  buf[7], buf[8]});
  }
  std::printf("%s", table.ToString().c_str());

  // Comparable-size shapes: where the simd kernel earns its slot.
  std::printf("\nComparable sizes (simd regime):\n");
  TextTable table2({"|a|=|b|", "merge ns", "simd ns", "simd/merge"});
  for (const size_t n : {16u, 64u, 256u, 1024u}) {
    const NodeId universe = static_cast<NodeId>(4 * n);
    const std::vector<AdjEntry> a = MakeBlock(&rng, n, universe);
    const std::vector<AdjEntry> b = MakeBlock(&rng, n, universe);
    const size_t iters = std::max<size_t>(iters_base * 16 / n, 50);
    const double merge_ns =
        TimeKernel(IntersectKernel::kMerge, a, b, iters, &sink);
    const double simd_ns =
        IntersectSimdAvailable()
            ? TimeKernel(IntersectKernel::kSimd, a, b, iters, &sink)
            : merge_ns;
    char buf[4][32];
    std::snprintf(buf[0], sizeof(buf[0]), "%zu", n);
    std::snprintf(buf[1], sizeof(buf[1]), "%.0f", merge_ns);
    std::snprintf(buf[2], sizeof(buf[2]), "%.0f", simd_ns);
    std::snprintf(buf[3], sizeof(buf[3]), "%.2fx", merge_ns / simd_ns);
    table2.AddRow({buf[0], buf[1], buf[2], buf[3]});
  }
  std::printf("%s", table2.ToString().c_str());

  std::printf("\nmeasured merge->gallop crossover: ratio 1:%.0f "
              "(dispatch uses 1:%zu)\n",
              crossover_ratio, intersect_detail::kGallopRatio);
  std::printf("adaptive speedup at ratio 1:%zu: %.2fx (checksum %zu)\n",
              ratios[sizeof(ratios) / sizeof(ratios[0]) - 1], skew_speedup,
              sink);

  const double hub_speedup = HubPairSpeedup();
  std::printf("adaptive speedup on hub pairs: %.2fx\n\n", hub_speedup);

  // Hard gates: >= 2x over scalar merge on skewed sorted-block pairs, and
  // no loss (>= 0.99x) on the hub pairs of a sampled power-law graph.
  bool ok = true;
  const auto gate = [&ok](double speedup, double floor, const char* pairs) {
    if (speedup < floor) {
      std::fprintf(stderr,
                   "FAIL: adaptive kernel speedup %.2fx < %.2fx on %s\n",
                   speedup, floor, pairs);
      ok = false;
    } else {
      std::printf("PASS: adaptive kernel speedup %.2fx >= %.2fx on %s\n",
                  speedup, floor, pairs);
    }
  };
  gate(skew_speedup, 2.0, "skewed blocks");
  gate(hub_speedup, 0.99, "hub pairs");
  return ok ? 0 : 1;
}
