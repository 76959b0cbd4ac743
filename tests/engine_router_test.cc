// Producer route-and-batch contracts (ShardedEngine::RouteOne and the
// two entry points built on it, Process and ProcessEdges).
//
// The load-bearing property: routing is a pure per-edge function and the
// producer replays stream order with exact batch_size splits, so HOW the
// stream reaches the engine is invisible — ProcessEdges over spans of any
// size, and Process interleaved with spans, give byte-identical shard
// reservoirs, merged estimates and motif statistics to the per-edge loop;
// and core pinning is placement only (byte-identical, one named warning
// when unavailable).
//
// The suite runs under TSan and ASan in CI (ci.yml / scripts/check.sh):
// the spans alias the producer's input while edges are routed into the
// shard rings.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/sharded_engine.h"
#include "engine_test_util.h"
#include "gen/generators.h"
#include "graph/stream.h"
#include "util/affinity.h"

namespace gps {
namespace {

using engine_test::ExpectExactlyEqual;
using engine_test::ExpectMotifsExactlyEqual;
using engine_test::ReservoirBytes;

std::vector<Edge> TestStream(uint32_t nodes, uint32_t edges_per_node,
                             uint64_t graph_seed, uint64_t stream_seed) {
  EdgeList graph =
      GenerateBarabasiAlbert(nodes, edges_per_node, 0.6, graph_seed).value();
  return MakePermutedStream(graph, stream_seed);
}

ShardedEngineOptions BlockOptions(uint32_t shards) {
  ShardedEngineOptions options;
  options.sampler.capacity = 300;
  options.sampler.seed = 11;
  options.num_shards = shards;
  options.batch_size = 64;
  return options;
}

/// Feeds the stream through ProcessEdges in `block_edges`-sized spans —
/// small odd blocks whose boundaries never align with batch_size.
void FeedBlocks(ShardedEngine& engine, const std::vector<Edge>& stream,
                size_t block_edges) {
  std::span<const Edge> remaining(stream);
  while (!remaining.empty()) {
    const size_t take = std::min(block_edges, remaining.size());
    engine.ProcessEdges(remaining.subspan(0, take));
    remaining = remaining.subspan(take);
  }
}

struct EngineState {
  std::vector<std::string> reservoirs;
  GraphEstimates merged;
  std::vector<MotifEstimate> motifs;
};

EngineState CaptureState(ShardedEngine& engine) {
  engine.Finish();
  EngineState state;
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    state.reservoirs.push_back(ReservoirBytes(engine.shard(s).reservoir()));
  }
  state.merged = engine.MergedEstimates();
  state.motifs = engine.MergedMotifEstimates();
  return state;
}

void ExpectSameState(const EngineState& a, const EngineState& b,
                     const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.reservoirs, b.reservoirs);
  ExpectExactlyEqual(a.merged, b.merged);
  ExpectMotifsExactlyEqual(a.motifs, b.motifs);
}

TEST(RouterIdentity, ProcessEdgesInAnySlicingMatchesPerEdgeLoop) {
  const std::vector<Edge> stream = TestStream(400, 8, 21, 22);
  for (const uint32_t shards : {1u, 4u}) {
    const std::string k = "K=" + std::to_string(shards) + " ";
    ShardedEngineOptions options = BlockOptions(shards);
    options.motifs = {"4clique", "3path"};
    ShardedEngine per_edge(options);
    for (const Edge& e : stream) per_edge.Process(e);
    const EngineState want = CaptureState(per_edge);

    for (const size_t block : {size_t{97}, size_t{1024}}) {
      ShardedEngine engine(options);
      FeedBlocks(engine, stream, block);
      ExpectSameState(want, CaptureState(engine),
                      k + "block=" + std::to_string(block));
    }
    ShardedEngine flat(options);
    flat.ProcessEdges(std::span<const Edge>(stream));
    ExpectSameState(want, CaptureState(flat), k + "one span");
  }
}

TEST(RouterIdentity, PerEdgeProcessInterleavedWithBlocks) {
  const std::vector<Edge> stream = TestStream(300, 8, 61, 62);
  ShardedEngine per_edge(BlockOptions(2));
  for (const Edge& e : stream) per_edge.Process(e);
  const EngineState want = CaptureState(per_edge);

  // Alternate block and per-edge feeding: both go through the one
  // route-and-batch step, so the open batches carry across the switch.
  ShardedEngine engine(BlockOptions(2));
  std::span<const Edge> remaining(stream);
  bool as_block = true;
  while (!remaining.empty()) {
    const size_t take = std::min<size_t>(101, remaining.size());
    if (as_block) {
      engine.ProcessEdges(remaining.subspan(0, take));
    } else {
      for (const Edge& e : remaining.subspan(0, take)) engine.Process(e);
    }
    as_block = !as_block;
    remaining = remaining.subspan(take);
  }
  ExpectSameState(want, CaptureState(engine), "interleaved feed");
}

TEST(RouterPinning, PinnedRunIsByteIdenticalToUnpinned) {
  const std::vector<Edge> stream = TestStream(300, 8, 95, 96);
  ShardedEngine unpinned(BlockOptions(2));
  FeedBlocks(unpinned, stream, 173);
  const EngineState want = CaptureState(unpinned);

  ShardedEngineOptions options = BlockOptions(2);
  options.pin_threads = true;
  ShardedEngine pinned(options);  // may fall back (warned) — still runs
  FeedBlocks(pinned, stream, 173);
  ExpectSameState(want, CaptureState(pinned), "pinned vs unpinned");
}

TEST(RouterPinning, AppliesCleanlyWhereAffinityIsAvailable) {
  // Probe the syscall the engine uses: where containers deny affinity (or
  // the mask is smaller than the two workers), skip by name — the
  // degradation path is covered by the other pinning tests.
  const std::vector<int> cpus = AvailableCpus();
  if (cpus.size() < 2) {
    GTEST_SKIP() << "needs >= 2 schedulable cpus, have " << cpus.size();
  }
  {
    // The probe stays alive until it is pinned: pinning a thread that has
    // already exited reaches the caller instead (its kernel id reads 0),
    // which would shrink this thread's mask to one cpu.
    std::atomic<bool> pinned{false};
    std::thread probe([&pinned] {
      while (!pinned.load()) std::this_thread::yield();
    });
    const Status pin = PinThreadToCpu(probe, cpus[0]);
    pinned.store(true);
    probe.join();
    if (!pin.ok()) {
      GTEST_SKIP() << "affinity syscall denied: " << pin.ToString();
    }
  }
  ShardedEngineOptions options = BlockOptions(2);
  options.pin_threads = true;
  ShardedEngine engine(options);
  EXPECT_EQ(engine.pin_warning(), "");
  const std::vector<Edge> stream = TestStream(200, 8, 97, 98);
  FeedBlocks(engine, stream, 173);
  engine.Finish();
}

TEST(RouterPinning, WarnsOnceWhenMaskIsTooSmall) {
  // One worker more than the mask has cpus.
  const size_t cpus = AvailableCpus().size();
  const auto shards = static_cast<uint32_t>(cpus + 1);
  ShardedEngineOptions options = BlockOptions(shards);
  options.sampler.capacity = 50 * (cpus + 1);
  options.pin_threads = true;
  ::testing::internal::CaptureStderr();
  {
    ShardedEngine engine(options);
    FeedBlocks(engine, TestStream(200, 8, 99, 100), 173);
    engine.Finish();
    EXPECT_NE(engine.pin_warning().find("core pinning disabled: " +
                                        std::to_string(cpus) +
                                        " schedulable cpus"),
              std::string::npos)
        << engine.pin_warning();
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  const std::string warning = "warning: core pinning disabled";
  const size_t first = err.find(warning);
  ASSERT_NE(first, std::string::npos) << err;
  EXPECT_EQ(err.find(warning, first + 1), std::string::npos) << err;
}

}  // namespace
}  // namespace gps
