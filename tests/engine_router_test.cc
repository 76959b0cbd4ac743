// Producer route-and-batch contracts (ShardedEngine::RouteOne and the
// two entry points built on it, Process and ProcessEdges).
//
// The load-bearing property: routing is a pure per-edge function and the
// producer replays stream order with exact batch_size splits, so HOW the
// stream reaches the engine is invisible — ProcessEdges over spans of any
// size, and Process interleaved with spans, give byte-identical shard
// reservoirs, merged estimates and motif statistics to the per-edge loop.
//
// The suite runs under TSan and ASan in CI (ci.yml / scripts/check.sh):
// the spans alias the producer's input while edges are routed into the
// shard rings.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/sharded_engine.h"
#include "engine_test_util.h"
#include "gen/generators.h"
#include "graph/stream.h"

namespace gps {
namespace {

using engine_test::ExpectExactlyEqual;
using engine_test::ExpectMotifsExactlyEqual;
using engine_test::ShardBytes;

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
    state.reservoirs.push_back(ShardBytes(engine, s));
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

}  // namespace
}  // namespace gps
