// Producer route-and-batch contracts (ShardedEngine::RouteOne and the
// block entry points built on it).
//
// The load-bearing property: routing is a pure per-edge function and the
// producer replays stream order with exact batch_size splits, so HOW the
// stream reaches the engine is invisible — ProcessBlock in any slicing,
// ProcessEdges, and Process interleaved with blocks give byte-identical
// shard reservoirs, merged estimates and motif statistics to the per-edge
// loop; monitor ticks and auto-checkpoints land at the same absolute
// positions mid-block; IngestBinaryStream names a corrupt block; and core
// pinning is placement only (byte-identical, one named warning when
// unavailable).
//
// The suite runs under TSan and ASan in CI (ci.yml / scripts/check.sh):
// block spans alias the producer's input (and the mmap on the
// binary-ingest path) while edges are routed into the shard rings.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/ingest.h"
#include "engine/sharded_engine.h"
#include "engine_test_util.h"
#include "gen/generators.h"
#include "graph/binary_stream.h"
#include "graph/stream.h"
#include "util/affinity.h"

namespace gps {
namespace {

using engine_test::ExpectExactlyEqual;
using engine_test::ExpectMotifsExactlyEqual;
using engine_test::FreshDir;
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

/// Feeds the stream through ProcessBlock in `block_edges`-sized spans —
/// small odd blocks whose boundaries never align with batch_size.
void FeedBlocks(ShardedEngine& engine, const std::vector<Edge>& stream,
                size_t block_edges) {
  std::span<const Edge> remaining(stream);
  while (!remaining.empty()) {
    const size_t take = std::min(block_edges, remaining.size());
    engine.ProcessBlock(remaining.subspan(0, take));
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

/// Every regular file under `dir`, name -> full contents. Two checkpoint
/// directories with equal maps are byte-identical resume points.
std::map<std::string, std::string> DirBytes(
    const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    files[entry.path().filename().string()] = buffer.str();
  }
  return files;
}

TEST(RouterIdentity, ProcessBlockAndProcessEdgesMatchPerEdgeLoop) {
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
    ExpectSameState(want, CaptureState(flat), k + "ProcessEdges");
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
      engine.ProcessBlock(remaining.subspan(0, take));
    } else {
      for (const Edge& e : remaining.subspan(0, take)) engine.Process(e);
    }
    as_block = !as_block;
    remaining = remaining.subspan(take);
  }
  ExpectSameState(want, CaptureState(engine), "interleaved feed");
}

TEST(RouterIngest, BlockReadFailureNamesTheBlock) {
  const std::vector<Edge> stream = TestStream(200, 8, 81, 82);
  const std::filesystem::path dir = FreshDir("router_ingest", "corrupt");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "stream.gps").string();
  BinaryStreamWriteOptions write_options;
  write_options.block_edges = 128;
  ASSERT_TRUE(WriteBinaryStream(path, stream, write_options).ok());
  {
    // Flip a payload byte inside block 1 (header + block 0 left intact).
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(kBinaryStreamHeaderBytes) +
            128 * 8 + 16);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x20);
    f.write(&byte, 1);
  }
  ShardedEngine engine(BlockOptions(2));
  auto fed = IngestBinaryStream(path, engine);
  ASSERT_FALSE(fed.ok());
  EXPECT_NE(fed.status().ToString().find("block 1"), std::string::npos)
      << fed.status().ToString();
  engine.Finish();
}

TEST(RouterHooks, MonitorFiresAtExactPositionsMidBlock) {
  const std::vector<Edge> stream = TestStream(300, 8, 91, 92);
  // Cadence 500 never aligns with 173-edge blocks: every tick lands
  // mid-block. K=1 runs its shard inline on the producer and must fire
  // at the same absolute positions as the threaded layout.
  constexpr uint64_t kEvery = 500;
  for (const uint32_t shards : {1u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto run = [&](bool per_edge) {
      std::vector<std::pair<uint64_t, double>> ticks;
      ShardedEngine engine(BlockOptions(shards));
      engine.EstimateEvery(kEvery, [&](const MonitorRecord& record) {
        ticks.emplace_back(record.edges_processed,
                           record.estimates.triangles.value);
      });
      if (per_edge) {
        for (const Edge& e : stream) engine.Process(e);
      } else {
        FeedBlocks(engine, stream, 173);
      }
      engine.Finish();
      return ticks;
    };

    const auto want = run(/*per_edge=*/true);
    ASSERT_EQ(want.size(), stream.size() / kEvery);
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].first, (i + 1) * kEvery);
    }
    EXPECT_EQ(run(/*per_edge=*/false), want);
  }
}

TEST(RouterHooks, AutoCheckpointMidBlockMatchesPerEdgeFeed) {
  const std::vector<Edge> stream = TestStream(300, 8, 93, 94);
  constexpr uint64_t kEvery = 700;  // lands mid-block for 173-edge blocks
  for (const uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto run = [&](bool per_edge, const std::string& tag) {
      const std::filesystem::path dir =
          FreshDir("router_ckpt", tag + std::to_string(shards));
      ShardedEngine engine(BlockOptions(shards));
      EXPECT_TRUE(engine.CheckpointEvery(kEvery, dir.string()).ok());
      if (per_edge) {
        for (const Edge& e : stream) engine.Process(e);
      } else {
        FeedBlocks(engine, stream, 173);
      }
      engine.Finish();
      EXPECT_TRUE(engine.auto_checkpoint_status().ok());
      return DirBytes(dir);
    };
    // The last periodic checkpoint is what survives in the directory;
    // both feeds must leave byte-identical resume points.
    const auto want = run(/*per_edge=*/true, "per_edge");
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(run(/*per_edge=*/false, "block"), want);
  }
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
