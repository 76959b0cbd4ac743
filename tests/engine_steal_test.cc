// Deterministic work-stealing scheduler contracts (engine/shard.h).
//
// The load-bearing property: with batch-substream semantics, WHO processes
// a batch is invisible — StealMode::kActive (thieves fire) produces
// byte-identical shard reservoirs, sub-stratum tables, merged estimates,
// motif statistics, and checkpoint manifests to StealMode::kArmed (no
// thief ever fires) on the same substream assignment, for any thread
// scheduling and ring capacity. K=1 bypasses the scheduler entirely and
// keeps the serial byte-identity contract with stealing enabled.
//
// The stress suite runs under TSan in CI (ci.yml / scripts/check.sh): the
// steal hand-off (mutex-guarded batch queue + completion map, SPSC rings,
// release/acquire drain handshake) is exactly the code a data race would
// corrupt silently.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/in_stream.h"
#include "engine/merge.h"
#include "engine/sharded_engine.h"
#include "engine_test_util.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "graph/exact.h"
#include "graph/stream.h"

namespace gps {
namespace {

using engine_test::ExpectExactlyEqual;
using engine_test::FreshDir;
using engine_test::ManifestPath;
using engine_test::ReservoirBytes;

std::vector<Edge> TestStream(uint32_t nodes, uint32_t edges_per_node,
                             uint64_t graph_seed, uint64_t stream_seed) {
  EdgeList graph =
      GenerateBarabasiAlbert(nodes, edges_per_node, 0.6, graph_seed).value();
  return MakePermutedStream(graph, stream_seed);
}

ShardedEngineOptions StealOptions(uint32_t shards, size_t capacity,
                                  uint64_t seed, StealMode steal,
                                  size_t batch_size = 64,
                                  double skew = 1.2) {
  ShardedEngineOptions options;
  options.sampler.capacity = capacity;
  options.sampler.seed = seed;
  options.num_shards = shards;
  options.batch_size = batch_size;
  options.steal = steal;
  options.shard_skew = skew;
  return options;
}

struct EngineState {
  std::vector<std::string> reservoirs;
  std::vector<std::vector<uint32_t>> strata;
  GraphEstimates merged;
  std::vector<MotifEstimate> motifs;
  double edge_count = 0.0;
  uint64_t steals = 0;
};

EngineState RunEngine(const std::vector<Edge>& stream,
                      ShardedEngineOptions options) {
  ShardedEngine engine(options);
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();
  EngineState state;
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    state.reservoirs.push_back(ReservoirBytes(engine.shard(s).reservoir()));
    const auto strata = engine.shard(s).slot_strata();
    state.strata.emplace_back(strata.begin(), strata.end());
  }
  state.merged = engine.MergedEstimates();
  state.motifs = engine.MergedMotifEstimates();
  state.edge_count = engine.MergedEdgeCountEstimate();
  state.steals = engine.StealsPerformed();
  return state;
}

void ExpectSameState(const EngineState& a, const EngineState& b,
                     const std::string& what) {
  ASSERT_EQ(a.reservoirs.size(), b.reservoirs.size()) << what;
  for (size_t s = 0; s < a.reservoirs.size(); ++s) {
    EXPECT_EQ(a.reservoirs[s], b.reservoirs[s]) << what << " shard " << s;
    EXPECT_EQ(a.strata[s], b.strata[s]) << what << " shard " << s;
  }
  ExpectExactlyEqual(a.merged, b.merged);
  ASSERT_EQ(a.motifs.size(), b.motifs.size()) << what;
  for (size_t m = 0; m < a.motifs.size(); ++m) {
    EXPECT_EQ(a.motifs[m].name, b.motifs[m].name) << what;
    EXPECT_EQ(a.motifs[m].estimate.value, b.motifs[m].estimate.value)
        << what << " motif " << a.motifs[m].name;
    EXPECT_EQ(a.motifs[m].estimate.variance, b.motifs[m].estimate.variance)
        << what << " motif " << a.motifs[m].name;
    EXPECT_EQ(a.motifs[m].snapshots, b.motifs[m].snapshots) << what;
  }
  EXPECT_EQ(a.edge_count, b.edge_count) << what;
}

// --- Determinism: stealing fired vs. not fired ----------------------------

class StealIdentityTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(StealIdentityTest, ActiveByteIdenticalToArmedAcrossSchedules) {
  const uint32_t k = GetParam();
  const std::vector<Edge> stream = TestStream(1500, 6, 301, 302);
  ShardedEngineOptions armed =
      StealOptions(k, 1800, 303, StealMode::kArmed);
  armed.motifs = {"tri", "4clique"};

  const EngineState reference = RunEngine(stream, armed);
  EXPECT_EQ(reference.steals, 0u);

  // kActive with several ring capacities: thread interleavings and steal
  // patterns differ per run, results must not. The batch size is pinned —
  // in steal mode it defines the substream boundaries and IS part of the
  // sample path.
  for (const size_t ring_capacity : {size_t{2}, size_t{64}}) {
    ShardedEngineOptions active = armed;
    active.steal = StealMode::kActive;
    active.ring_capacity = ring_capacity;
    const EngineState got = RunEngine(stream, active);
    ExpectSameState(reference, got,
                    "K=" + std::to_string(k) + " ring=" +
                        std::to_string(ring_capacity));
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, StealIdentityTest,
                         ::testing::Values(2u, 4u, 8u));

TEST(StealSchedulerTest, StealingActuallyFiresUnderSkew) {
  // Hub-heavy + skewed routing: shard 0 receives the bulk of the stream,
  // so idle peers must find stealable batches. (The determinism suite
  // above makes the count irrelevant for results; this guards against the
  // scheduler silently never stealing.) Whether one run steals depends on
  // the host's scheduling — under load the owner can drain its own queue
  // before a thief looks — so a steal in any of a few rounds suffices.
  const std::vector<Edge> stream = TestStream(2000, 6, 311, 312);
  ShardedEngineOptions options =
      StealOptions(4, 2000, 313, StealMode::kActive, /*batch_size=*/32,
                   /*skew=*/2.0);
  constexpr int kMaxRounds = 5;
  uint64_t steals = 0;
  for (int round = 0; round < kMaxRounds && steals == 0; ++round) {
    steals = RunEngine(stream, options).steals;
  }
  EXPECT_GT(steals, 0u);
}

TEST(StealSchedulerTest, SingleShardBypassKeepsSerialByteIdentity) {
  // K=1 has no peers: the scheduler is bypassed and the serial sample
  // path replays byte for byte even with stealing enabled.
  const std::vector<Edge> stream = TestStream(1200, 6, 321, 322);
  GpsSamplerOptions serial_options;
  serial_options.capacity = 900;
  serial_options.seed = 323;
  InStreamEstimator serial(serial_options);
  for (const Edge& e : stream) serial.Process(e);

  ShardedEngineOptions options =
      StealOptions(1, 900, 323, StealMode::kActive, /*batch_size=*/97,
                   /*skew=*/0.0);
  ShardedEngine engine(options);
  EXPECT_EQ(engine.effective_steal(), StealMode::kDisabled);
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();
  EXPECT_EQ(ReservoirBytes(engine.shard(0).reservoir()),
            ReservoirBytes(serial.reservoir()));
  EXPECT_TRUE(engine.shard(0).slot_strata().empty());
}

TEST(StealSchedulerTest, CheckpointsRefuseSkewedRouting) {
  // shard_skew is a bench knob manifests cannot record; a resume would
  // silently reroute uniformly, so checkpointing must refuse up front.
  const std::vector<Edge> stream = TestStream(400, 5, 361, 362);
  ShardedEngineOptions options =
      StealOptions(2, 300, 363, StealMode::kArmed, 64, /*skew=*/1.0);
  ShardedEngine engine(options);
  for (const Edge& e : stream) engine.Process(e);
  engine.Finish();
  const Status serialize =
      engine.SerializeShards(FreshDir("steal", "skewed").string());
  EXPECT_EQ(serialize.code(), StatusCode::kFailedPrecondition);
  ShardedEngine fresh(options);
  EXPECT_EQ(fresh.CheckpointEvery(10, "/tmp/unused").code(),
            StatusCode::kFailedPrecondition);
}

TEST(StealSchedulerTest, ManifestsByteIdenticalArmedVsActive) {
  // The acceptance contract end to end: checkpoint manifests and shard
  // files of a steal-on run equal the steal-off run's byte for byte.
  // Uniform routing: checkpoints refuse the skew bench knob.
  const std::vector<Edge> stream = TestStream(1000, 6, 331, 332);
  ShardedEngineOptions armed =
      StealOptions(4, 1200, 333, StealMode::kArmed, /*batch_size=*/64,
                   /*skew=*/0.0);
  armed.motifs = {"wedge", "3path"};
  ShardedEngineOptions active = armed;
  active.steal = StealMode::kActive;

  const auto checkpoint = [&stream](const ShardedEngineOptions& options,
                                    const std::filesystem::path& dir) {
    ShardedEngine engine(options);
    for (const Edge& e : stream) engine.Process(e);
    engine.Finish();
    ASSERT_TRUE(engine.SerializeShards(dir.string()).ok());
  };
  const std::filesystem::path dir_armed = FreshDir("steal", "armed");
  const std::filesystem::path dir_active = FreshDir("steal", "active");
  checkpoint(armed, dir_armed);
  checkpoint(active, dir_active);

  for (const auto& entry :
       std::filesystem::directory_iterator(dir_armed)) {
    const std::string name = entry.path().filename().string();
    std::ifstream a(entry.path(), std::ios::binary);
    std::ifstream b(dir_active / name, std::ios::binary);
    ASSERT_TRUE(a && b) << name;
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_EQ(sa.str(), sb.str()) << name;
  }

  // The checkpoint set stays consumable by the standard merge path. (The
  // manifest does not carry batch sub-strata, so the checkpoint merge
  // stratifies at shard granularity — close to, but not bit-equal with,
  // the live steal-mode merge; see src/engine/README.md.)
  const auto merged = ShardedEngine::MergeFromCheckpoints(
      std::vector<std::string>{ManifestPath(dir_armed)});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_GT(merged->wedges.value, 0.0);
}

// --- Accuracy sanity ------------------------------------------------------

TEST(StealSchedulerTest, BatchSubstreamEstimatesTrackExactCounts) {
  // The batch-substream decomposition (within-batch minis + cross-stratum
  // union pass) must remain a sound estimator, not just a deterministic
  // one. Single run, generous tolerance — the multi-trial statistical
  // gates stay with the default scheduler (engine_sharded_test).
  EdgeList graph = GenerateBarabasiAlbert(2500, 8, 0.6, 341).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 342);
  const ExactCounts exact = CountExact(CsrGraph::FromEdgeList(graph));

  ShardedEngineOptions options = StealOptions(
      4, stream.size() / 2, 343, StealMode::kActive, /*batch_size=*/256);
  const EngineState state = RunEngine(stream, options);
  EXPECT_NEAR(state.merged.triangles.value, exact.triangles,
              0.40 * exact.triangles);
  EXPECT_NEAR(state.merged.wedges.value, exact.wedges,
              0.15 * exact.wedges);
  EXPECT_GT(state.merged.triangles.variance, 0.0);
  EXPECT_GT(state.merged.wedges.variance, 0.0);
}

// --- TSan hand-off stress -------------------------------------------------

TEST(StealSchedulerTest, HandoffStressStaysDeterministic) {
  // Tiny batches + deep skew + repeated rounds: maximal steal traffic
  // through the queue/completion-map hand-off. Every round must reproduce
  // round 0 exactly; under TSan this doubles as the data-race probe for
  // the steal protocol.
  const std::vector<Edge> stream = TestStream(900, 6, 351, 352);
  ShardedEngineOptions options =
      StealOptions(4, 700, 353, StealMode::kActive, /*batch_size=*/8,
                   /*skew=*/2.0);
  options.ring_capacity = 2;

  EngineState reference;
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    EngineState state = RunEngine(stream, options);
    if (round == 0) {
      reference = std::move(state);
      continue;
    }
    ExpectSameState(reference, state, "round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace gps
