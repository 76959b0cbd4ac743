// Tests for checkpoint serialization: resumed runs must be bit-identical
// to uninterrupted runs; corrupted/invalid checkpoints must fail cleanly;
// the streaming formatter writes exactly the bytes of printf("%.17g").

#include "core/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/motifs.h"
#include "core/post_stream.h"
#include "gen/generators.h"
#include "graph/stream.h"
#include "util/text_writer.h"

namespace gps {
namespace {

std::vector<Edge> TestStream(uint64_t seed) {
  EdgeList graph = GenerateBarabasiAlbert(200, 5, 0.4, seed).value();
  return MakePermutedStream(graph, seed + 1);
}

TEST(SerializeTest, ReservoirRoundTripPreservesEverything) {
  const std::vector<Edge> stream = TestStream(601);
  GpsSamplerOptions options;
  options.capacity = 100;
  options.seed = 602;
  GpsSampler sampler(options);
  for (const Edge& e : stream) sampler.Process(e);

  std::stringstream buffer;
  ASSERT_TRUE(SerializeReservoir(sampler.reservoir(), buffer).ok());
  auto restored = DeserializeReservoir(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(restored->size(), sampler.reservoir().size());
  EXPECT_DOUBLE_EQ(restored->threshold(), sampler.reservoir().threshold());
  EXPECT_EQ(restored->edges_processed(),
            sampler.reservoir().edges_processed());
  EXPECT_EQ(restored->options().capacity, 100u);
  EXPECT_TRUE(restored->CheckInvariants());

  // Every edge present with identical weight/priority.
  sampler.reservoir().ForEachEdge(
      [&](SlotId, const GpsReservoir::EdgeRecord& rec) {
        const SlotId slot = restored->graph().FindEdge(rec.edge);
        ASSERT_NE(slot, kNoSlot) << EdgeToString(rec.edge);
        EXPECT_DOUBLE_EQ(restored->Record(slot).weight, rec.weight);
        EXPECT_DOUBLE_EQ(restored->Record(slot).priority, rec.priority);
      });

  // Post-stream estimates agree exactly.
  const GraphEstimates a = EstimatePostStream(sampler.reservoir());
  const GraphEstimates b = EstimatePostStream(*restored);
  EXPECT_DOUBLE_EQ(a.triangles.value, b.triangles.value);
  EXPECT_DOUBLE_EQ(a.wedges.variance, b.wedges.variance);
}

TEST(SerializeTest, ResumedInStreamEstimatorMatchesUninterrupted) {
  const std::vector<Edge> stream = TestStream(621);
  GpsSamplerOptions options;
  options.capacity = 150;
  options.seed = 622;

  InStreamEstimator uninterrupted(options);
  for (const Edge& e : stream) uninterrupted.Process(e);

  InStreamEstimator first_half(options);
  for (size_t i = 0; i < stream.size() / 3; ++i) {
    first_half.Process(stream[i]);
  }
  std::stringstream buffer;
  ASSERT_TRUE(
      SerializeInStreamEstimator(first_half, MotifSuite(), StreamSink(buffer))
          .ok());
  auto resumed = DeserializeInStreamEstimator(buffer);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->motif_names.empty());
  EXPECT_TRUE(resumed->motif_accumulators.empty());
  for (size_t i = stream.size() / 3; i < stream.size(); ++i) {
    resumed->estimator.Process(stream[i]);
  }

  const GraphEstimates a = uninterrupted.Estimates();
  const GraphEstimates b = resumed->estimator.Estimates();
  EXPECT_DOUBLE_EQ(a.triangles.value, b.triangles.value);
  EXPECT_DOUBLE_EQ(a.triangles.variance, b.triangles.variance);
  EXPECT_DOUBLE_EQ(a.wedges.value, b.wedges.value);
  EXPECT_DOUBLE_EQ(a.wedges.variance, b.wedges.variance);
  EXPECT_DOUBLE_EQ(a.tri_wedge_cov, b.tri_wedge_cov);
}

TEST(SerializeTest, CustomWeightRefused) {
  GpsSamplerOptions options;
  options.capacity = 10;
  options.weight.kind = WeightKind::kCustom;
  options.weight.custom = [](const Edge&, const SampledGraph&) {
    return 1.0;
  };
  InStreamEstimator estimator(options);
  std::stringstream buffer;
  const Status s =
      SerializeInStreamEstimator(estimator, MotifSuite(), StreamSink(buffer));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(SerializeTest, RejectsWrongHeader) {
  std::stringstream buffer("GPS-SOMETHING 1\n");
  auto r = DeserializeReservoir(buffer);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, RejectsWrongVersion) {
  std::stringstream buffer("GPS-RESERVOIR 99\n");
  auto r = DeserializeReservoir(buffer);
  ASSERT_FALSE(r.ok());
}

TEST(SerializeTest, RejectsTruncatedPayload) {
  const std::vector<Edge> stream = TestStream(631);
  GpsSamplerOptions options;
  options.capacity = 50;
  options.seed = 632;
  GpsSampler sampler(options);
  for (const Edge& e : stream) sampler.Process(e);
  std::stringstream buffer;
  ASSERT_TRUE(SerializeReservoir(sampler.reservoir(), buffer).ok());
  const std::string full = buffer.str();
  // Cut the payload in half.
  std::stringstream truncated(full.substr(0, full.size() / 2));
  auto r = DeserializeReservoir(truncated);
  ASSERT_FALSE(r.ok());
}

TEST(SerializeTest, RejectsSelfLoopRecord) {
  std::stringstream buffer(
      "GPS-RESERVOIR 1\n"
      "10 1\n"
      "0 1\n"
      "1 2 3 4\n"
      "1\n"
      "5 5 1 2 0 0\n");
  auto r = DeserializeReservoir(buffer);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, RejectsOvercapacityCheckpoint) {
  std::stringstream buffer(
      "GPS-RESERVOIR 1\n"
      "1 1\n"
      "0 5\n"
      "1 2 3 4\n"
      "2\n"
      "0 1 1 2 0 0\n"
      "1 2 1 2 0 0\n");
  auto r = DeserializeReservoir(buffer);
  ASSERT_FALSE(r.ok());
}

TEST(SerializeTest, EmptyReservoirRoundTrip) {
  GpsReservoir empty(GpsOptions{32, 7});
  std::stringstream buffer;
  ASSERT_TRUE(SerializeReservoir(empty, buffer).ok());
  auto r = DeserializeReservoir(buffer);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 0u);
  EXPECT_EQ(r->options().capacity, 32u);
}

// Checkpoints are untrusted cross-machine input: corrupt numeric fields
// must be rejected with typed errors, never silently reconstructed.
// Layout reminder: "GPS-RESERVOIR 1\n capacity seed\n z* processed\n
// rng0..rng3\n num_edges\n u v weight priority cov_tri cov_wedge\n".
TEST(SerializeTest, RejectsCorruptReservoirFields) {
  const struct {
    const char* name;
    const char* text;
  } kCases[] = {
      {"negative weight",
       "GPS-RESERVOIR 1\n10 1\n0 1\n1 2 3 4\n1\n3 5 -1 2 0 0\n"},
      {"zero weight",
       "GPS-RESERVOIR 1\n10 1\n0 1\n1 2 3 4\n1\n3 5 0 2 0 0\n"},
      {"priority below weight (u > 1 impossible)",
       "GPS-RESERVOIR 1\n10 1\n0 1\n1 2 3 4\n1\n3 5 2 1.5 0 0\n"},
      {"priority below threshold",
       "GPS-RESERVOIR 1\n1 1\n2 5\n1 2 3 4\n1\n3 5 1 1.5 0 0\n"},
      {"negative threshold",
       "GPS-RESERVOIR 1\n10 1\n-1 1\n1 2 3 4\n1\n3 5 1 2 0 0\n"},
      {"non-canonical edge",
       "GPS-RESERVOIR 1\n10 1\n0 1\n1 2 3 4\n1\n5 3 1 2 0 0\n"},
      {"more edges than arrivals",
       "GPS-RESERVOIR 1\n10 1\n0 1\n1 2 3 4\n2\n"
       "1 2 1 2 0 0\n3 4 1 2 0 0\n"},
      {"thresholded but not full",
       "GPS-RESERVOIR 1\n10 1\n1 5\n1 2 3 4\n1\n3 5 1 2 0 0\n"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    std::stringstream buffer(c.text);
    auto r = DeserializeReservoir(buffer);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
}

TEST(SerializeTest, RejectsOversizedCapacityBeforeAllocating) {
  // A corrupt header must not drive an allocation: this declares an
  // absurd capacity AND matching edge count; the deserializer has to
  // fail on the capacity ceiling before reserving anything by it.
  std::stringstream buffer(
      "GPS-RESERVOIR 1\n"
      "999999999999 1\n"
      "0 999999999999\n"
      "1 2 3 4\n"
      "999999999999\n");
  auto r = DeserializeReservoir(buffer);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("capacity"), std::string::npos);
}

TEST(SerializeTest, RejectsRecordCountBeyondTheFileBeforeAllocating) {
  // A header at the capacity ceiling claiming 2^28 records (40 B each,
  // 10 GiB) in a file that holds none: refused as truncated after
  // reading what is there, without sizing anything by the claimed count.
  std::stringstream buffer(
      "GPS-RESERVOIR 1\n"
      "268435456 3\n"
      "0 268435456\n"
      "1 2 3 4\n"
      "268435456\n");
  auto r = DeserializeReservoir(buffer);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().message().find("edge records"), std::string::npos)
      << r.status().ToString();
}

TEST(SerializeTest, RejectsInvalidInStreamAccumulators) {
  // "GPS-INSTREAM 2\n <weight kind coeff adj default>\n <5 accumulators>\n
  // <motif line>\n" followed by a reservoir block (never reached here).
  std::stringstream buffer(
      "GPS-INSTREAM 2\n"
      "2 9 1 1\n"
      "-1 0 0 0 0\n"
      "0\n"
      "GPS-RESERVOIR 1\n10 1\n0 0\n1 2 3 4\n0\n");
  auto r = DeserializeInStreamEstimator(buffer);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

/// A K=1-sized in-stream run over `stream` with a motif suite beside it,
/// fed as a shard worker feeds them: the suite observes each arrival
/// before the estimator samples it.
struct SuiteRun {
  InStreamEstimator estimator;
  MotifSuite suite;
};

SuiteRun RunWithSuite(const std::vector<Edge>& stream,
                      const std::vector<std::string>& motifs) {
  GpsSamplerOptions options;
  options.capacity = 120;
  options.seed = 642;
  SuiteRun run{InStreamEstimator(options), MotifSuite(motifs)};
  for (const Edge& e : stream) {
    run.suite.Observe(e, run.estimator.reservoir());
    run.estimator.Process(e);
  }
  return run;
}

TEST(SerializeTest, ShardFileCarriesTheMotifSuite) {
  // Version 2 adds one line after the accumulators: the suite's size,
  // then per motif its name, count, variance and snapshots. The rest of
  // the file is the version-1 layout.
  const SuiteRun run = RunWithSuite(TestStream(641), {"3path", "4clique"});
  ASSERT_GT(run.suite.accumulator(0).count, 0.0);
  std::stringstream buffer;
  ASSERT_TRUE(SerializeInStreamEstimator(run.estimator, run.suite,
                                         StreamSink(buffer))
                  .ok());
  const std::string text = buffer.str();
  ASSERT_EQ(text.rfind("GPS-INSTREAM 2\n", 0), 0u) << text.substr(0, 80);
  std::istringstream lines(text);
  std::string line;
  for (int i = 0; i < 4; ++i) std::getline(lines, line);
  EXPECT_EQ(line.rfind("2 3path ", 0), 0u) << line;
  EXPECT_NE(line.find(" 4clique "), std::string::npos) << line;
  std::getline(lines, line);
  EXPECT_EQ(line, "GPS-RESERVOIR 1");

  auto restored = DeserializeInStreamEstimator(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->motif_names, run.suite.Names());
  ASSERT_EQ(restored->motif_accumulators.size(), 2u);
  for (size_t m = 0; m < 2; ++m) {
    EXPECT_EQ(restored->motif_accumulators[m].count,
              run.suite.accumulator(m).count);
    EXPECT_EQ(restored->motif_accumulators[m].variance,
              run.suite.accumulator(m).variance);
    EXPECT_EQ(restored->motif_accumulators[m].snapshots,
              run.suite.accumulator(m).snapshots);
  }
  // Written again, the restored state is the same bytes.
  MotifSuite suite(restored->motif_names);
  suite.RestoreAccumulators(restored->motif_accumulators);
  std::stringstream again;
  ASSERT_TRUE(
      SerializeInStreamEstimator(restored->estimator, suite, StreamSink(again))
          .ok());
  EXPECT_EQ(again.str(), text);
}

TEST(SerializeTest, ShardFileRejectsCorruptMotifLine) {
  const struct {
    const char* name;
    const char* motif_line;
    StatusCode want;
    const char* message;
  } kCases[] = {
      {"unknown motif", "1 pentagon 1 0 1", StatusCode::kInvalidArgument,
       "checkpoint motif set: unknown motif 'pentagon'"},
      {"generic triangle motif", "1 tri 1 0 1", StatusCode::kInvalidArgument,
       "checkpoint motif set: unknown motif 'tri'"},
      {"generic wedge motif", "2 3path 1 0 1 wedge 1 0 1",
       StatusCode::kInvalidArgument,
       "checkpoint motif set: unknown motif 'wedge'"},
      {"duplicate motif", "2 3path 1 0 1 3path 1 0 1",
       StatusCode::kInvalidArgument, "motif '3path' listed twice"},
      {"negative count", "1 3path -1 0 1", StatusCode::kInvalidArgument,
       "invalid '3path' motif accumulator in checkpoint"},
      {"negative variance", "1 3path 1 -2 1", StatusCode::kInvalidArgument,
       "invalid '3path' motif accumulator in checkpoint"},
      {"seven motifs, tri first",
       "7 tri 1 0 1 wedge 1 0 1 4clique 1 0 1 3path 1 0 1 4cycle 1 0 1 "
       "5clique 1 0 1 tailed_triangle 1 0 1",
       StatusCode::kInvalidArgument,
       "checkpoint motif set: unknown motif 'tri'"},
      {"six motifs, a registered one repeated",
       "6 4clique 1 0 1 3path 1 0 1 4cycle 1 0 1 5clique 1 0 1 "
       "tailed_triangle 1 0 1 4cycle 1 0 1",
       StatusCode::kInvalidArgument, "motif '4cycle' listed twice"},
      {"short accumulator line", "1 3path 1", StatusCode::kInvalidArgument,
       "malformed checkpoint: motif accumulators"},
      {"non-numeric variance", "1 3path 1 abc 1",
       StatusCode::kInvalidArgument,
       "malformed checkpoint: motif accumulators"},
      {"inf variance", "1 3path 1 inf 1", StatusCode::kInvalidArgument,
       "malformed checkpoint: motif accumulators"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    std::stringstream buffer(
        std::string("GPS-INSTREAM 2\n2 9 1 1\n0 0 0 0 0 \n") +
        c.motif_line + "\nGPS-RESERVOIR 1\n10 1\n0 0\n1 2 3 4\n0\n");
    auto r = DeserializeInStreamEstimator(buffer);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), c.want) << r.status().ToString();
    EXPECT_NE(r.status().message().find(c.message), std::string::npos)
        << r.status().ToString();
  }
  // A file that ends inside the motif line is truncated, not malformed.
  std::stringstream cut("GPS-INSTREAM 2\n2 9 1 1\n0 0 0 0 0 \n1 3path 1");
  auto r = DeserializeInStreamEstimator(cut);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError) << r.status().ToString();
  EXPECT_EQ(r.status().message(), "truncated checkpoint: motif accumulators");
  // So does one whose huge motif count is followed by nothing: the count
  // sizes nothing, and the first missing name ends the read.
  std::stringstream huge(
      "GPS-INSTREAM 2\n2 9 1 1\n0 0 0 0 0 \n18446744073709551615");
  auto h = DeserializeInStreamEstimator(huge);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kIoError) << h.status().ToString();
  EXPECT_EQ(h.status().message(), "truncated checkpoint: motif accumulators");
}

TEST(SerializeTest, ReservoirMetadataNamesTruncatedAndMalformed) {
  // Layout reminder: "GPS-RESERVOIR 1\n capacity seed\n z* processed\n
  // rng0..rng3\n num_edges\n". A token the field cannot take is
  // malformed; a file that ends inside the metadata is truncated.
  const struct {
    const char* name;
    const char* text;
    StatusCode want;
    const char* message;
  } kCases[] = {
      {"non-numeric capacity", "GPS-RESERVOIR 1\nabc 1\n0 0\n1 2 3 4\n0\n",
       StatusCode::kInvalidArgument,
       "malformed checkpoint: reservoir metadata"},
      {"inf threshold", "GPS-RESERVOIR 1\n10 1\ninf 0\n1 2 3 4\n0\n",
       StatusCode::kInvalidArgument,
       "malformed checkpoint: reservoir metadata"},
      {"ends inside the rng state", "GPS-RESERVOIR 1\n10 1\n0 0\n1 2",
       StatusCode::kIoError, "truncated checkpoint: reservoir metadata"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    std::stringstream buffer(c.text);
    auto r = DeserializeReservoir(buffer);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), c.want) << r.status().ToString();
    EXPECT_EQ(r.status().message(), c.message);
  }
}

TEST(SerializeTest, ShardFileVersionOneIsRefusedByName) {
  // A version-1 shard file has no motif line; the reader takes version 2
  // only and names the version it found.
  std::stringstream buffer(
      "GPS-INSTREAM 1\n2 9 1 1\n0 0 0 0 0 \n"
      "GPS-RESERVOIR 1\n10 1\n0 0\n1 2 3 4\n0\n");
  auto r = DeserializeInStreamEstimator(buffer);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find(
                "unsupported checkpoint version 1 for GPS-INSTREAM"),
            std::string::npos)
      << r.status().ToString();
}

ShardManifest TestManifest() {
  ShardManifest manifest;
  manifest.num_shards = 4;
  manifest.base_seed = 42;
  manifest.total_capacity = 1000;
  manifest.stream_offset = 600;
  manifest.weight.kind = WeightKind::kTriangleWedge;
  manifest.weight.coefficient = 9.0;
  manifest.weight.adjacency_coefficient = 2.5;
  manifest.weight.default_weight = 0.5;
  manifest.digests = {0x1234abcdu, 7, 0x9876fedcu, 0};
  return manifest;
}

TEST(SerializeTest, ManifestRoundTripPreservesEverything) {
  const ShardManifest manifest = TestManifest();
  std::stringstream buffer;
  ASSERT_TRUE(SerializeManifest(manifest, StreamSink(buffer)).ok());
  auto r = DeserializeManifest(buffer);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_shards, manifest.num_shards);
  EXPECT_EQ(r->base_seed, manifest.base_seed);
  EXPECT_EQ(r->total_capacity, manifest.total_capacity);
  EXPECT_EQ(r->stream_offset, manifest.stream_offset);
  EXPECT_EQ(r->weight.kind, manifest.weight.kind);
  EXPECT_DOUBLE_EQ(r->weight.coefficient, manifest.weight.coefficient);
  EXPECT_DOUBLE_EQ(r->weight.adjacency_coefficient,
                   manifest.weight.adjacency_coefficient);
  EXPECT_DOUBLE_EQ(r->weight.default_weight,
                   manifest.weight.default_weight);
  EXPECT_EQ(r->digests, manifest.digests);
}

TEST(SerializeTest, ManifestHoldsOnlyTheLayoutAndTheDigests) {
  // Header, layout line, weights, motif names, then the K digests in
  // shard order: nothing a shard file already holds.
  ShardManifest manifest = TestManifest();
  manifest.motif_names = {"3path", "4clique"};
  std::stringstream buffer;
  ASSERT_TRUE(SerializeManifest(manifest, StreamSink(buffer)).ok());
  EXPECT_EQ(buffer.str(),
            "GPS-MANIFEST 6\n"
            "4 42 1000 600\n"
            "3 9 2.5 0.5\n"
            "2 3path 4clique\n"
            "305441741\n"
            "7\n"
            "2557935324\n"
            "0\n");
}

TEST(SerializeTest, ManifestMotifSetRoundTrip) {
  ShardManifest manifest = TestManifest();
  manifest.motif_names = {"3path", "4clique"};
  std::stringstream buffer;
  ASSERT_TRUE(SerializeManifest(manifest, StreamSink(buffer)).ok());
  auto r = DeserializeManifest(buffer);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->motif_names, manifest.motif_names);
  EXPECT_EQ(r->digests.size(), 4u);
}

TEST(SerializeTest, ManifestMotifValidation) {
  // Unknown motif names are refused BY NAME on write and read.
  ShardManifest unknown = TestManifest();
  unknown.motif_names = {"3path", "pentagon"};
  std::stringstream buffer;
  const Status write = SerializeManifest(unknown, StreamSink(buffer));
  ASSERT_FALSE(write.ok());
  EXPECT_NE(write.message().find("pentagon"), std::string::npos)
      << write.ToString();
  // So are the generic triangle and wedge motifs: Algorithm 3 owns
  // those statistics, and no mapping keeps the old names readable.
  for (const char* name : {"pentagon", "tri", "wedge"}) {
    SCOPED_TRACE(name);
    std::stringstream crafted(
        std::string("GPS-MANIFEST 6\n1 42 1000 0\n2 9 1 1\n1 ") + name +
        "\n0\n");
    auto r = DeserializeManifest(crafted);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("manifest motif set: unknown motif '" +
                                        std::string(name) + "'"),
              std::string::npos)
        << r.status().ToString();
  }

  // A duplicated motif name is refused.
  {
    std::stringstream crafted(
        "GPS-MANIFEST 6\n1 42 1000 0\n2 9 1 1\n2 3path 3path\n0\n");
    auto r = DeserializeManifest(crafted);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("motif '3path' listed twice"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST(SerializeTest, ManifestSerializationValidates) {
  // One digest more, and one fewer, than shards.
  ShardManifest extra = TestManifest();
  extra.digests.push_back(1);
  ShardManifest missing = TestManifest();
  missing.digests.pop_back();
  // Non-finite weight configuration.
  ShardManifest nan_weight = TestManifest();
  nan_weight.weight.coefficient = std::nan("");
  // Zero capacity.
  ShardManifest zero_cap = TestManifest();
  zero_cap.total_capacity = 0;

  for (const ShardManifest* m : {&extra, &missing, &nan_weight, &zero_cap}) {
    std::stringstream buffer;
    const Status s = SerializeManifest(*m, StreamSink(buffer));
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  }
}

TEST(SerializeTest, ManifestRejectsCorruptText) {
  // Layout reminder: "GPS-MANIFEST 6\n K base_seed capacity offset\n
  // kind coeff adj default\n num_motifs names\n digest\n" (K digests).
  const struct {
    const char* name;
    const char* text;
    StatusCode want;
    const char* message;
  } kCases[] = {
      {"wrong header", "GPS-NOPE 6\n", StatusCode::kInvalidArgument,
       "expected GPS-MANIFEST, found GPS-NOPE"},
      {"truncated", "GPS-MANIFEST 6\n4 42\n", StatusCode::kIoError,
       "truncated manifest: layout"},
      {"non-numeric layout", "GPS-MANIFEST 6\n4 42 abc 0\n2 9 1 1\n0\n",
       StatusCode::kInvalidArgument, "malformed manifest: layout"},
      {"inf in layout", "GPS-MANIFEST 6\n4 42 inf 0\n2 9 1 1\n0\n",
       StatusCode::kInvalidArgument, "malformed manifest: layout"},
      {"zero shards", "GPS-MANIFEST 6\n0 42 1000 0\n2 9 1 1\n0\n",
       StatusCode::kInvalidArgument, "manifest shard count 0 outside"},
      {"shard count over ceiling",
       "GPS-MANIFEST 6\n5000 42 1000 0\n2 9 1 1\n0\n",
       StatusCode::kInvalidArgument, "manifest shard count 5000 outside"},
      {"capacity over ceiling",
       "GPS-MANIFEST 6\n1 42 999999999999 0\n2 9 1 1\n0\n7\n",
       StatusCode::kInvalidArgument, "manifest capacity 999999999999"},
      {"fewer digests than shards",
       "GPS-MANIFEST 6\n4 42 1000 250\n2 9 1 1\n0\n777\n778\n",
       StatusCode::kIoError, "truncated manifest: shard digests"},
      {"non-numeric digest",
       "GPS-MANIFEST 6\n2 42 1000 250\n2 9 1 1\n0\n777\nshard-0001\n",
       StatusCode::kInvalidArgument, "malformed manifest: shard digests"},
      {"seven motif names, tri first",
       "GPS-MANIFEST 6\n1 42 1000 0\n2 9 1 1\n"
       "7 tri wedge 4clique 3path 4cycle 5clique tailed_triangle\n0\n",
       StatusCode::kInvalidArgument,
       "manifest motif set: unknown motif 'tri'"},
      {"six names, a registered one repeated",
       "GPS-MANIFEST 6\n1 42 1000 0\n2 9 1 1\n"
       "6 4clique 3path 4cycle 5clique tailed_triangle 3path\n0\n",
       StatusCode::kInvalidArgument, "motif '3path' listed twice"},
      {"huge motif count, then end of file",
       "GPS-MANIFEST 6\n1 42 1000 0\n2 9 1 1\n18446744073709551615",
       StatusCode::kIoError, "truncated manifest: motif names"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    std::stringstream buffer(c.text);
    auto r = DeserializeManifest(buffer);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), c.want) << r.status().ToString();
    EXPECT_NE(r.status().message().find(c.message), std::string::npos)
        << r.status().ToString();
  }
}

TEST(SerializeTest, ManifestVersionCompatibility) {
  // The reader takes exactly the version writers emit, 6.
  const std::string body = "\n1 42 1000 900\n2 9 1 1\n0\n777\n";
  {
    std::stringstream v6("GPS-MANIFEST 6" + body);
    auto r = DeserializeManifest(v6);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->stream_offset, 900u);
    EXPECT_TRUE(r->motif_names.empty());
    EXPECT_EQ(r->digests, std::vector<uint64_t>{777});
  }
  // Every other version is refused by name, older ones included: their
  // layout lines and entries differ from this one.
  for (const int version : {1, 2, 3, 4, 5, 7}) {
    SCOPED_TRACE("version " + std::to_string(version));
    std::stringstream other("GPS-MANIFEST " + std::to_string(version) +
                            body);
    auto r = DeserializeManifest(other);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(
                  "unsupported checkpoint version " +
                  std::to_string(version) + " for GPS-MANIFEST"),
              std::string::npos)
        << r.status().ToString();
  }
  // A version-5 manifest as the previous writer emitted it (an entry
  // count, then "index digest" lines): refused by name before its layout
  // line is read.
  {
    std::stringstream v5(
        "GPS-MANIFEST 5\n1 42 1000 900\n2 9 1 1\n0\n1\n0 777\n");
    auto r = DeserializeManifest(v5);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find(
                  "unsupported checkpoint version 5 for GPS-MANIFEST"),
              std::string::npos)
        << r.status().ToString();
  }
  // A truncated layout line (offset missing) is an IO error.
  {
    std::stringstream truncated("GPS-MANIFEST 6\n4 42 1000\n");
    auto r = DeserializeManifest(truncated);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  }
  // Writers always emit the current version.
  std::stringstream out;
  ASSERT_TRUE(SerializeManifest(TestManifest(), StreamSink(out)).ok());
  EXPECT_EQ(out.str().rfind("GPS-MANIFEST 6", 0), 0u) << out.str();
}

TEST(SerializeTest, ChecksumIsStableAndSensitive) {
  const uint64_t a = ChecksumBytes("GPS checkpoint payload");
  EXPECT_EQ(a, ChecksumBytes("GPS checkpoint payload"));
  EXPECT_NE(a, ChecksumBytes("GPS checkpoint payloaD"));
  EXPECT_NE(ChecksumBytes(""), ChecksumBytes(std::string_view("\0", 1)));
}

/// The reference every checkpoint double is pinned to: the bytes the
/// format has always had.
std::string PrintfG17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double FromBits(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

TEST(SerializeTest, FormatterDoublesMatchPrintfG17) {
  std::vector<double> values;
  std::mt19937_64 rng(20170817);
  // Random sign and mantissa under every biased exponent: 0 is the
  // subnormals, 2047 infinities and NaNs.
  for (uint64_t exponent = 0; exponent < 2048; ++exponent) {
    for (int i = 0; i < 64; ++i) {
      values.push_back(
          FromBits((rng() & 0x800FFFFFFFFFFFFFull) | (exponent << 52)));
    }
  }
  // Uniform random 64-bit patterns.
  for (int i = 0; i < 100000; ++i) values.push_back(FromBits(rng()));
  // Zeros, the subnormal range's ends and the finite extremes.
  using Limits = std::numeric_limits<double>;
  for (double v : {0.0, Limits::denorm_min(), Limits::min(),
                   std::nextafter(Limits::min(), 0.0), Limits::max(),
                   Limits::epsilon()}) {
    values.push_back(v);
    values.push_back(-v);
  }
  // Powers of ten and their neighbours one ulp away.
  for (int p = -323; p <= 308; ++p) {
    const double ten = std::strtod(("1e" + std::to_string(p)).c_str(), nullptr);
    for (double v : {ten, std::nextafter(ten, 0.0),
                     std::nextafter(ten, Limits::infinity())}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  // Large integers: around 2^53 (the last exactly representable run),
  // 2^63/2^64, and the 16/17-digit boundary of %.17g.
  for (int k = -4; k <= 4; ++k) {
    for (double base : {std::ldexp(1.0, 53), std::ldexp(1.0, 63),
                        std::ldexp(1.0, 64), 1e15, 1e16, 1e17, 1e22}) {
      values.push_back(base + k * std::max(1.0, std::ldexp(base, -52)));
    }
  }

  std::string written;
  TextWriter out([&written](std::string_view chunk) {
    EXPECT_LE(chunk.size(), TextWriter::kChunkBytes);
    written.append(chunk);
    return Status::Ok();
  });
  for (double v : values) out.Double(v).Char('\n');
  ASSERT_TRUE(out.Finish().ok());
  ASSERT_GT(written.size(), 4 * TextWriter::kChunkBytes);  // many chunks

  size_t pos = 0;
  size_t mismatches = 0;
  for (double v : values) {
    const size_t end = written.find('\n', pos);
    ASSERT_NE(end, std::string::npos);
    const std::string_view got(written.data() + pos, end - pos);
    const std::string want = PrintfG17(v);
    if (got != want && ++mismatches <= 5) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      ADD_FAILURE() << "bits 0x" << std::hex << bits << ": wrote '" << got
                    << "', printf wrote '" << want << "'";
    }
    pos = end + 1;
  }
  EXPECT_EQ(pos, written.size());
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " doubles";
}

TEST(SerializeTest, FormatterIntegersAndLongTextSpanChunks) {
  std::string written;
  TextWriter out([&written](std::string_view chunk) {
    written.append(chunk);
    return Status::Ok();
  });
  const std::string long_text(2 * TextWriter::kChunkBytes + 7, 'x');
  out.Text(long_text).Char(' ');
  out.Int(uint64_t{0}).Char(' ').Int(std::numeric_limits<uint64_t>::max());
  out.Char(' ').Int(-1).Char(' ').Int(std::numeric_limits<int64_t>::min());
  ASSERT_TRUE(out.Finish().ok());
  EXPECT_EQ(written, long_text + " 0 18446744073709551615 -1 "
                                 "-9223372036854775808");
}

}  // namespace
}  // namespace gps
