// Tests for the motif registry (core/motifs.h): name resolution, list
// parsing with by-name refusal, and the MotifSuite multi-motif pass —
// which must produce exactly the numbers each registry enumerator
// produces alone on the same sample path, without ever perturbing the
// shared reservoir.

#include "core/motifs.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/gps.h"
#include "core/in_stream.h"
#include "core/serialize.h"
#include "gen/generators.h"
#include "graph/stream.h"

namespace gps {
namespace {

TEST(MotifRegistryTest, CanonicalEntriesPresent) {
  const std::vector<MotifEntry>& entries = MotifEntries();
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(entries[0].name, "4clique");
  EXPECT_EQ(entries[1].name, "3path");
  EXPECT_EQ(entries[2].name, "4cycle");
  EXPECT_EQ(entries[3].name, "5clique");
  EXPECT_EQ(entries[4].name, "tailed_triangle");
  // The per-instance edge counts drive the post-stream multiplicity
  // division in engine/merge.cc; a wrong constant silently rescales
  // every cross-shard motif estimate.
  EXPECT_EQ(FindMotif("4clique")->num_edges, 6);
  EXPECT_EQ(FindMotif("3path")->num_edges, 3);
  EXPECT_EQ(FindMotif("4cycle")->num_edges, 4);
  EXPECT_EQ(FindMotif("5clique")->num_edges, 10);
  EXPECT_EQ(FindMotif("tailed_triangle")->num_edges, 4);
  EXPECT_EQ(FindMotif("pentagon"), nullptr);
  // Triangles and wedges are Algorithm 3's statistics, not motifs.
  EXPECT_EQ(FindMotif("tri"), nullptr);
  EXPECT_EQ(FindMotif("wedge"), nullptr);
  for (const MotifEntry& entry : entries) {
    EXPECT_NE(entry.enumerate, nullptr) << entry.name;
    EXPECT_FALSE(entry.description.empty()) << entry.name;
  }
}

TEST(MotifRegistryTest, ParseMotifNames) {
  auto ok = ParseMotifNames("4clique,3path");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(*ok, (std::vector<std::string>{"4clique", "3path"}));

  auto single = ParseMotifNames("3path");
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->size(), 1u);

  // Unknown names are refused BY NAME, the old generic triangle and
  // wedge names among them.
  for (const char* name : {"pentagon", "tri", "wedge"}) {
    auto unknown = ParseMotifNames(std::string("4clique,") + name);
    ASSERT_FALSE(unknown.ok()) << name;
    EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(unknown.status().message().find("unknown motif '" +
                                              std::string(name) + "'"),
              std::string::npos)
        << unknown.status().ToString();
  }

  auto duplicate = ParseMotifNames("3path,4cycle,3path");
  ASSERT_FALSE(duplicate.ok());
  EXPECT_NE(duplicate.status().message().find("motif '3path' listed twice"),
            std::string::npos);

  EXPECT_FALSE(ParseMotifNames("").ok());
  EXPECT_FALSE(ParseMotifNames("3path,,4cycle").ok());
  EXPECT_FALSE(ParseMotifNames("3path,").ok());
}

TEST(MotifRegistryTest, ValidateMotifNames) {
  EXPECT_TRUE(ValidateMotifNames({}).ok());
  const std::vector<std::string> all = {"4clique", "3path", "4cycle",
                                        "5clique", "tailed_triangle"};
  EXPECT_TRUE(ValidateMotifNames(all).ok());
  const std::vector<std::string> bad = {"3path", "nope"};
  EXPECT_FALSE(ValidateMotifNames(bad).ok());
}

TEST(MotifSuiteTest, MatchesLoneEnumeratorsAndLeavesSamplePathAlone) {
  EdgeList graph = GenerateBarabasiAlbert(200, 6, 0.6, 571).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 572);

  GpsSamplerOptions options;
  options.capacity = stream.size() / 3;
  options.seed = 573;

  // Reference: each registry enumerator alone, on its own GpsSampler —
  // identical seeds mean identical sample paths, because estimation
  // consumes no randomness.
  const std::vector<std::string> names = {"4clique", "3path", "4cycle"};
  struct Reference {
    GpsSampler sampler;
    MotifAccumulator acc;
  };
  std::vector<Reference> refs;
  for (size_t m = 0; m < names.size(); ++m) {
    refs.push_back({GpsSampler(options), MotifAccumulator{}});
  }
  InStreamEstimator estimator(options);
  InStreamEstimator bare(options);  // same estimator without a suite
  MotifSuite suite(names);
  for (const Edge& e : stream) {
    for (size_t m = 0; m < names.size(); ++m) {
      AccumulateMotifSnapshots(e.Canonical(), refs[m].sampler.reservoir(),
                               FindMotif(names[m])->enumerate, &refs[m].acc);
      refs[m].sampler.Process(e);
    }
    suite.Observe(e, estimator.reservoir());
    estimator.Process(e);
    bare.Process(e);
  }

  ASSERT_EQ(suite.size(), 3u);
  EXPECT_EQ(suite.Names(), names);
  for (size_t m = 0; m < names.size(); ++m) {
    SCOPED_TRACE(names[m]);
    EXPECT_GT(refs[m].acc.count, 0.0);
    EXPECT_DOUBLE_EQ(suite.accumulator(m).count, refs[m].acc.count);
    EXPECT_DOUBLE_EQ(suite.accumulator(m).variance, refs[m].acc.variance);
    EXPECT_EQ(suite.accumulator(m).snapshots, refs[m].acc.snapshots);
  }

  // Observing a suite must not perturb the shared sample path: the
  // estimator with the suite attached ends byte-identical to one without.
  std::ostringstream with_suite, without_suite;
  ASSERT_TRUE(SerializeReservoir(estimator.reservoir(), with_suite).ok());
  ASSERT_TRUE(SerializeReservoir(bare.reservoir(), without_suite).ok());
  EXPECT_EQ(with_suite.str(), without_suite.str());

  // Estimates() mirrors the accumulators in suite order.
  const std::vector<MotifEstimate> estimates = suite.Estimates();
  ASSERT_EQ(estimates.size(), 3u);
  EXPECT_EQ(estimates[0].name, "4clique");
  EXPECT_DOUBLE_EQ(estimates[0].estimate.value, refs[0].acc.count);
  EXPECT_EQ(estimates[0].snapshots, refs[0].acc.snapshots);
}

TEST(MotifSuiteTest, RestoreAccumulatorsRoundTrip) {
  const std::vector<std::string> names = {"3path", "4clique"};
  MotifSuite suite(names);
  const std::vector<MotifAccumulator> saved = {
      {12.5, 3.25, 7}, {1000.0, 90.0, 420}};
  suite.RestoreAccumulators(saved);
  EXPECT_DOUBLE_EQ(suite.accumulator(0).count, 12.5);
  EXPECT_DOUBLE_EQ(suite.accumulator(0).variance, 3.25);
  EXPECT_EQ(suite.accumulator(0).snapshots, 7u);
  EXPECT_DOUBLE_EQ(suite.accumulator(1).count, 1000.0);

  // Restored state keeps accumulating.
  GpsSamplerOptions options;
  options.capacity = 16;
  options.seed = 1;
  InStreamEstimator est(options);
  const Edge edges[] = {MakeEdge(0, 1), MakeEdge(1, 2), MakeEdge(2, 3)};
  for (const Edge& e : edges) {
    suite.Observe(e, est.reservoir());
    est.Process(e);
  }
  // The third arrival completes one 3-path snapshot on top of the
  // restored 12.5.
  EXPECT_DOUBLE_EQ(suite.accumulator(0).count, 13.5);
  EXPECT_EQ(suite.accumulator(0).snapshots, 8u);
}

TEST(MotifSuiteTest, EmptySuiteIsInert) {
  MotifSuite suite;
  EXPECT_TRUE(suite.empty());
  GpsSamplerOptions options;
  options.capacity = 8;
  options.seed = 2;
  InStreamEstimator est(options);
  suite.Observe(MakeEdge(1, 2), est.reservoir());  // must not crash
  EXPECT_EQ(suite.size(), 0u);
  EXPECT_TRUE(suite.Estimates().empty());
}

}  // namespace
}  // namespace gps
