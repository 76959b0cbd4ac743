// Tests for parallel post-stream estimation: the fixed-chunk driver makes
// EstimatePostStreamParallel bit-identical to EstimatePostStream for every
// thread count and reservoir size.

#include <vector>

#include <gtest/gtest.h>

#include "core/gps.h"
#include "core/post_stream.h"
#include "gen/generators.h"
#include "graph/stream.h"

namespace gps {
namespace {

GpsSampler SampleGraph(size_t capacity, uint64_t seed) {
  EdgeList graph = GenerateBarabasiAlbert(800, 8, 0.5, 701).value();
  const std::vector<Edge> stream = MakePermutedStream(graph, 702);
  GpsSamplerOptions options;
  options.capacity = capacity;
  options.seed = seed;
  GpsSampler sampler(options);
  for (const Edge& e : stream) sampler.Process(e);
  return sampler;
}

void ExpectBitIdentical(const GraphEstimates& a, const GraphEstimates& b) {
  EXPECT_EQ(a.triangles.value, b.triangles.value);
  EXPECT_EQ(a.triangles.variance, b.triangles.variance);
  EXPECT_EQ(a.wedges.value, b.wedges.value);
  EXPECT_EQ(a.wedges.variance, b.wedges.variance);
  EXPECT_EQ(a.tri_wedge_cov, b.tri_wedge_cov);
}

class ParallelPostStreamTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelPostStreamTest, MatchesSerialEstimates) {
  // 4000 sampled edges: enough fixed-size chunks to keep 16 threads busy.
  const GpsSampler sampler = SampleGraph(4000, 703);
  ExpectBitIdentical(
      EstimatePostStream(sampler.reservoir()),
      EstimatePostStreamParallel(sampler.reservoir(), GetParam()));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelPostStreamTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

TEST(ParallelPostStreamTest, SmallReservoirFallsBackToSerial) {
  // Fewer sampled edges than one chunk: a single worker runs the pass.
  const GpsSampler sampler = SampleGraph(200, 704);
  ExpectBitIdentical(EstimatePostStream(sampler.reservoir()),
                     EstimatePostStreamParallel(sampler.reservoir(), 8));
}

TEST(ParallelPostStreamTest, EmptyReservoir) {
  GpsReservoir empty(GpsOptions{16, 1});
  const GraphEstimates est = EstimatePostStreamParallel(empty, 4);
  EXPECT_EQ(est.triangles.value, 0.0);
  EXPECT_EQ(est.wedges.value, 0.0);
}

}  // namespace
}  // namespace gps
