// Strong-scaling bench for parallel post-stream estimation. The paper
// (Section 6, "Scalability and Runtime") states Algorithm 2 "uses a
// scalable parallel approach ... with strong scaling properties" but omits
// the numbers; this bench regenerates that experiment: fixed sample,
// runtime and speedup vs worker count.
//
//   build/bench_scaling [--json FILE]
//
// --json FILE emits the rows as machine-readable JSON so the scaling
// trajectory can be archived and diffed across runs.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/gps.h"
#include "core/post_stream.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace gps;         // NOLINT
using namespace gps::bench;  // NOLINT

constexpr size_t kCapacity = 60000;
constexpr int kRepeats = 5;

double TimeEstimate(const GpsReservoir& reservoir, unsigned threads) {
  // Warm-up + best-of-N to suppress scheduler noise.
  double best = 1e300;
  for (int i = 0; i < kRepeats; ++i) {
    WallTimer timer;
    const GraphEstimates est =
        threads == 0 ? EstimatePostStream(reservoir)
                     : EstimatePostStreamParallel(reservoir, threads);
    const double elapsed = timer.ElapsedSeconds();
    if (est.triangles.value < 0) std::abort();  // keep the result alive
    best = std::min(best, elapsed);
  }
  return best;
}

struct ScalingRow {
  unsigned threads = 0;  // 0 = serial entry point
  double seconds = 0.0;
  double speedup = 1.0;
};

void WriteJson(const std::string& path, const std::string& graph_name,
               size_t sampled_edges, unsigned hw,
               const std::vector<ScalingRow>& rows) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"bench\": \"bench_scaling\",\n";
  out << "  \"graph\": \"" << graph_name << "\",\n";
  out << "  \"sampled_edges\": " << sampled_edges << ",\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"rows\": [\n";
  char buf[160];
  for (size_t i = 0; i < rows.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"threads\": %u, \"seconds\": %.6g, "
                  "\"speedup\": %.17g}%s\n",
                  rows[i].threads, rows[i].seconds, rows[i].speedup,
                  i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  if (!out) {
    std::fprintf(stderr, "cannot write JSON artifact %s\n", path.c_str());
    std::exit(2);
  }
  std::printf("JSON artifact written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_scaling [--json FILE]\n");
      return 2;
    }
  }

  const double scale = BenchScale(1.0);
  const BenchGraph bg = LoadBenchGraph("socfb-texas-sim", scale, 0xAB8);
  const size_t capacity =
      std::min(kCapacity, std::max<size_t>(1024, bg.stream.size() / 4));

  GpsSamplerOptions options;
  options.capacity = capacity;
  options.seed = 31;
  GpsSampler sampler(options);
  for (const Edge& e : bg.stream) sampler.Process(e);

  std::printf("Post-stream estimation strong scaling on %s "
              "(m=%zu sampled edges; best of %d runs)\n",
              bg.name.c_str(), sampler.reservoir().size(), kRepeats);

  const double serial = TimeEstimate(sampler.reservoir(), 0);
  std::vector<ScalingRow> rows;
  rows.push_back({0, serial, 1.0});
  TextTable t({"threads", "seconds", "speedup"});
  t.AddRow({"serial", FormatDouble(serial, 4), "1"});
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned threads : {1u, 2u, 4u, 8u, 16u}) {
    if (threads > 2 * hw) break;
    const double elapsed = TimeEstimate(sampler.reservoir(), threads);
    rows.push_back({threads, elapsed, serial / elapsed});
    t.AddRow({std::to_string(threads), FormatDouble(elapsed, 4),
              FormatDouble(serial / elapsed, 2)});
  }
  std::printf("%s", t.ToString().c_str());
  std::printf("(hardware concurrency: %u)\n", hw);
  if (!json_path.empty()) {
    WriteJson(json_path, bg.name, sampler.reservoir().size(), hw, rows);
  }
  return 0;
}
