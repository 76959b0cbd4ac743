// gps_probe: a fixed reference job that perfbench/run.py times next to each
// gps_cli invocation, to read the host's current speed.
//
//   gps_probe    prints the seconds its timed loop took
//
// On a shared host the speed of the same binary drifts by +-15% over
// minutes, as other tenants load the caches and memory. The job mixes what
// gps_cli spends its time on: dependent loads over a table larger than the
// private caches, integer arithmetic, and a branchy sort. So it slows down
// with the host in about the same proportion. It uses no repository code:
// a change to gps cannot change what it measures.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main() {
  // A single cycle through all kSlots slots: i -> (5 i + 1) mod 2^23 has full
  // period, and its successive addresses defeat the hardware prefetchers.
  constexpr uint32_t kSlots = 1u << 23;  // 32 MiB of uint32_t
  constexpr int kSteps = 1 << 19;
  std::vector<uint32_t> next(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) next[i] = (5 * i + 1) & (kSlots - 1);
  constexpr size_t kKeys = 1u << 20;  // 8 MiB of uint64_t
  std::vector<uint64_t> keys(kKeys);
  uint64_t x = 88172645463325252ull;
  for (uint64_t& key : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    key = x;
  }

  Clock::time_point start = Clock::now();
  uint32_t slot = 0;
  uint64_t hash = 0;
  for (int step = 0; step < kSteps; ++step) {
    slot = next[slot];
    hash ^= slot;
    for (int k = 0; k < 16; ++k) {
      hash = hash * 6364136223846793005ull + 1442695040888963407ull;
    }
  }
  double seconds = Since(start);
  start = Clock::now();
  std::sort(keys.begin(), keys.end());
  seconds += Since(start);
  // The hash and a sorted key keep the work from being optimised away.
  std::printf("%.9f %llu\n", seconds,
              static_cast<unsigned long long>((hash ^ keys[kKeys / 2]) & 1));
  return 0;
}
