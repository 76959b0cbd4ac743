// Deterministic per-shard seed derivation.
//
// The sharded engine (src/engine/) runs one GPS sampler per shard; each
// shard needs its own RNG stream that is (a) a pure function of the base
// seed and the shard layout, so runs are reproducible regardless of thread
// scheduling, and (b) well decorrelated from its siblings, so per-shard
// estimates behave as independent strata (their variances add).
//
// The contract required by the engine's determinism guarantee: with
// num_shards == 1 the derived seed IS the base seed, so a single-shard
// engine replays the serial GpsSampler / InStreamEstimator sample path
// byte for byte.

#ifndef GPS_CORE_SEEDING_H_
#define GPS_CORE_SEEDING_H_

#include <cstdint>

#include "util/random.h"

namespace gps {

/// Derives the RNG seed for `shard` (0-based) out of `num_shards` from a
/// base seed. Deterministic across platforms and runs; distinct shards of
/// the same layout receive avalanche-mixed, effectively independent seeds.
/// Layouts with different num_shards also decorrelate, so resharding an
/// experiment changes every shard's sample path (intentional: per-shard
/// samples of different layouts must not be partially correlated).
inline uint64_t DeriveShardSeed(uint64_t base_seed, uint32_t shard,
                                uint32_t num_shards) {
  if (num_shards <= 1) return base_seed;  // serial replay contract
  uint64_t state = base_seed ^ ((static_cast<uint64_t>(num_shards) << 32) |
                                static_cast<uint64_t>(shard));
  // Two SplitMix64 rounds: one to absorb the layout, one for avalanche
  // between adjacent (seed, shard) pairs.
  (void)SplitMix64Next(&state);
  return SplitMix64Next(&state);
}

}  // namespace gps

#endif  // GPS_CORE_SEEDING_H_
