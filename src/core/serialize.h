// Checkpoint serialization for reservoirs and in-stream estimators.
//
// Stream processors run for days; operators need to stop, upgrade, and
// resume without discarding the accumulated sample. These routines persist
// the complete sampler state — reservoir contents (edges, weights,
// priorities, in-stream covariance accumulators), threshold z*, arrival
// count, RNG state, weight-function configuration and (for in-stream
// estimation) the snapshot and motif accumulators — such that a resumed
// run is bit-identical to an uninterrupted one.
//
// Format: versioned line-oriented text with round-trip-exact doubles: 17
// significant digits via std::to_chars (chars_format::general), the same
// bytes as printf "%.17g". Writers stream their output through one 64 KiB
// formatter buffer (util/text_writer.h) to a ByteSink chunk by chunk, so a
// shard file is never held whole in memory; StreamSink is that sink over a
// std::ostream. Custom weight callables cannot be serialized; estimators
// configured with WeightKind::kCustom return FailedPrecondition.
//
// Checkpoints are untrusted input (a file on disk may be damaged, cut
// short or from another run): every deserializer validates structural
// invariants — finite, correctly signed numeric fields,
// priority/threshold consistency, canonical edges, and a capacity
// ceiling — before allocating or reconstructing state.
//
// A checkpoint of a K-shard run is one GPS-MANIFEST file (ShardManifest):
// the shard layout (K, base seed, total capacity, stream offset, weight
// configuration, motif set) plus the content digest of each of the K
// shard files, in shard order (src/engine/sharded_engine.h).
//
// Each checkpoint fact is written once, where the reader checks it. A
// shard's whole state — weight configuration, Algorithm-3 accumulators,
// its motif suite's names and accumulators, reservoir records, threshold,
// arrival count, seed and RNG state — lives in its GPS-INSTREAM file
// (version 2), which the manifest's digest binds byte for byte; the
// embedded GPS-RESERVOIR section keeps version 1. The manifest (version
// 6) holds only what no shard file fixes: the layout and the digests.
// Shard files are named by index and digest (shard-NNNN-<16 hex>.gps), so
// no file name is read from a file. Readers take exactly the versions
// this build writes and refuse every other version by name; with no
// released checkpoints to honour, an older-version reader would never
// retire. Motif names are checked as they are read, so an unknown or
// repeated one is refused BY NAME.

#ifndef GPS_CORE_SERIALIZE_H_
#define GPS_CORE_SERIALIZE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/gps.h"
#include "core/in_stream.h"
#include "core/motifs.h"
#include "core/reservoir.h"
#include "core/snapshot.h"
#include "util/status.h"
#include "util/text_writer.h"

namespace gps {

/// Ceiling on the reservoir capacity a checkpoint may declare; bounds the
/// store a restored reservoir reserves against corrupt headers. Record
/// counts never size an allocation: records grow as they are read.
/// Raise deliberately if a deployment legitimately needs more.
inline constexpr size_t kMaxCheckpointCapacity = size_t{1} << 28;

/// Ceiling on a manifest's shard count K (matches gps_cli --shards).
inline constexpr uint32_t kMaxManifestShards = 4096;

/// The GPS-MANIFEST version this build writes and reads (see the
/// versioning note above). Exposed for compat triage (`gps_cli version`).
int ManifestFormatVersion();
/// The GPS-INSTREAM (shard file) version this build writes and reads.
int ShardFileFormatVersion();

/// FNV-1a 64-bit digest of a byte string; binds a manifest's digests to
/// the exact shard-file bytes they were written with.
uint64_t ChecksumBytes(std::string_view bytes);

/// Versioned multi-shard checkpoint manifest (GPS-MANIFEST header).
struct ShardManifest {
  /// Shard count K of the run's layout.
  uint32_t num_shards = 1;
  /// Base seed the per-shard seeds were derived from.
  uint64_t base_seed = 1;
  /// TOTAL reservoir capacity across shards: each shard holds
  /// ceil(total / K) slots.
  size_t total_capacity = 0;
  /// Stream edges the writing engine had ingested when the checkpoint was
  /// taken (0: an empty prefix). The shard files must account for exactly
  /// this many arrivals: every routed edge is consumed by exactly one
  /// shard.
  uint64_t stream_offset = 0;
  /// Weight configuration shared by all shards; kind != kCustom.
  WeightOptions weight;
  /// Motif-statistic set the run was configured with (core/motifs.h
  /// registry names, suite order); empty for runs without a motif suite.
  /// Unknown names are refused by name. Every shard file carries the same
  /// names with its accumulators.
  std::vector<std::string> motif_names;
  /// ChecksumBytes of each shard file, in shard order: exactly K digests.
  std::vector<uint64_t> digests;
};

/// Validates manifest invariants: shard count and capacity within their
/// ceilings, finite serializable weight configuration, registered motif
/// names, one digest per shard. Enforced on both write and read.
Status ValidateManifest(const ShardManifest& manifest);

/// Writes a manifest (validating it first) to `sink`, chunk by chunk;
/// StreamSink(out) writes it to a std::ostream.
Status SerializeManifest(const ShardManifest& manifest, const ByteSink& sink);

/// Reads and validates a manifest written by SerializeManifest.
Result<ShardManifest> DeserializeManifest(std::istream& in);

/// Writes the reservoir state (GPS-RESERVOIR). A reservoir holds no
/// covariance accumulators, so their columns are written as zeros; a shard
/// file fills them from its in-stream estimator.
Status SerializeReservoir(const GpsReservoir& reservoir, std::ostream& out);

/// Reads a reservoir previously written by SerializeReservoir; the
/// covariance columns are checked and dropped. A capacity
/// whose store cannot be allocated is refused (OUT_OF_RANGE naming the
/// capacity), like every other invalid field.
Result<GpsReservoir> DeserializeReservoir(std::istream& in);

/// Writes a shard file (GPS-INSTREAM): the in-stream estimator's weight
/// configuration and accumulators, the motif suite that ran beside it
/// (names and accumulators), then its reservoir, to `sink` chunk by chunk.
Status SerializeInStreamEstimator(const InStreamEstimator& estimator,
                                  const MotifSuite& motifs,
                                  const ByteSink& sink);

/// Everything a shard file holds: the in-stream estimator and its motif
/// suite's registry names and accumulators, in suite order (both empty
/// for a run without a suite).
struct InStreamCheckpoint {
  InStreamEstimator estimator;
  std::vector<std::string> motif_names;
  std::vector<MotifAccumulator> motif_accumulators;
};

/// Reads and validates a shard file written by SerializeInStreamEstimator.
Result<InStreamCheckpoint> DeserializeInStreamEstimator(std::istream& in);

}  // namespace gps

#endif  // GPS_CORE_SERIALIZE_H_
