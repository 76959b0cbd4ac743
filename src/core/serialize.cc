#include "core/serialize.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <istream>
#include <limits>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "core/motifs.h"
#include "util/digest.h"
#include "util/text_writer.h"

namespace gps {
namespace {

constexpr const char* kReservoirHeader = "GPS-RESERVOIR";
constexpr const char* kInStreamHeader = "GPS-INSTREAM";
constexpr const char* kManifestHeader = "GPS-MANIFEST";
// Each format is versioned on its own; readers take exactly the version
// this build writes (serialize.h).
constexpr int kReservoirVersion = 1;
constexpr int kInStreamVersion = 2;
constexpr int kManifestVersion = 6;
// Records reserved up front when reading a reservoir (48 B each with
// their covariance accumulators).
constexpr size_t kRecordReserveLimit = size_t{1} << 16;

/// The refusal for a failed `in >> ...` of `what`: truncated (IoError)
/// if the stream ran out, malformed (InvalidArgument) if it holds a token
/// the field cannot take (a word, `inf`, an out-of-range number).
Status ReadFailure(const std::istream& in, const std::string& what) {
  if (in.eof()) return Status::IoError("truncated " + what);
  return Status::InvalidArgument("malformed " + what);
}

/// Reads and checks "<HEADER> <version>"; any other version is refused
/// by name.
Status ExpectHeader(std::istream& in, const std::string& want, int version) {
  std::string header;
  int found = 0;
  if (!(in >> header >> found)) {
    return ReadFailure(in, "checkpoint: missing header");
  }
  if (header != want) {
    return Status::InvalidArgument("checkpoint header mismatch: expected " +
                                   want + ", found " + header);
  }
  if (found != version) {
    return Status::InvalidArgument(
        "unsupported checkpoint version " + std::to_string(found) +
        " for " + want + " (this build reads version " +
        std::to_string(version) + ")");
  }
  return Status::Ok();
}

Status ValidateWeightOptions(const WeightOptions& weight) {
  if (!std::isfinite(weight.coefficient) ||
      !std::isfinite(weight.adjacency_coefficient) ||
      !std::isfinite(weight.default_weight)) {
    return Status::InvalidArgument(
        "non-finite weight configuration in checkpoint");
  }
  return Status::Ok();
}

Status WriteWeightOptions(const WeightOptions& weight, TextWriter& out) {
  if (weight.kind == WeightKind::kCustom) {
    return Status::FailedPrecondition(
        "custom weight callables cannot be serialized");
  }
  if (Status s = ValidateWeightOptions(weight); !s.ok()) return s;
  out.Int(static_cast<int>(weight.kind)).Char(' ');
  out.Double(weight.coefficient).Char(' ');
  out.Double(weight.adjacency_coefficient).Char(' ');
  out.Double(weight.default_weight).Char('\n');
  return Status::Ok();
}

Result<WeightOptions> ReadWeightOptions(std::istream& in) {
  int kind = -1;
  WeightOptions weight;
  if (!(in >> kind >> weight.coefficient >> weight.adjacency_coefficient >>
        weight.default_weight)) {
    return ReadFailure(in, "checkpoint: weight options");
  }
  if (kind < 0 || kind >= static_cast<int>(WeightKind::kCustom)) {
    return Status::InvalidArgument("invalid weight kind in checkpoint");
  }
  if (Status s = ValidateWeightOptions(weight); !s.ok()) return s;
  weight.kind = static_cast<WeightKind>(kind);
  return weight;
}

/// Writes the reservoir section. Each record carries its covariance
/// accumulators: `estimator`'s per-slot records for an in-stream
/// estimator's reservoir, zeros for a bare reservoir, which holds none.
Status WriteReservoir(const GpsReservoir& reservoir,
                      const InStreamEstimator* estimator, TextWriter& out) {
  // Mirror the read-side ceiling: a checkpoint the deserializer would
  // reject must fail loudly at WRITE time, not when the operator tries
  // to resume from it.
  if (reservoir.options().capacity == 0 ||
      reservoir.options().capacity > kMaxCheckpointCapacity) {
    return Status::FailedPrecondition(
        "reservoir capacity " +
        std::to_string(reservoir.options().capacity) + " outside (0, " +
        std::to_string(kMaxCheckpointCapacity) +
        "] cannot be checkpointed (raise kMaxCheckpointCapacity "
        "deliberately if needed)");
  }
  out.Text(kReservoirHeader).Char(' ').Int(kReservoirVersion).Char('\n');
  out.Int(reservoir.options().capacity).Char(' ');
  out.Int(reservoir.options().seed).Char('\n');
  out.Double(reservoir.threshold()).Char(' ');
  out.Int(reservoir.edges_processed()).Char('\n');
  const std::array<uint64_t, 4> rng = reservoir.RngState();
  out.Int(rng[0]).Char(' ').Int(rng[1]).Char(' ');
  out.Int(rng[2]).Char(' ').Int(rng[3]).Char('\n');
  out.Int(reservoir.size()).Char('\n');
  reservoir.ForEachEdge([&](SlotId slot, const GpsReservoir::EdgeRecord& rec) {
    out.Int(rec.edge.u).Char(' ').Int(rec.edge.v).Char(' ');
    out.Double(rec.weight).Char(' ').Double(rec.priority).Char(' ');
    if (estimator != nullptr) {
      const InStreamEstimator::SlotRecord& acc = estimator->slot_record(slot);
      out.Double(acc.cov_tri).Char(' ').Double(acc.cov_wedge).Char('\n');
    } else {
      out.Double(0.0).Char(' ').Double(0.0).Char('\n');
    }
  });
  return Status::Ok();
}

Status WriteInStreamEstimator(const InStreamEstimator& estimator,
                              const MotifSuite& motifs, TextWriter& out) {
  out.Text(kInStreamHeader).Char(' ').Int(kInStreamVersion).Char('\n');
  if (Status s =
          WriteWeightOptions(estimator.weight_function().options(), out);
      !s.ok()) {
    return s;
  }
  const InStreamEstimator::Accumulators acc = estimator.SaveAccumulators();
  for (double v : {acc.n_tri, acc.v_tri, acc.n_wed, acc.v_wed, acc.cov_tw}) {
    out.Double(v).Char(' ');
  }
  out.Char('\n');
  // The motif line: the suite's size, then per motif its name, count,
  // variance and snapshots, so the digest binds them with the sample.
  out.Int(motifs.size());
  for (size_t m = 0; m < motifs.size(); ++m) {
    const MotifAccumulator& motif = motifs.accumulator(m);
    out.Char(' ').Text(motifs.name(m)).Char(' ').Double(motif.count);
    out.Char(' ').Double(motif.variance).Char(' ').Int(motif.snapshots);
  }
  out.Char('\n');
  return WriteReservoir(estimator.reservoir(), &estimator, out);
}

/// Reads one name of a motif line onto `names` (`what` names the field
/// in a read failure) and checks it against the registry and the names
/// before it, so an unknown or repeated name is refused BY NAME, with
/// `set` as context, the moment it is read. The registry holds five
/// names, so no line gets past five: the count that starts the line
/// bounds nothing and sizes nothing.
Status ReadMotifName(std::istream& in, const std::string& what,
                     const std::string& set,
                     std::vector<std::string>* names) {
  std::string name;
  if (!(in >> name)) return ReadFailure(in, what);
  names->push_back(std::move(name));
  return ValidateMotifNames(*names).WithContext(set);
}

/// Reads the motif line WriteInStreamEstimator writes. A name this build
/// does not know is refused: its accumulator would be meaningless to
/// carry forward.
Status ReadMotifLine(std::istream& in, std::vector<std::string>* names,
                     std::vector<MotifAccumulator>* accs) {
  const std::string what = "checkpoint: motif accumulators";
  size_t num_motifs = 0;
  if (!(in >> num_motifs)) return ReadFailure(in, "checkpoint: motif count");
  for (size_t m = 0; m < num_motifs; ++m) {
    if (Status s = ReadMotifName(in, what, "checkpoint motif set", names);
        !s.ok()) {
      return s;
    }
    MotifAccumulator& acc = accs->emplace_back();
    if (!(in >> acc.count >> acc.variance >> acc.snapshots)) {
      return ReadFailure(in, what);
    }
    // Count and variance accumulators are sums of nonnegative snapshot
    // terms (core/snapshot.h).
    if (!std::isfinite(acc.count) || acc.count < 0.0 ||
        !std::isfinite(acc.variance) || acc.variance < 0.0) {
      return Status::InvalidArgument("invalid '" + names->back() +
                                     "' motif accumulator in checkpoint");
    }
  }
  return Status::Ok();
}

Status WriteManifest(const ShardManifest& manifest, TextWriter& out) {
  if (Status s = ValidateManifest(manifest); !s.ok()) return s;
  out.Text(kManifestHeader).Char(' ').Int(kManifestVersion).Char('\n');
  out.Int(manifest.num_shards).Char(' ').Int(manifest.base_seed).Char(' ');
  out.Int(manifest.total_capacity).Char(' ');
  out.Int(manifest.stream_offset).Char('\n');
  if (Status s = WriteWeightOptions(manifest.weight, out); !s.ok()) return s;
  out.Int(manifest.motif_names.size());
  for (const std::string& name : manifest.motif_names) {
    out.Char(' ').Text(name);
  }
  out.Char('\n');
  for (const uint64_t digest : manifest.digests) out.Int(digest).Char('\n');
  return Status::Ok();
}

/// Formats with `write` into a TextWriter over `sink`, then flushes: the
/// one path every public serializer takes.
template <typename WriteFn>
Status WriteText(ByteSink sink, WriteFn&& write) {
  TextWriter out(std::move(sink));
  if (Status s = write(out); !s.ok()) return s;
  return out.Finish();
}

}  // namespace

int ManifestFormatVersion() { return kManifestVersion; }
int ShardFileFormatVersion() { return kInStreamVersion; }

Status SerializeReservoir(const GpsReservoir& reservoir, std::ostream& out) {
  return WriteText(StreamSink(out), [&](TextWriter& w) {
    return WriteReservoir(reservoir, nullptr, w);
  });
}

namespace {

/// Reads a reservoir section; `slots` receives each record's weight and
/// covariance accumulators in record order, which is slot order in the
/// restored reservoir.
Result<GpsReservoir> ReadReservoir(
    std::istream& in, std::vector<InStreamEstimator::SlotRecord>* slots) {
  if (Status s = ExpectHeader(in, kReservoirHeader, kReservoirVersion);
      !s.ok()) {
    return s;
  }
  GpsOptions options;
  double z_star = 0.0;
  uint64_t processed = 0;
  std::array<uint64_t, 4> rng{};
  size_t num_edges = 0;
  if (!(in >> options.capacity >> options.seed >> z_star >> processed >>
        rng[0] >> rng[1] >> rng[2] >> rng[3] >> num_edges)) {
    return ReadFailure(in, "checkpoint: reservoir metadata");
  }
  // The capacity sizes the restored store (GpsReservoir::FromParts), so
  // a corrupt header is held to the ceiling before anything else.
  if (options.capacity == 0 ||
      options.capacity > kMaxCheckpointCapacity) {
    return Status::InvalidArgument(
        "reservoir capacity " + std::to_string(options.capacity) +
        " outside (0, " + std::to_string(kMaxCheckpointCapacity) +
        "] in checkpoint");
  }
  if (num_edges > options.capacity) {
    return Status::InvalidArgument("inconsistent reservoir checkpoint");
  }
  if (num_edges > processed) {
    return Status::InvalidArgument(
        "reservoir checkpoint holds more edges than arrivals processed");
  }
  if (!std::isfinite(z_star) || z_star < 0.0) {
    return Status::InvalidArgument(
        "invalid threshold z* in reservoir checkpoint");
  }
  // z* > 0 means an eviction happened, which is only possible once the
  // reservoir filled — and it never shrinks afterwards.
  if (z_star > 0.0 && num_edges < options.capacity) {
    return Status::InvalidArgument(
        "thresholded reservoir checkpoint is not full");
  }
  // num_edges is untrusted too: the records grow as they parse, from a
  // bounded reserve, so a file claiming 2^28 records but holding none is
  // refused after reading what it holds, not after a 10 GiB allocation.
  std::vector<GpsReservoir::EdgeRecord> records;
  records.reserve(std::min(num_edges, kRecordReserveLimit));
  slots->clear();
  slots->reserve(std::min(num_edges, kRecordReserveLimit));
  for (size_t i = 0; i < num_edges; ++i) {
    GpsReservoir::EdgeRecord& rec = records.emplace_back();
    InStreamEstimator::SlotRecord& acc = slots->emplace_back();
    if (!(in >> rec.edge.u >> rec.edge.v >> rec.weight >> rec.priority >>
          acc.cov_tri >> acc.cov_wedge)) {
      return ReadFailure(in, "checkpoint: edge records");
    }
    acc.weight = rec.weight;
    if (rec.edge.IsSelfLoop()) {
      return Status::InvalidArgument("self loop in reservoir checkpoint");
    }
    if (rec.edge.u > rec.edge.v) {
      return Status::InvalidArgument(
          "non-canonical edge in reservoir checkpoint");
    }
    if (!std::isfinite(rec.weight) || rec.weight <= 0.0) {
      return Status::InvalidArgument(
          "invalid edge weight in reservoir checkpoint");
    }
    // Priority r = w/u with u ~ Uni(0,1], so r >= w always; survivors
    // additionally beat the threshold (selection event B_i).
    if (!std::isfinite(rec.priority) || rec.priority < rec.weight) {
      return Status::InvalidArgument(
          "invalid edge priority in reservoir checkpoint");
    }
    if (rec.priority < z_star) {
      return Status::InvalidArgument(
          "edge priority below threshold z* in reservoir checkpoint");
    }
    if (!std::isfinite(acc.cov_tri) || !std::isfinite(acc.cov_wedge)) {
      return Status::InvalidArgument(
          "non-finite covariance accumulator in reservoir checkpoint");
    }
  }
  // The store reserves every slot of the capacity up front, so a capacity
  // within the ceiling can still exceed what the process may allocate;
  // that is a refusal too, not an abort.
  try {
    GpsReservoir res =
        GpsReservoir::FromParts(options, z_star, processed, rng, records);
    if (res.size() != num_edges) {
      return Status::InvalidArgument(
          "duplicate edges in reservoir checkpoint");
    }
    return res;
  } catch (const std::bad_alloc&) {
    return Status::OutOfRange(
        "cannot allocate a reservoir of capacity " +
        std::to_string(options.capacity) + " from checkpoint");
  }
}

}  // namespace

Result<GpsReservoir> DeserializeReservoir(std::istream& in) {
  // A bare reservoir holds no covariance accumulators: the columns are
  // read and checked, then dropped.
  std::vector<InStreamEstimator::SlotRecord> slots;
  return ReadReservoir(in, &slots);
}

Status SerializeInStreamEstimator(const InStreamEstimator& estimator,
                                  const MotifSuite& motifs,
                                  const ByteSink& sink) {
  return WriteText(sink, [&](TextWriter& w) {
    return WriteInStreamEstimator(estimator, motifs, w);
  });
}

Result<InStreamCheckpoint> DeserializeInStreamEstimator(std::istream& in) {
  if (Status s = ExpectHeader(in, kInStreamHeader, kInStreamVersion);
      !s.ok()) {
    return s;
  }
  Result<WeightOptions> weight = ReadWeightOptions(in);
  if (!weight.ok()) return weight.status();
  InStreamEstimator::Accumulators acc;
  if (!(in >> acc.n_tri >> acc.v_tri >> acc.n_wed >> acc.v_wed >>
        acc.cov_tw)) {
    return ReadFailure(in, "checkpoint: accumulators");
  }
  // Count and variance accumulators are sums of non-negative snapshot
  // terms; only the triangle-wedge covariance may be negative.
  for (double v : {acc.n_tri, acc.v_tri, acc.n_wed, acc.v_wed}) {
    if (!std::isfinite(v) || v < 0.0) {
      return Status::InvalidArgument(
          "invalid snapshot accumulator in checkpoint");
    }
  }
  if (!std::isfinite(acc.cov_tw)) {
    return Status::InvalidArgument(
        "non-finite covariance accumulator in checkpoint");
  }
  std::vector<std::string> motif_names;
  std::vector<MotifAccumulator> motif_accumulators;
  if (Status s = ReadMotifLine(in, &motif_names, &motif_accumulators);
      !s.ok()) {
    return s;
  }
  std::vector<InStreamEstimator::SlotRecord> slots;
  Result<GpsReservoir> reservoir = ReadReservoir(in, &slots);
  if (!reservoir.ok()) return reservoir.status();
  // The estimator reserves a record for every slot of the store, so a
  // capacity the reservoir could hold may still fail here.
  const size_t capacity = reservoir->capacity();
  try {
    return InStreamCheckpoint{
        InStreamEstimator::FromParts(*weight, std::move(*reservoir), acc,
                                     slots),
        std::move(motif_names), std::move(motif_accumulators)};
  } catch (const std::bad_alloc&) {
    return Status::OutOfRange("cannot allocate an in-stream estimator of "
                              "capacity " +
                              std::to_string(capacity) +
                              " from checkpoint");
  }
}

uint64_t ChecksumBytes(std::string_view bytes) {
  // FNV-1a 64-bit: deterministic across platforms, cheap, and good enough
  // to detect accidental corruption (not adversarial tampering). The same
  // digest guards GPS-STREAM headers and blocks (graph/binary_stream.h),
  // so the implementation lives in util/digest.h.
  return Fnv1a64(bytes);
}

namespace {

Status CheckShardCount(uint32_t num_shards) {
  if (num_shards < 1 || num_shards > kMaxManifestShards) {
    return Status::InvalidArgument(
        "manifest shard count " + std::to_string(num_shards) +
        " outside [1, " + std::to_string(kMaxManifestShards) + "]");
  }
  return Status::Ok();
}

}  // namespace

Status ValidateManifest(const ShardManifest& manifest) {
  if (Status s = CheckShardCount(manifest.num_shards); !s.ok()) return s;
  if (manifest.total_capacity == 0 ||
      manifest.total_capacity > kMaxCheckpointCapacity) {
    return Status::InvalidArgument(
        "manifest capacity " + std::to_string(manifest.total_capacity) +
        " outside (0, " + std::to_string(kMaxCheckpointCapacity) + "]");
  }
  if (manifest.weight.kind == WeightKind::kCustom) {
    return Status::FailedPrecondition(
        "custom weight callables cannot be serialized");
  }
  if (Status s = ValidateWeightOptions(manifest.weight); !s.ok()) return s;
  // Motif names resolve against the registry: a manifest naming a motif
  // this build does not know must be refused BY NAME, not silently
  // dropped.
  if (Status s = ValidateMotifNames(manifest.motif_names); !s.ok()) {
    return s.WithContext("manifest motif set");
  }
  if (manifest.digests.size() != manifest.num_shards) {
    return Status::InvalidArgument(
        "manifest holds " + std::to_string(manifest.digests.size()) +
        " shard digests for K=" + std::to_string(manifest.num_shards));
  }
  return Status::Ok();
}

Status SerializeManifest(const ShardManifest& manifest, const ByteSink& sink) {
  return WriteText(sink, [&](TextWriter& w) {
    return WriteManifest(manifest, w);
  });
}

Result<ShardManifest> DeserializeManifest(std::istream& in) {
  if (Status s = ExpectHeader(in, kManifestHeader, kManifestVersion);
      !s.ok()) {
    return s;
  }
  ShardManifest manifest;
  if (!(in >> manifest.num_shards >> manifest.base_seed >>
        manifest.total_capacity >> manifest.stream_offset)) {
    return ReadFailure(in, "manifest: layout");
  }
  // K sizes the digests read below, so it is held to its ceiling first.
  if (Status s = CheckShardCount(manifest.num_shards); !s.ok()) return s;
  Result<WeightOptions> weight = ReadWeightOptions(in);
  if (!weight.ok()) return weight.status();
  manifest.weight = *weight;
  size_t num_motifs = 0;
  if (!(in >> num_motifs)) return ReadFailure(in, "manifest: motif count");
  for (size_t m = 0; m < num_motifs; ++m) {
    if (Status s = ReadMotifName(in, "manifest: motif names",
                                 "manifest motif set", &manifest.motif_names);
        !s.ok()) {
      return s;
    }
  }
  manifest.digests.resize(manifest.num_shards);
  for (uint64_t& digest : manifest.digests) {
    if (!(in >> digest)) return ReadFailure(in, "manifest: shard digests");
  }
  if (Status s = ValidateManifest(manifest); !s.ok()) return s;
  return manifest;
}

}  // namespace gps
