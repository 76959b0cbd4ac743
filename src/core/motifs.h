// Named motif-statistic registry and the multi-motif estimation suite.
//
// The engine serves motif statistics by NAME (mirroring gen/registry's
// named corpus): a checkpoint manifest, a CLI flag, and a shard worker all
// refer to "4clique", "3path", "4cycle", "5clique" and "tailed_triangle"
// and resolve them here. Each registry entry points at its enumerator, a
// plain function (core/snapshot.h), and carries the structural constant
// the merge layer needs — the number of edges per instance, which is the
// multiplicity divisor of the post-stream pass over the merged union
// sample (engine/merge.cc enumerates every instance once per member
// edge). Triangles and wedges are not registered: Algorithm 3 estimates
// them with their snapshot covariances (core/in_stream.h), so any other
// name, "tri" and "wedge" included, is refused as unknown.
//
// MotifSuite is the live multi-motif pass: a fixed, ordered set of named
// motifs estimated against ONE shared reservoir (typically the
// InStreamEstimator's, or a GpsSampler's). Observe() must run before the
// reservoir's sampling step for the same edge, so snapshot probabilities
// are measured at the stopping time T_k; it only READS the reservoir, so
// enabling a suite never perturbs the sample path — the engine's
// byte-identity and scheduling-invariance contracts survive with motifs
// on.

#ifndef GPS_CORE_MOTIFS_H_
#define GPS_CORE_MOTIFS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/estimates.h"
#include "core/reservoir.h"
#include "core/snapshot.h"
#include "util/status.h"

namespace gps {

/// Metadata for one registered motif statistic.
struct MotifEntry {
  /// Registry key, e.g. "4clique" (also the manifest / CSV column name).
  std::string name;
  /// Human-readable description for `gps_cli list-motifs`.
  std::string description;
  /// Edges per motif instance: the multiplicity divisor of post-stream
  /// passes that enumerate an instance once per member edge.
  int num_edges = 0;
  /// The enumerator (core/snapshot.h).
  EnumerateFn enumerate = nullptr;
};

/// All registry entries in canonical order: 4clique, 3path, 4cycle,
/// 5clique, tailed_triangle.
const std::vector<MotifEntry>& MotifEntries();

/// Looks up a motif by registry name; nullptr if unknown.
const MotifEntry* FindMotif(const std::string& name);

/// Validates that every name is registered and none repeats; errors name
/// the offending motif (checkpoint manifests and CLI flags both route
/// their refusals through here).
Status ValidateMotifNames(std::span<const std::string> names);

/// Parses a comma-separated motif list ("4clique,3path") into validated
/// registry names. Empty items and unknown/duplicate names are refused by
/// name.
Result<std::vector<std::string>> ParseMotifNames(const std::string& csv);

/// One named motif estimate: point value with its conservative variance
/// (see MotifAccumulator) and the snapshot count behind it.
struct MotifEstimate {
  std::string name;
  Estimate estimate;
  uint64_t snapshots = 0;
};

/// A fixed, ordered set of named motif statistics estimated against one
/// shared reservoir (which the suite never mutates).
class MotifSuite {
 public:
  /// Empty suite: Observe is a no-op.
  MotifSuite() = default;

  /// Builds a suite over validated registry names; asserts on unknown
  /// names (callers validate untrusted input via ValidateMotifNames /
  /// ParseMotifNames first).
  explicit MotifSuite(std::span<const std::string> names);

  /// Snapshot estimation for every configured motif. Call with each
  /// arriving edge BEFORE the shared reservoir's sampling step processes
  /// it; self loops and already-sampled duplicates are skipped, matching
  /// InStreamEstimator::Process.
  void Observe(const Edge& e, const GpsReservoir& reservoir);

  bool empty() const { return motifs_.empty(); }
  size_t size() const { return motifs_.size(); }
  const std::string& name(size_t i) const { return motifs_[i].entry->name; }
  const MotifAccumulator& accumulator(size_t i) const {
    return motifs_[i].acc;
  }

  /// The configured names, in suite order.
  std::vector<std::string> Names() const;

  /// Current estimates, in suite order.
  std::vector<MotifEstimate> Estimates() const;

  /// Replaces the accumulators with checkpoint-restored state; `accs`
  /// must match the suite's size and order.
  void RestoreAccumulators(std::span<const MotifAccumulator> accs);

  /// The current accumulators, in suite order.
  std::vector<MotifAccumulator> Accumulators() const;

 private:
  struct ActiveMotif {
    const MotifEntry* entry = nullptr;
    MotifAccumulator acc;
  };
  std::vector<ActiveMotif> motifs_;
};

}  // namespace gps

#endif  // GPS_CORE_MOTIFS_H_
