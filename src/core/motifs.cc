#include "core/motifs.h"

#include <cassert>

namespace gps {

const std::vector<MotifEntry>& MotifEntries() {
  static const std::vector<MotifEntry>* entries = new std::vector<MotifEntry>{
      {"4clique", "4-cliques (K4)", 6, &EnumerateFourCliques},
      {"3path", "simple paths of length 3 (4 distinct nodes)", 3,
       &EnumerateThreePaths},
      {"4cycle", "4-cycles (C4, chords allowed)", 4, &EnumerateFourCycles},
      {"5clique", "5-cliques (K5)", 10, &EnumerateFiveCliques},
      {"tailed_triangle", "tailed triangles (triangle + pendant edge)", 4,
       &EnumerateTailedTriangles},
  };
  return *entries;
}

const MotifEntry* FindMotif(const std::string& name) {
  for (const MotifEntry& entry : MotifEntries()) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

Status ValidateMotifNames(std::span<const std::string> names) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (FindMotif(names[i]) == nullptr) {
      return Status::InvalidArgument(
          "unknown motif '" + names[i] +
          "' (gps_cli list-motifs shows the registry)");
    }
    for (size_t j = 0; j < i; ++j) {
      if (names[j] == names[i]) {
        return Status::InvalidArgument("motif '" + names[i] +
                                       "' listed twice");
      }
    }
  }
  return Status::Ok();
}

Result<std::vector<std::string>> ParseMotifNames(const std::string& csv) {
  std::vector<std::string> names;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const size_t end = comma == std::string::npos ? csv.size() : comma;
    const std::string item = csv.substr(start, end - start);
    if (item.empty()) {
      return Status::InvalidArgument(
          "empty motif name in list '" + csv + "'");
    }
    names.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (names.empty()) {
    return Status::InvalidArgument("empty motif list");
  }
  if (Status s = ValidateMotifNames(names); !s.ok()) return s;
  return names;
}

MotifSuite::MotifSuite(std::span<const std::string> names) {
  motifs_.reserve(names.size());
  for (const std::string& name : names) {
    const MotifEntry* entry = FindMotif(name);
    assert(entry != nullptr && "unvalidated motif name");
    motifs_.push_back({entry, MotifAccumulator{}});
  }
}

void MotifSuite::Observe(const Edge& raw, const GpsReservoir& reservoir) {
  if (motifs_.empty()) return;
  const Edge e = raw.Canonical();
  // Mirror InStreamEstimator::Process: duplicates and loops carry no new
  // subgraphs under the simple-graph model.
  if (e.IsSelfLoop() || reservoir.graph().HasEdge(e)) return;
  for (ActiveMotif& motif : motifs_) {
    AccumulateMotifSnapshots(e, reservoir, motif.entry->enumerate,
                             &motif.acc);
  }
}

std::vector<std::string> MotifSuite::Names() const {
  std::vector<std::string> names;
  names.reserve(motifs_.size());
  for (const ActiveMotif& motif : motifs_) names.push_back(motif.entry->name);
  return names;
}

std::vector<MotifEstimate> MotifSuite::Estimates() const {
  std::vector<MotifEstimate> out;
  out.reserve(motifs_.size());
  for (const ActiveMotif& motif : motifs_) {
    out.push_back({motif.entry->name, motif.acc.ToEstimate(),
                   motif.acc.snapshots});
  }
  return out;
}

void MotifSuite::RestoreAccumulators(
    std::span<const MotifAccumulator> accs) {
  assert(accs.size() == motifs_.size());
  for (size_t i = 0; i < motifs_.size(); ++i) motifs_[i].acc = accs[i];
}

std::vector<MotifAccumulator> MotifSuite::Accumulators() const {
  std::vector<MotifAccumulator> accs;
  accs.reserve(motifs_.size());
  for (const ActiveMotif& motif : motifs_) accs.push_back(motif.acc);
  return accs;
}

}  // namespace gps
