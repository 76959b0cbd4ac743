// EdgeList: the materialized form of a graph used by generators, exact
// oracles and stream construction.
//
// Invariants after Simplify(): edges canonical (u < v), unique, no self
// loops — exactly the preprocessing the paper applies ("we consider an
// undirected, unweighted, simplified graph without self loops", Section 6).

#ifndef GPS_GRAPH_EDGE_LIST_H_
#define GPS_GRAPH_EDGE_LIST_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace gps {

/// Bytes EdgeList::Load reads from its file at a time: small enough to
/// stay in cache between the read and the parse.
inline constexpr size_t kEdgeListReadBufferBytes = size_t{1} << 16;

/// A growable list of undirected edges plus the implied node-id upper bound.
class EdgeList {
 public:
  EdgeList() = default;

  /// Appends an edge (not canonicalized; call Simplify() before use as a
  /// graph). Updates the node bound.
  void Add(NodeId u, NodeId v);

  /// Appends a canonical edge.
  void Add(const Edge& e) { Add(e.u, e.v); }

  size_t NumEdges() const { return edges_.size(); }

  /// One past the largest node id referenced; 0 for an empty list.
  NodeId NumNodes() const { return num_nodes_; }

  const std::vector<Edge>& Edges() const { return edges_; }
  /// Hands the edge vector out of an expiring list, without a copy.
  std::vector<Edge> TakeEdges() && { return std::move(edges_); }
  const Edge& operator[](size_t i) const { return edges_[i]; }

  void Reserve(size_t n) { edges_.reserve(n); }
  void Clear();

  /// Canonicalizes, removes self loops and duplicate edges (keeping first
  /// occurrence order stable is not required; output is sorted). Returns the
  /// number of edges removed.
  size_t Simplify();

  /// Counts distinct nodes that appear in at least one edge.
  size_t CountTouchedNodes() const;

  /// Parses a STRICT "u v"-per-line edge list: exactly two nonnegative
  /// decimal node ids per data line (comments beginning with '#' or '%'
  /// and blank lines are skipped; CRLF is tolerated). Trailing junk and
  /// weight columns are InvalidArgument refusals carrying the line number
  /// (offending lines echoed truncated to 80 chars); negative or
  /// NodeId-overflowing ids are OutOfRange.
  static Result<EdgeList> FromText(const std::string& text);

  /// FromText over a file read kEdgeListReadBufferBytes at a time
  /// (util/input_file.h): same edges, error text and line numbers.
  /// Refuses non-regular files by name, and names a file cut short while
  /// it is read.
  static Result<EdgeList> Load(const std::string& path);

  /// Writes "u v" lines, staged (util/staged_file.h): on failure the
  /// previous file keeps its bytes and the IO error names the temp file.
  Status Save(const std::string& path) const;

 private:
  std::vector<Edge> edges_;
  NodeId num_nodes_ = 0;
};

}  // namespace gps

#endif  // GPS_GRAPH_EDGE_LIST_H_
