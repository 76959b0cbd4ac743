// Synthetic graph generators: the reproduction's stand-in for the paper's
// real-graph corpus (see the family-regime comment in src/gen/registry.cc,
// which maps each paper graph onto one of them). Each generator is
// deterministic given its parameters and seed, and returns a simplified
// EdgeList (canonical, deduplicated, loop-free).

#ifndef GPS_GEN_GENERATORS_H_
#define GPS_GEN_GENERATORS_H_

#include <cstdint>

#include "graph/edge_list.h"
#include "util/status.h"

namespace gps {

/// Erdős–Rényi G(n, m): m distinct uniform edges among n nodes.
/// Fails if m exceeds n(n-1)/2.
Result<EdgeList> GenerateErdosRenyi(uint32_t num_nodes, uint64_t num_edges,
                                    uint64_t seed);

/// Barabási–Albert preferential attachment with optional Holme–Kim triad
/// formation. Each new node attaches `edges_per_node` links; with
/// probability `triad_prob` a link closes a triangle with the previous
/// target's neighborhood instead of following preferential attachment.
/// triad_prob = 0 is classic BA (heavy-tailed, low clustering);
/// triad_prob ~ 0.6+ gives web-like heavy tails with high clustering.
Result<EdgeList> GenerateBarabasiAlbert(uint32_t num_nodes,
                                        uint32_t edges_per_node,
                                        double triad_prob, uint64_t seed);

/// Watts–Strogatz small world: ring lattice with k neighbors per node
/// (k even), each edge rewired with probability beta. High clustering for
/// small beta — the collaboration-network analog.
Result<EdgeList> GenerateWattsStrogatz(uint32_t num_nodes, uint32_t k,
                                       double beta, uint64_t seed);

/// Chung–Lu fixed-expected-degree model with power-law weights
/// w_i ∝ (i + i0)^(-1/(gamma-1)). Samples `num_edges` distinct edges with
/// endpoints drawn proportionally to weight (alias method). Heavy-tailed,
/// low clustering — the social/follower-network analog.
Result<EdgeList> GenerateChungLu(uint32_t num_nodes, uint64_t num_edges,
                                 double gamma, uint64_t seed);

/// Road-like graph: rows x cols 4-neighbor lattice where each unit square
/// independently gains one diagonal with probability diag_prob. Near-planar,
/// low degree, few triangles — the road-network analog.
Result<EdgeList> GenerateGrid(uint32_t rows, uint32_t cols, double diag_prob,
                              uint64_t seed);

}  // namespace gps

#endif  // GPS_GEN_GENERATORS_H_
