// Coarsening phase, step 1: vertex matchings.
//
// A matching pairs adjacent vertices; each pair collapses into one coarse
// vertex. Heavy-edge matching (HEM) greedily absorbs the heaviest incident
// edge so the coarse graph exposes as little edge weight as possible. The
// SC'98 multi-constraint refinement needs coarse vertices whose weight
// vectors are as uniform as possible across constraints, so HEM is extended
// with the balanced-edge tie-break: among (near-)heaviest candidate edges,
// prefer the partner whose combined weight vector is flattest.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "graph/csr_graph.hpp"
#include "support/random.hpp"
#include "support/workspace.hpp"

namespace mcgp {

/// Compute a matching. match[v] == partner of v, or v itself if unmatched.
/// The relation is symmetric (match[match[v]] == v) and only adjacent
/// vertices are matched. A non-null `trace` accumulates the
/// `match.pairs` / `match.failed` counters (failed = vertices left
/// unmatched although they had neighbors).
///
/// One serial greedy pass at every graph size: the vertices are visited in
/// random_permutation order and each unmatched vertex takes its best
/// unmatched neighbor under `scheme` (the heavy-edge schemes break
/// remaining ties toward the first such neighbor in adjacency order). The
/// result depends only on the graph, the scheme and the Rng state, never
/// on a thread count.
std::vector<idx_t> compute_matching(const Graph& g, MatchScheme scheme,
                                    Rng& rng, TraceRecorder* trace = nullptr);

/// As compute_matching, but fills a caller-owned `match` vector and, when
/// `ws` is non-null, reuses ws->perm so repeated coarsening levels
/// allocate nothing. `exec` is ignored (see IgnoredExec).
void compute_matching_into(const Graph& g, MatchScheme scheme, Rng& rng,
                           std::vector<idx_t>& match,
                           TraceRecorder* trace = nullptr,
                           Workspace* ws = nullptr,
                           const MatchingExec* exec = nullptr);

/// Derive the fine-to-coarse vertex map from a matching. Coarse ids are
/// assigned in order of the smaller endpoint. Returns the number of coarse
/// vertices and fills cmap (size g.nvtxs).
idx_t build_coarse_map(const Graph& g, const std::vector<idx_t>& match,
                       std::vector<idx_t>& cmap);

/// Flatness score of a combined weight vector used by the balanced-edge
/// tie-break: max_i ĉ_i - min_i ĉ_i of the normalized combined vector
/// (0 for ncon == 1). Exposed for testing.
real_t balanced_edge_score(const Graph& g, idx_t v, idx_t u);

}  // namespace mcgp
