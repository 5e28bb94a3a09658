#include "core/matching.hpp"

#include <algorithm>
#include <cassert>

#include "support/trace.hpp"

namespace mcgp {

namespace {

/// Serial greedy matching: visits `order` (a random permutation of all
/// vertices) once, skips vertices an earlier visit already took as a
/// partner, and leaves a vertex whose neighbors are all taken self-matched.
void greedy_pass(const Graph& g, MatchScheme scheme, Rng& rng,
                 std::vector<idx_t>& match, const std::vector<idx_t>& order) {
  for (const idx_t v : order) {
    if (match[to_size(v)] >= 0) continue;

    idx_t best = -1;
    switch (scheme) {
      case MatchScheme::kRandom: {
        // Reservoir-sample one unmatched neighbor.
        idx_t seen = 0;
        for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
          const idx_t u = g.adjncy[to_size(e)];
          if (match[to_size(u)] >= 0) continue;
          ++seen;
          if (rng.next_below(static_cast<std::uint64_t>(seen)) == 0) best = u;
        }
        break;
      }
      case MatchScheme::kHeavyEdge: {
        wgt_t best_w = -1;
        for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
          const idx_t u = g.adjncy[to_size(e)];
          if (match[to_size(u)] >= 0) continue;
          if (g.adjwgt[to_size(e)] > best_w) {
            best_w = g.adjwgt[to_size(e)];
            best = u;
          }
        }
        break;
      }
      case MatchScheme::kHeavyEdgeBalanced: {
        // Primary key: edge weight (max). Secondary: flattest combined
        // weight vector among candidates tied on the primary key.
        wgt_t best_w = -1;
        real_t best_score = 1e300;
        for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
          const idx_t u = g.adjncy[to_size(e)];
          if (match[to_size(u)] >= 0) continue;
          const wgt_t w = g.adjwgt[to_size(e)];
          if (w < best_w) continue;
          const real_t score = balanced_edge_score(g, v, u);
          if (w > best_w || score < best_score) {
            best_w = w;
            best_score = score;
            best = u;
          }
        }
        break;
      }
    }

    if (best >= 0) {
      match[to_size(v)] = best;
      match[to_size(best)] = v;
    } else {
      match[to_size(v)] = v;
    }
  }
}

}  // namespace

real_t balanced_edge_score(const Graph& g, idx_t v, idx_t u) {
  if (g.ncon == 1) return 0.0;
  const wgt_t* wv = g.weights(v);
  const wgt_t* wu = g.weights(u);
  real_t mx = 0.0;
  real_t mn = 1e300;
  for (int i = 0; i < g.ncon; ++i) {
    const real_t c = static_cast<real_t>(wv[i] + wu[i]) *
                     g.invtvwgt[to_size(i)];
    mx = std::max(mx, c);
    mn = std::min(mn, c);
  }
  return mx - mn;
}

std::vector<idx_t> compute_matching(const Graph& g, MatchScheme scheme,
                                    Rng& rng, TraceRecorder* trace) {
  std::vector<idx_t> match;
  compute_matching_into(g, scheme, rng, match, trace);
  return match;
}

void compute_matching_into(const Graph& g, MatchScheme scheme, Rng& rng,
                           std::vector<idx_t>& match, TraceRecorder* trace,
                           Workspace* ws, const MatchingExec* /*exec*/) {
  match.assign(to_size(g.nvtxs), -1);

  std::vector<idx_t> local_perm;
  std::vector<idx_t>& perm = ws != nullptr ? ws->perm : local_perm;
  random_permutation(g.nvtxs, perm, rng);
  greedy_pass(g, scheme, rng, match, perm);

  if (trace != nullptr) {
    idx_t pairs = 0, failed = 0;
    for (idx_t v = 0; v < g.nvtxs; ++v) {
      if (match[to_size(v)] != v) {
        ++pairs;  // counts both endpoints; halved below
      } else if (g.degree(v) > 0) {
        ++failed;  // had neighbors but every one was already taken
      }
    }
    trace_count(trace, "match.pairs", pairs / 2);
    trace_count(trace, "match.failed", failed);
  }
}

idx_t build_coarse_map(const Graph& g, const std::vector<idx_t>& match,
                       std::vector<idx_t>& cmap) {
  cmap.assign(to_size(g.nvtxs), -1);
  idx_t ncoarse = 0;
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    const idx_t u = match[to_size(v)];
    assert(u >= 0 && u < g.nvtxs);
    if (v <= u) {
      cmap[to_size(v)] = ncoarse;
      cmap[to_size(u)] = ncoarse;
      ++ncoarse;
    }
  }
  return ncoarse;
}

}  // namespace mcgp
