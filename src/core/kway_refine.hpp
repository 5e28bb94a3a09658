// Greedy multi-constraint k-way refinement (the MC-KW uncoarsening step).
//
// A randomized greedy sweep over boundary vertices: each vertex may move
// to a neighboring subdomain if the move improves the cut without pushing
// any constraint of the destination past its tolerance (or if it improves
// balance at no cut cost). When the projected partition arrives out of
// tolerance — coarse-vertex granularity can force this — the k-way
// balancer (greedy_episodes, core/kway_context.hpp) runs first.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "graph/csr_graph.hpp"
#include "support/random.hpp"

namespace mcgp {

struct KWayRefineStats {
  int passes = 0;
  idx_t moves = 0;
  sum_t final_cut = 0;
  bool feasible = false;
};

/// Per-part / per-constraint weight table, pwgts[p*ncon + i].
std::vector<sum_t> compute_part_weights(const Graph& g,
                                        const std::vector<idx_t>& where,
                                        idx_t nparts);

/// True iff every part is within tolerance on every constraint:
/// pwgts[p][i] <= ub[i] * tpwgts[p] * tvwgt[i], where tpwgts defaults to
/// the uniform 1/nparts when null.
bool kway_feasible(const Graph& g, const std::vector<sum_t>& pwgts,
                   idx_t nparts, const std::vector<real_t>& ub,
                   const std::vector<real_t>* tpwgts = nullptr);

/// Run the k-way balancer (greedy_episodes, core/kway_context.hpp) on
/// `where`: drain the most overloaded (part, constraint) with cheap cut
/// damage and large relief first, until feasible or stuck. Returns true
/// when feasible. `tpwgts` (optional) gives per-part target fractions;
/// null = uniform. A non-null `trace` records a "kway.balance" span with
/// one kway.balance.bail.<reason> counter; a non-null `audit` checks the
/// incremental state afterwards (kBoundaries). `rng` is unused — the
/// balancer draws no randomness — and kept only for source compatibility.
bool kway_balance(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                  const std::vector<real_t>& ub, Rng& rng,
                  const std::vector<real_t>* tpwgts = nullptr,
                  TraceRecorder* trace = nullptr,
                  InvariantAuditor* audit = nullptr);

/// Greedy vertex coloring in ascending id order: each vertex takes the
/// smallest color absent among its already-colored neighbors. Adjacent
/// vertices never share a color, so same-color boundary vertices cannot
/// affect each other's connectivity — the independence that keeps a color
/// class's proposals exact until commit. Deterministic by construction;
/// the colors are 0..c-1 for some c.
void color_graph(const Graph& g, std::vector<idx_t>& color);

/// Greedy refinement. Runs up to `max_passes` sweeps (plus balancing when
/// needed) and returns the final cut. `tpwgts` (optional) gives per-part
/// target fractions; null = uniform. A non-null `trace` records one
/// "kway.pass" span per sweep plus the kway.moves / kway.passes counters.
/// A non-null `audit` verifies the incrementally maintained part weights
/// and vertex counts against fresh recomputes when refinement finishes
/// (kBoundaries) and, per sweep, that the accumulated move gains account
/// exactly for the cut change (kParanoid). A non-null `flight` appends
/// one telemetry sample per sweep (moves, gain, max overload).
///
/// Each sweep is a colored sweep: boundary vertices are bucketed by a
/// greedy vertex coloring (adjacent vertices never share a color) and
/// visited color by color. Within one color the best moves are first
/// PROPOSED from the state as of the class's start — same-color vertices
/// are pairwise non-adjacent, so no commit of the class can change another
/// member's connectivity or gain — and then COMMITTED in a per-pass hashed
/// order, re-validating balance against the live state. The sweep is
/// serial and its result does not depend on the thread count. `exec` is
/// ignored (see IgnoredExec).
sum_t kway_refine(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                  const std::vector<real_t>& ub, int max_passes, Rng& rng,
                  KWayRefineStats* stats = nullptr,
                  const std::vector<real_t>* tpwgts = nullptr,
                  TraceRecorder* trace = nullptr,
                  InvariantAuditor* audit = nullptr,
                  FlightRecorder* flight = nullptr,
                  const KWayExec* exec = nullptr);

/// Priority-queue k-way refinement: boundary vertices are kept in a gain
/// bucket queue keyed by their best potential move (kmetis-style), so the
/// highest-gain moves commit first and newly exposed gains are picked up
/// within the same pass. Same admissibility rules as the sweep variant.
sum_t kway_refine_pq(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                     const std::vector<real_t>& ub, int max_passes, Rng& rng,
                     KWayRefineStats* stats = nullptr,
                     const std::vector<real_t>* tpwgts = nullptr,
                     TraceRecorder* trace = nullptr,
                     InvariantAuditor* audit = nullptr,
                     FlightRecorder* flight = nullptr);

}  // namespace mcgp
