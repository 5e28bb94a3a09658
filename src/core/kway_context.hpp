// Shared k-way refinement context: incrementally maintained part weights,
// vertex counts, per-vertex internal/external degrees, per-part/
// per-constraint tolerance limits, and sparse connectivity scratch.
//
// Extracted from the k-way refiner so every pass that mutates a k-way
// assignment — the colored sweep, the PQ pass, the balancer, and the
// greedy multi-constraint rebalancer (core/rebalance.hpp) — shares one
// bookkeeping implementation and therefore one definition of feasibility.
// The one k-way balancer, greedy_episodes, is declared at the end.
#pragma once

#include <algorithm>
#include <vector>

#include "core/kway_refine.hpp"
#include "graph/csr_graph.hpp"
#include "graph/metrics.hpp"
#include "support/check.hpp"
#include "support/random.hpp"

namespace mcgp {

/// Sweep context over a mutable k-way assignment: part weights, vertex
/// counts, the id/ed degree cache, scratch connectivity. All mutation goes
/// through move(), which keeps the incremental state exact (audited via
/// check_kway_state); a pass that mutates `where` directly must reload().
///
/// The degree cache is the kmetis/KaFFPa gain-cache idiom: id(v) is the
/// edge weight from v into its own part, ed(v) the edge weight into every
/// other part. move() updates both in O(deg v) for v and its neighbors, so
/// the sweep's boundary test and its no-move prune cost O(1) instead of an
/// adjacency walk.
class KWayContext {
 public:
  KWayContext(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
              const std::vector<real_t>& ub,
              const std::vector<real_t>* tpwgts)
      : g_(g), nparts_(nparts), where_(where), ub_(ub), tpwgts_(tpwgts) {
    conn_.assign(to_size(nparts), 0);
    touched_.reserve(64);
    limit_.resize(to_size(nparts) * to_size(g.ncon));
    for (idx_t p = 0; p < nparts; ++p) {
      const real_t frac = tpwgts != nullptr
                              ? (*tpwgts)[to_size(p)]
                              : 1.0 / static_cast<real_t>(nparts);
      for (int i = 0; i < g.ncon; ++i) {
        limit_[to_size(p) * to_size(g.ncon) + to_size(i)] =
            g.tvwgt[to_size(i)] > 0
                ? ub[to_size(i)] * frac *
                      static_cast<real_t>(g.tvwgt[to_size(i)])
                : 1e300;
      }
    }
    reload();
  }

  /// Recompute part weights, counts and the degree cache from the current
  /// assignment (after an external pass mutated `where`). O(n + m).
  void reload() {
    pwgts_ = part_weights(g_, where_, nparts_);
    vcount_.assign(to_size(nparts_), 0);
    id_.assign(to_size(g_.nvtxs), 0);
    ed_.assign(to_size(g_.nvtxs), 0);
    for (idx_t v = 0; v < g_.nvtxs; ++v) {
      const idx_t pv = where_[to_size(v)];
      ++vcount_[to_size(pv)];
      sum_t& idv = id_[to_size(v)];
      sum_t& edv = ed_[to_size(v)];
      for (idx_t e = g_.xadj[to_size(v)]; e < g_.xadj[to_size(v + 1)]; ++e) {
        if (where_[to_size(g_.adjncy[to_size(e)])] == pv) {
          idv = checked_add(idv, g_.adjwgt[to_size(e)]);
        } else {
          edv = checked_add(edv, g_.adjwgt[to_size(e)]);
        }
      }
    }
  }

  const Graph& graph() const { return g_; }
  idx_t nparts() const { return nparts_; }
  const std::vector<idx_t>& where() const { return where_; }
  const std::vector<sum_t>& pwgts() const { return pwgts_; }
  const std::vector<idx_t>& vcounts() const { return vcount_; }

  /// Edge weight from v into its own part (internal degree).
  sum_t id(idx_t v) const { return id_[to_size(v)]; }
  /// Edge weight from v into all other parts (external degree).
  sum_t ed(idx_t v) const { return ed_[to_size(v)]; }
  const std::vector<sum_t>& ids() const { return id_; }
  const std::vector<sum_t>& eds() const { return ed_; }

  /// Whether v can be the subject of a cut-driven move: it has external
  /// weight, or no weight at all (then only zero-weight edges can cross,
  /// and a zero-gain move is still possible). A vertex with ed == 0 < id
  /// is excluded even if a zero-weight edge crosses: every gain it could
  /// see is -id < 0. With positive edge weights this is exactly the
  /// adjacency-walk boundary.
  bool may_move(idx_t v) const {
    return ed_[to_size(v)] > 0 || id_[to_size(v)] == 0;
  }

  bool feasible() const {
    return kway_feasible(g_, pwgts_, nparts_, ub_, tpwgts_);
  }

  /// Tolerance limit of part p in constraint i (ub * frac * tvwgt).
  real_t limit(idx_t p, int i) const {
    return limit_[to_size(p) * to_size(g_.ncon) + to_size(i)];
  }

  /// Tolerance-relative load of part p: max_i pwgt/limit.
  real_t part_load(idx_t p) const {
    real_t l = 0.0;
    for (int i = 0; i < g_.ncon; ++i) {
      l = std::max(l, static_cast<real_t>(
                          pwgts_[to_size(p) * to_size(g_.ncon) + to_size(i)]) /
                          limit_[to_size(p) * to_size(g_.ncon) + to_size(i)]);
    }
    return l;
  }

  /// Overload of part p in constraint i (ratio above limit; <=1 is fine).
  real_t overload(idx_t p, int i) const {
    return static_cast<real_t>(pwgts_[to_size(p) * to_size(g_.ncon) + to_size(i)]) /
           limit_[to_size(p) * to_size(g_.ncon) + to_size(i)];
  }

  /// Global maximum tolerance-relative load (feasible iff <= 1).
  real_t max_overload() const {
    real_t mx = 0.0;
    for (idx_t p = 0; p < nparts_; ++p) {
      for (int i = 0; i < g_.ncon; ++i) mx = std::max(mx, overload(p, i));
    }
    return mx;
  }

  /// Load of part p in constraint i after hypothetically adding `extra`.
  real_t load_with(idx_t p, int i, wgt_t extra) const {
    return static_cast<real_t>(checked_add(
               pwgts_[to_size(p) * to_size(g_.ncon) + to_size(i)], extra)) /
           limit_[to_size(p) * to_size(g_.ncon) + to_size(i)];
  }

  /// Post-move tolerance-relative load of part p if it received vertex v.
  real_t load_after(idx_t v, idx_t p) const {
    real_t l = 0.0;
    const wgt_t* w = g_.weights(v);
    for (int i = 0; i < g_.ncon; ++i) {
      l = std::max(l, load_with(p, i, w[i]));
    }
    return l;
  }

  bool fits(idx_t v, idx_t p) const {
    const wgt_t* w = g_.weights(v);
    for (int i = 0; i < g_.ncon; ++i) {
      if (static_cast<real_t>(checked_add(
              pwgts_[to_size(p) * to_size(g_.ncon) + to_size(i)], w[i])) >
          limit_[to_size(p) * to_size(g_.ncon) + to_size(i)] + 1e-9) {
        return false;
      }
    }
    return true;
  }

  /// Gather the edge weight from v to each touched part. Returns the
  /// weight to v's own part; touched() lists the OTHER parts seen.
  sum_t gather_connectivity(idx_t v) {
    for (const idx_t p : touched_) conn_[to_size(p)] = 0;
    touched_.clear();
    const idx_t own = where_[to_size(v)];
    sum_t idw = 0;
    for (idx_t e = g_.xadj[to_size(v)]; e < g_.xadj[to_size(v + 1)]; ++e) {
      const idx_t p = where_[to_size(g_.adjncy[to_size(e)])];
      if (p == own) {
        idw = checked_add(idw, g_.adjwgt[to_size(e)]);
      } else {
        if (conn_[to_size(p)] == 0) touched_.push_back(p);
        conn_[to_size(p)] =
            checked_add(conn_[to_size(p)], g_.adjwgt[to_size(e)]);
      }
    }
    return idw;
  }

  const std::vector<idx_t>& touched() const { return touched_; }
  sum_t conn(idx_t p) const { return conn_[to_size(p)]; }

  /// Never empty a part (keeps every subdomain populated).
  bool can_leave(idx_t p) const { return vcount_[to_size(p)] > 1; }

  /// Move v to part `to`, updating part weights, counts, and the degrees
  /// of v and its neighbors: an edge to a `from` neighbor turns external
  /// for both ends, an edge to a `to` neighbor turns internal.
  void move(idx_t v, idx_t to) {
    const idx_t from = where_[to_size(v)];
    if (from == to) return;
    sum_t to_conn = 0;
    for (idx_t e = g_.xadj[to_size(v)]; e < g_.xadj[to_size(v + 1)]; ++e) {
      const idx_t u = g_.adjncy[to_size(e)];
      const wgt_t w = g_.adjwgt[to_size(e)];
      const idx_t pu = where_[to_size(u)];
      if (pu == from) {
        id_[to_size(u)] = checked_sub(id_[to_size(u)], w);
        ed_[to_size(u)] = checked_add(ed_[to_size(u)], w);
      } else if (pu == to) {
        id_[to_size(u)] = checked_add(id_[to_size(u)], w);
        ed_[to_size(u)] = checked_sub(ed_[to_size(u)], w);
        to_conn = checked_add(to_conn, w);
      }
    }
    const sum_t deg = checked_add(id_[to_size(v)], ed_[to_size(v)]);
    id_[to_size(v)] = to_conn;
    ed_[to_size(v)] = checked_sub(deg, to_conn);
    where_[to_size(v)] = to;
    --vcount_[to_size(from)];
    ++vcount_[to_size(to)];
    const wgt_t* w = g_.weights(v);
    for (int i = 0; i < g_.ncon; ++i) {
      sum_t& fs = pwgts_[to_size(from) * to_size(g_.ncon) + to_size(i)];
      sum_t& ts = pwgts_[to_size(to) * to_size(g_.ncon) + to_size(i)];
      fs = checked_sub(fs, w[i]);
      ts = checked_add(ts, w[i]);
    }
  }

  /// Shuffled adjacency-walk boundary (the PQ pass's seed set). Kept a
  /// walk rather than may_move(): the shuffle order depends on the exact
  /// set, which differs from may_move() when zero-weight edges cross.
  std::vector<idx_t> boundary(Rng& rng) const {
    std::vector<idx_t> b;
    for (idx_t v = 0; v < g_.nvtxs; ++v) {
      const idx_t pv = where_[to_size(v)];
      for (idx_t e = g_.xadj[to_size(v)]; e < g_.xadj[to_size(v + 1)]; ++e) {
        if (where_[to_size(g_.adjncy[to_size(e)])] != pv) {
          b.push_back(v);
          break;
        }
      }
    }
    shuffle(b, rng);
    return b;
  }

 private:
  const Graph& g_;
  idx_t nparts_;
  std::vector<idx_t>& where_;
  const std::vector<real_t>& ub_;
  const std::vector<real_t>* tpwgts_;
  std::vector<sum_t> pwgts_;
  std::vector<idx_t> vcount_;
  std::vector<sum_t> id_;  ///< internal degree per vertex
  std::vector<sum_t> ed_;  ///< external degree per vertex
  std::vector<sum_t> conn_;
  std::vector<idx_t> touched_;
  std::vector<real_t> limit_;
};

/// Why greedy_episodes stopped; traced as kway.balance.bail.<name>.
enum class DrainStop {
  kFeasible,
  kNoMoves,
  kNoProgress,
  kMoveCap,
  kEpisodeCap
};

/// "feasible", "no_moves", "no_progress", "move_cap" or "episode_cap".
const char* drain_stop_name(DrainStop stop);

/// Outcome of one greedy_episodes call.
struct DrainStats {
  sum_t moves = 0;    ///< moves committed
  int episodes = 0;  ///< episodes that committed at least one move
  sum_t pops = 0;     ///< heap pops, lazy requeues included
  sum_t dead_pops = 0;  ///< pops with no admissible destination part
  DrainStop stop = DrainStop::kEpisodeCap;
};

/// The k-way balancer (SC'98 MC-KW balancing with Maas-style gain-to-relief
/// keys): each episode drains the argmax-overloaded (part, constraint)
/// through a relief-ordered heap. A vertex may go to an adjacent part or
/// the lightest part if it fits there or the post-move load stays below
/// the current peak; fits, then cut gain, then lower load decide. Episodes
/// repeat while (peak, #loads at the peak) falls lexicographically, under
/// episode and move caps. Serial and deterministic: it draws no randomness.
/// Per-part member lists, kept sorted by id across the drain's moves, make
/// seeding an episode cost O(|q| log |q|) for peak part q rather than O(n).
/// Defined in core/rebalance.cpp with its helpers.
DrainStats greedy_episodes(KWayContext& ctx);

}  // namespace mcgp
