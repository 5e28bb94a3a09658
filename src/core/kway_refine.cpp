#include "core/kway_refine.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>

#include "core/audit.hpp"
#include "core/kway_context.hpp"
#include "support/check.hpp"
#include "graph/metrics.hpp"
#include "support/bucket_queue.hpp"
#include "support/flight_recorder.hpp"
#include "support/perf_counters.hpp"
#include "support/trace.hpp"

namespace mcgp {

std::vector<sum_t> compute_part_weights(const Graph& g,
                                        const std::vector<idx_t>& where,
                                        idx_t nparts) {
  return part_weights(g, where, nparts);
}

bool kway_feasible(const Graph& g, const std::vector<sum_t>& pwgts,
                   idx_t nparts, const std::vector<real_t>& ub,
                   const std::vector<real_t>* tpwgts) {
  for (int i = 0; i < g.ncon; ++i) {
    if (g.tvwgt[to_size(i)] <= 0) continue;
    for (idx_t p = 0; p < nparts; ++p) {
      const real_t frac = tpwgts != nullptr
                              ? (*tpwgts)[to_size(p)]
                              : 1.0 / static_cast<real_t>(nparts);
      const real_t limit =
          ub[to_size(i)] * frac *
          static_cast<real_t>(g.tvwgt[to_size(i)]);
      if (static_cast<real_t>(pwgts[to_size(p) * to_size(g.ncon) + to_size(i)]) >
          limit + 1e-9) {
        return false;
      }
    }
  }
  return true;
}

void color_graph(const Graph& g, std::vector<idx_t>& color) {
  color.assign(to_size(g.nvtxs), -1);
  std::vector<idx_t> used;  // used[c] == v iff c is taken next to v
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      const idx_t cu = color[to_size(g.adjncy[to_size(e)])];
      if (cu < 0) continue;
      if (to_size(cu) >= used.size()) used.resize(to_size(cu) + 1, -1);
      used[to_size(cu)] = v;
    }
    idx_t c = 0;
    while (to_size(c) < used.size() && used[to_size(c)] == v) ++c;
    color[to_size(v)] = c;
  }
}

namespace {

// The shared bookkeeping (part weights, counts, limits, connectivity
// scratch) lives in core/kway_context.hpp so the rebalancer can reuse it.

/// Buffers of the colored sweep, owned once per kway_refine call: the
/// static coloring, the per-pass boundary snapshot bucketed by color, the
/// class offsets into it, and one class's proposals.
struct SweepBuffers {
  /// One proposed move: the proposer, its destination and gain, and its
  /// per-pass commit key.
  struct Proposal {
    std::uint64_t hash;
    idx_t v;
    idx_t dest;
    sum_t gain;
  };

  std::vector<idx_t> color;
  idx_t ncolors = 0;
  std::vector<idx_t> boundary;     ///< pass-start snapshot, ascending id
  std::vector<idx_t> by_color;     ///< the snapshot, stable-bucketed by color
  std::vector<std::size_t> class_at;  ///< class c: [class_at[c], class_at[c+1])
  std::vector<Proposal> proposals;
};

/// Best admissible move of vertex v under the sweep rules, evaluated
/// against the context's current state. Returns false when there is none;
/// otherwise the destination part and its gain via out-params.
bool best_move(KWayContext& ctx, const std::vector<idx_t>& where, idx_t v,
               idx_t& dest, sum_t& gain) {
  const idx_t own = where[to_size(v)];
  if (!ctx.can_leave(own)) return false;
  // Exact prune on the live degree cache: every part's connectivity is at
  // most ed(v), so ed < id makes every candidate gain negative and the
  // scan below could not find a move either.
  if (ctx.ed(v) < ctx.id(v)) return false;
  const sum_t idw = ctx.gather_connectivity(v);
  dest = -1;
  gain = 0;
  real_t best_load = 0.0;
  for (const idx_t p : ctx.touched()) {
    if (!ctx.fits(v, p)) continue;
    const sum_t g2 = checked_sub(ctx.conn(p), idw);
    if (g2 < 0) continue;
    const real_t load = ctx.part_load(p);
    // Prefer higher gain; among equal gains prefer the lighter part.
    if (dest < 0 || g2 > gain || (g2 == gain && load < best_load)) {
      dest = p;
      gain = g2;
      best_load = load;
    }
  }
  if (dest < 0) return false;
  // Zero-gain moves are only worthwhile when they shift weight from a
  // more loaded part to a less loaded one.
  return gain != 0 || best_load < ctx.part_load(own) - 1e-12;
}

/// One cut-driven colored sweep. Boundary vertices are visited color class
/// by color class; within a class every proposal is computed from the
/// state as of the class's start and then committed in the per-pass hashed
/// order, re-validating can_leave/fits/zero-gain-balance against the live
/// weights. A proposal's GAIN needs no re-validation: only same-class
/// commits intervene and none of them is adjacent to the proposer, so its
/// connectivity is unchanged — which keeps the paranoid cut-delta audit
/// exact. Returns the number of moves performed and the total cut
/// improvement via `gain_sum`.
///
/// Only proposers are keyed and sorted. The commit order is (hash, id) over
/// the class's proposals, which is the order a sort of the whole class
/// would give with the non-proposers skipped; proposing reads only the
/// class-start state, so it runs in plain id order.
idx_t colored_sweep(const Graph& g, KWayContext& ctx,
                    const std::vector<idx_t>& where, SweepBuffers& buf,
                    Rng& rng, sum_t& gain_sum) {
  // One draw per pass: every ordering decision below derives from it by
  // vertex id.
  const std::uint64_t pass_seed = rng.next_u64();

  // Snapshot the boundary from the degree cache, counting each class.
  buf.boundary.clear();
  buf.class_at.assign(to_size(buf.ncolors) + 1, 0);
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    if (!ctx.may_move(v)) continue;
    buf.boundary.push_back(v);
    ++buf.class_at[to_size(buf.color[to_size(v)])];
  }
  // Stable counting pass: class_at[c] becomes the end of class c, and
  // filling each class backwards in descending id leaves it in ascending
  // id order with class_at[c] at its start.
  std::partial_sum(buf.class_at.begin(), buf.class_at.end(),
                   buf.class_at.begin());
  buf.by_color.resize(buf.boundary.size());
  for (auto it = buf.boundary.rbegin(); it != buf.boundary.rend(); ++it) {
    buf.by_color[--buf.class_at[to_size(buf.color[to_size(*it)])]] = *it;
  }

  idx_t moves = 0;
  gain_sum = 0;
  for (std::size_t c = 0; c + 1 < buf.class_at.size(); ++c) {
    // Propose phase: reads the context as of this class's start.
    buf.proposals.clear();
    for (std::size_t i = buf.class_at[c]; i < buf.class_at[c + 1]; ++i) {
      const idx_t v = buf.by_color[i];
      idx_t dest = -1;
      sum_t gain = 0;
      if (!best_move(ctx, where, v, dest, gain)) continue;
      buf.proposals.push_back(
          {mix_seed(pass_seed, static_cast<std::uint64_t>(v)), v, dest, gain});
    }
    std::sort(buf.proposals.begin(), buf.proposals.end(),
              [](const SweepBuffers::Proposal& a,
                 const SweepBuffers::Proposal& b) {
                if (a.hash != b.hash) return a.hash < b.hash;
                return a.v < b.v;
              });

    // Commit phase: in the class's fixed order, against the live state
    // (earlier commits of THIS class shift weights and counts).
    for (const SweepBuffers::Proposal& pr : buf.proposals) {
      const idx_t own = where[to_size(pr.v)];
      if (!ctx.can_leave(own)) continue;
      if (!ctx.fits(pr.v, pr.dest)) continue;
      if (pr.gain == 0 &&
          ctx.part_load(pr.dest) >= ctx.part_load(own) - 1e-12) {
        continue;
      }
      ctx.move(pr.v, pr.dest);
      gain_sum = checked_add(gain_sum, pr.gain);
      ++moves;
    }
  }
  return moves;
}

/// One priority-queue pass: boundary vertices keyed by their optimistic
/// gain (best neighbor connectivity minus internal degree). Returns moves
/// performed; accumulates realized gain in `gain_sum`.
idx_t pq_pass(const Graph& g, KWayContext& ctx, std::vector<idx_t>& where,
              BucketQueue& queue, Rng& rng, sum_t& gain_sum) {
  queue.reset(g.nvtxs);
  std::vector<char> popped(to_size(g.nvtxs), 0);
  for (const idx_t v : ctx.boundary(rng)) {
    const sum_t idw = ctx.gather_connectivity(v);
    sum_t best_conn = 0;
    for (const idx_t p : ctx.touched()) best_conn = std::max(best_conn, ctx.conn(p));
    queue.insert(v, checked_narrow<wgt_t>(checked_sub(best_conn, idw)));
  }

  idx_t moves = 0;
  gain_sum = 0;
  while (!queue.empty()) {
    const idx_t v = queue.pop_max();
    popped[to_size(v)] = 1;  // each vertex moves at most once per pass
    idx_t dest;
    sum_t gain;
    if (!best_move(ctx, where, v, dest, gain)) continue;
    ctx.move(v, dest);
    gain_sum = checked_add(gain_sum, gain);
    ++moves;
    // Refresh the optimistic keys of v's unpopped neighbors; insert
    // neighbors that just became boundary vertices, drop ones that left it.
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      const idx_t u = g.adjncy[to_size(e)];
      if (popped[to_size(u)]) continue;
      const sum_t idw = ctx.gather_connectivity(u);
      sum_t best_conn = 0;
      for (const idx_t p : ctx.touched()) {
        best_conn = std::max(best_conn, ctx.conn(p));
      }
      const bool on_boundary = !ctx.touched().empty();
      if (queue.contains(u)) {
        if (on_boundary) {
          queue.update(u, checked_narrow<wgt_t>(checked_sub(best_conn, idw)));
        } else {
          queue.remove(u);
        }
      } else if (on_boundary) {
        queue.insert(u, checked_narrow<wgt_t>(checked_sub(best_conn, idw)));
      }
    }
  }
  return moves;
}

/// kway_balance on an existing context: the refiners balance their own
/// context in place instead of building a second one and reloading.
bool balance_context(KWayContext& ctx, TraceRecorder* trace,
                     InvariantAuditor* audit) {
  if (ctx.feasible()) return true;

  TraceSpan span(trace, "kway.balance");
  const DrainStats d = greedy_episodes(ctx);

  // The drain mutated pwgts/vcount incrementally across many moves.
  if (audit != nullptr && audit->boundaries()) {
    audit->check_kway_state(ctx.graph(), ctx.where(), ctx.nparts(),
                            ctx.pwgts(), &ctx.vcounts(), "kway.balance",
                            &ctx.ids(), &ctx.eds());
  }

  const bool ok = ctx.feasible();
  if (span.enabled()) {
    trace_count(trace, "kway.balance.moves", d.moves);
    trace_count(trace, "kway.balance.episodes", d.episodes);
    trace_count(trace, "kway.balance.pops", d.pops);
    trace_count(trace, "kway.balance.dead_pops", d.dead_pops);
    // Why the drain stopped, so tight instances are diagnosable from
    // counters alone.
    trace_count(trace,
                std::string("kway.balance.bail.") + drain_stop_name(d.stop));
    span.arg({"moves", d.moves});
    span.arg({"episodes", d.episodes});
    span.arg({"max_overload", ctx.max_overload()});
    span.arg({"feasible", static_cast<std::int64_t>(ok ? 1 : 0)});
  }
  return ok;
}

/// The steps both k-way refiners share: balance, then passes until the cut
/// stops improving (zero-gain balance jiggling alone is not progress,
/// bounded by a generous multiple of the configured pass count as a safety
/// net against oscillation), then a final balance. `run_pass(ctx, gain_sum)`
/// performs one pass and returns its moves; `pass_site` and `refine_site`
/// label the audit checks.
template <typename RunPass>
sum_t refine_passes(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                    const std::vector<real_t>& ub, int max_passes,
                    KWayRefineStats* stats, const std::vector<real_t>* tpwgts,
                    TraceRecorder* trace, InvariantAuditor* audit,
                    FlightRecorder* flight, const char* pass_site,
                    const char* refine_site, RunPass run_pass) {
  KWayContext ctx(g, nparts, where, ub, tpwgts);

  balance_context(ctx, trace, audit);

  const bool delta_audit = audit != nullptr && audit->paranoid();
  const int pass_cap = 4 * max_passes;
  for (int pass = 0; pass < pass_cap; ++pass) {
    TraceSpan span(trace, "kway.pass");
    sum_t gain_sum = 0;
    const sum_t cut_before = delta_audit ? edge_cut(g, where) : 0;
    const idx_t moves = run_pass(ctx, gain_sum);
    if (delta_audit) {
      // Every accepted move's gain was exact at commit time, so the sum
      // must account for the pass's cut change to the last unit.
      audit->check_cut_delta(cut_before, gain_sum, edge_cut(g, where),
                             pass_site);
      audit->check_kway_state(g, where, nparts, ctx.pwgts(), &ctx.vcounts(),
                              pass_site, &ctx.ids(), &ctx.eds());
    }
    if (stats != nullptr) {
      ++stats->passes;
      stats->moves += moves;
    }
    if (span.enabled()) {
      trace_count(trace, "kway.passes");
      trace_count(trace, "kway.moves", moves);
      span.arg({"pass", pass});
      span.arg({"moves", moves});
      span.arg({"gain", gain_sum});
      span.arg({"max_overload", ctx.max_overload()});
    }
    if (flight != nullptr) {
      FlightSample fs;
      fs.stage = FlightSample::Stage::kKWayPass;
      fs.pass = pass;
      fs.nvtxs = g.nvtxs;
      fs.nedges = g.nedges();
      fs.moves = moves;
      fs.gain = gain_sum;
      fs.worst_imbalance = ctx.max_overload();
      flight->record(fs);
    }
    if (moves == 0 || (gain_sum == 0 && pass + 1 >= max_passes)) break;
  }

  if (audit != nullptr && audit->boundaries()) {
    audit->check_kway_state(g, where, nparts, ctx.pwgts(), &ctx.vcounts(),
                            refine_site, &ctx.ids(), &ctx.eds());
  }

  balance_context(ctx, trace, audit);

  const sum_t cut = edge_cut(g, where);
  if (stats != nullptr) {
    stats->final_cut = cut;
    stats->feasible = ctx.feasible();
  }
  return cut;
}

}  // namespace

bool kway_balance(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                  const std::vector<real_t>& ub, Rng& /*rng*/,
                  const std::vector<real_t>* tpwgts, TraceRecorder* trace,
                  InvariantAuditor* audit) {
  KWayContext ctx(g, nparts, where, ub, tpwgts);
  return balance_context(ctx, trace, audit);
}

sum_t kway_refine(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                  const std::vector<real_t>& ub, int max_passes, Rng& rng,
                  KWayRefineStats* stats, const std::vector<real_t>* tpwgts,
                  TraceRecorder* trace, InvariantAuditor* audit,
                  FlightRecorder* flight, const KWayExec* /*exec*/) {
  // The graph is static across passes, so one coloring serves them all.
  SweepBuffers buf;
  color_graph(g, buf.color);
  for (const idx_t c : buf.color) buf.ncolors = std::max(buf.ncolors, c + 1);
  return refine_passes(
      g, nparts, where, ub, max_passes, stats, tpwgts, trace, audit, flight,
      "kway.sweep", "kway.refine", [&](KWayContext& ctx, sum_t& gain_sum) {
        return colored_sweep(g, ctx, where, buf, rng, gain_sum);
      });
}

sum_t kway_refine_pq(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                     const std::vector<real_t>& ub, int max_passes, Rng& rng,
                     KWayRefineStats* stats,
                     const std::vector<real_t>* tpwgts, TraceRecorder* trace,
                     InvariantAuditor* audit, FlightRecorder* flight) {
  BucketQueue queue;
  return refine_passes(
      g, nparts, where, ub, max_passes, stats, tpwgts, trace, audit, flight,
      "kway.pq_pass", "kway.refine_pq", [&](KWayContext& ctx, sum_t& gain_sum) {
        return pq_pass(g, ctx, where, queue, rng, gain_sum);
      });
}

}  // namespace mcgp
