#include "replica.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/balance2way.hpp"
#include "core/bisection.hpp"
#include "core/coarsen.hpp"
#include "core/initpart.hpp"
#include "core/kway_refine.hpp"
#include "core/matching.hpp"
#include "core/project.hpp"
#include "core/rb_driver.hpp"
#include "core/rebalance.hpp"
#include "core/refine2way.hpp"
#include "graph/graph_ops.hpp"
#include "graph/metrics.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"
#include "support/workspace.hpp"

namespace perfbench {

namespace {

using mcgp::Graph;
using mcgp::idx_t;
using mcgp::Options;
using mcgp::real_t;
using mcgp::Rng;
using mcgp::to_size;

/// State of one replica call.
struct Run {
  const Options& opts;  ///< with ubvec already clamped by effective_ubvec
  Tracer& tr;
  mcgp::ThreadPool* pool = nullptr;
  const std::vector<real_t>* tpwgts = nullptr;
};

std::vector<real_t> ub_vector(const Graph& g, const Options& opts) {
  std::vector<real_t> ub(to_size(g.ncon));
  for (int i = 0; i < g.ncon; ++i) ub[to_size(i)] = opts.ub_for(i);
  return ub;
}

// --- copies of driver-private helpers (src/core/*_driver.cpp) -------------

idx_t kway_coarsen_to(const Options& opts, idx_t nparts, int ncon,
                      idx_t nvtxs) {
  if (opts.coarsen_to > 0) return opts.coarsen_to;
  return std::max<idx_t>(
      {30 * nparts, 40 * ncon, 200, std::min<idx_t>(nvtxs / 8, 3000)});
}

idx_t bisect_coarsen_to(const Options& opts, int ncon) {
  if (opts.coarsen_to > 0) return opts.coarsen_to;
  return std::max<idx_t>(100, 30 * ncon);
}

void ensure_nonempty_sides(const Graph& g, std::vector<idx_t>& where) {
  if (g.nvtxs < 2) return;
  idx_t count0 = 0;
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    if (where[to_size(v)] == 0) ++count0;
  }
  if (count0 > 0 && count0 < g.nvtxs) return;
  const int empty = count0 == 0 ? 0 : 1;
  idx_t best = 0;
  real_t best_key = 1e300;
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    real_t mx = 0.0;
    for (int i = 0; i < g.ncon; ++i) {
      mx = std::max(mx, static_cast<real_t>(g.weight(v, i)) *
                            g.invtvwgt[to_size(i)]);
    }
    if (mx < best_key) {
      best_key = mx;
      best = v;
    }
  }
  where[to_size(best)] = empty;
}

real_t target_sum(const std::vector<real_t>& tpwgts, idx_t part0, idx_t k) {
  if (tpwgts.empty()) return static_cast<real_t>(k);
  real_t s = 0;
  for (idx_t p = part0; p < part0 + k; ++p) s += tpwgts[to_size(p)];
  return s;
}

void ensure_nonempty_parts(const Graph& g, idx_t nparts,
                           std::vector<idx_t>& part) {
  if (g.nvtxs < nparts) return;
  std::vector<idx_t> count(to_size(nparts), 0);
  for (const idx_t p : part) ++count[to_size(p)];
  for (idx_t empty = 0; empty < nparts; ++empty) {
    if (count[to_size(empty)] > 0) continue;
    idx_t donor = 0;
    for (idx_t p = 1; p < nparts; ++p) {
      if (count[to_size(p)] > count[to_size(donor)]) donor = p;
    }
    idx_t best = -1;
    mcgp::sum_t best_deg = 0;
    for (idx_t v = 0; v < g.nvtxs; ++v) {
      if (part[to_size(v)] != donor) continue;
      const mcgp::sum_t deg = g.weighted_degree(v);
      if (best < 0 || deg < best_deg) {
        best = v;
        best_deg = deg;
      }
    }
    if (best < 0) break;
    part[to_size(best)] = empty;
    --count[to_size(donor)];
    ++count[to_size(empty)];
  }
}

/// The result-quality pass partition() and refine_partition() end with.
void fill_quality(const Graph& g, const Run& run,
                  const std::vector<idx_t>& part) {
  const idx_t k = run.opts.nparts;
  (void)mcgp::edge_cut(g, part);
  (void)(run.tpwgts != nullptr
             ? mcgp::target_imbalance(g, part, k, *run.tpwgts)
             : mcgp::imbalance(g, part, k));
  (void)mcgp::kway_feasible(g, mcgp::part_weights(g, part, k), k,
                            ub_vector(g, run.opts), run.tpwgts);
}

// --- layers ---------------------------------------------------------------

/// coarsen_graph(), one span per matching and per contraction.
mcgp::Hierarchy coarsen(const Graph& g, idx_t coarsen_to, Rng& rng,
                        mcgp::Workspace* ws, mcgp::WorkspacePool* wspool,
                        Run& run, bool top) {
  mcgp::Hierarchy h;
  h.finest = &g;
  std::vector<idx_t> local_match;
  std::vector<idx_t>& match = ws != nullptr ? ws->match : local_match;
  const Graph* cur = &g;
  const int max_levels = mcgp::CoarsenParams{}.max_levels;
  for (int level = 0; level < max_levels; ++level) {
    if (cur->nvtxs <= coarsen_to) break;
    std::vector<idx_t> cmap;
    idx_t ncoarse = 0;
    {
      SpanScope s(&run.tr, "coarsen.matching", level);
      mcgp::MatchingExec mexec;
      mexec.pool = run.pool;
      mexec.level = level;
      mcgp::compute_matching_into(*cur, run.opts.matching, rng, match,
                                  nullptr, ws, &mexec);
      ncoarse = mcgp::build_coarse_map(*cur, match, cmap);
    }
    run.tr.count("coarsen.matching.calls");
    run.tr.count("coarsen.matching.vtxs", cur->nvtxs);
    // Every coarse vertex is a matched pair or a singleton.
    run.tr.count("coarsen.matching.matched", 2.0 * (cur->nvtxs - ncoarse));

    if (ncoarse >= static_cast<idx_t>(run.opts.min_coarsen_reduction *
                                      cur->nvtxs) &&
        ncoarse > coarsen_to) {
      break;
    }

    Graph coarse;
    {
      SpanScope s(&run.tr, "coarsen.contract", level);
      mcgp::ContractExec cexec;
      cexec.pool = run.pool;
      cexec.wspool = wspool;
      cexec.level = level;
      coarse = mcgp::contract_graph(*cur, cmap, ncoarse, ws, &cexec);
    }
    run.tr.count("coarsen.contract.edges_in", cur->nedges());
    run.tr.count("coarsen.contract.edges_out", coarse.nedges());
    h.levels.push_back(mcgp::CoarseLevel{std::move(coarse), std::move(cmap)});
    cur = &h.levels.back().graph;
  }
  if (top) {
    run.tr.count("coarsen.levels", h.num_levels());
    run.tr.count("coarsen.coarsest_nvtxs", h.coarsest().nvtxs);
  }
  return h;
}

bool feasible(const Run& run, const Graph& g, const std::vector<idx_t>& where,
              const std::vector<real_t>& ub) {
  const idx_t k = run.opts.nparts;
  return mcgp::kway_feasible(g, mcgp::compute_part_weights(g, where, k), k,
                             ub, run.tpwgts);
}

/// kway_refine() plus the off-path kway_balance probe on a copy of its
/// input: kway_refine balances first exactly when its input is infeasible.
void refine_kway(Run& run, const Graph& g, std::vector<idx_t>& where,
                 const std::vector<real_t>& ub, int passes, Rng& rng,
                 int level, mcgp::WorkspacePool* wspool) {
  const idx_t k = run.opts.nparts;
  {
    SpanScope probe(&run.tr, "probe", level, /*off_path=*/true);
    if (!feasible(run, g, where, ub)) {
      std::vector<idx_t> copy = where;
      Rng rng_copy = rng;
      bool ok = false;
      {
        SpanScope s(&run.tr, "kway_balance", level, /*off_path=*/true);
        ok = mcgp::kway_balance(g, k, copy, ub, rng_copy, run.tpwgts);
      }
      run.tr.count("kway_balance.calls");
      run.tr.count("kway_balance.successes", ok ? 1.0 : 0.0);
    }
  }
  mcgp::KWayRefineStats st;
  {
    SpanScope s(&run.tr, "kway_refine", level);
    mcgp::KWayExec kexec;
    kexec.pool = run.pool;
    kexec.wspool = wspool;
    kexec.level = level;
    mcgp::kway_refine(g, k, where, ub, passes, rng, &st, run.tpwgts, nullptr,
                      nullptr, nullptr, &kexec);
  }
  run.tr.count("kway_refine.passes", st.passes);
  run.tr.count("kway_refine.moves", st.moves);
}

void rebalance(Run& run, const Graph& g, std::vector<idx_t>& where,
               const std::vector<real_t>& ub, Rng& rng) {
  mcgp::RebalanceStats st;
  bool ok = false;
  {
    SpanScope s(&run.tr, "rebalance", 0);
    ok = mcgp::rebalance_partition(g, run.opts.nparts, where, ub, rng,
                                   run.tpwgts, &st);
  }
  run.tr.count("rebalance.calls");
  run.tr.count("rebalance.successes", ok ? 1.0 : 0.0);
  run.tr.count("rebalance.episodes", st.episodes);
  run.tr.count("rebalance.vcycles", st.vcycles);
  run.tr.count("rebalance.moves", static_cast<double>(st.moves));
  run.tr.count("rebalance.swaps", static_cast<double>(st.swaps));
}

// --- MC-KW (kway_driver.cpp) ------------------------------------------------

std::vector<idx_t> kway(const Graph& g, Rng& rng, Run& run) {
  const Options& opts = run.opts;
  const idx_t k = std::max<idx_t>(opts.nparts, 1);
  if (k == 1 || g.nvtxs == 0) return std::vector<idx_t>(to_size(g.nvtxs), 0);

  mcgp::WorkspacePool wspool;
  mcgp::Hierarchy h;
  {
    mcgp::WorkspacePool::Lease ws = wspool.acquire();
    const idx_t ct =
        std::max<idx_t>(kway_coarsen_to(opts, k, g.ncon, g.nvtxs), 4 * k);
    h = coarsen(g, ct, rng, ws.get(), &wspool, run, /*top=*/true);
  }

  std::vector<idx_t> cwhere;
  {
    SpanScope s(&run.tr, "initpart", h.num_levels());
    Options init_opts = opts;
    init_opts.nparts = k;
    init_opts.coarsen_to = 0;
    init_opts.ubvec.resize(to_size(g.ncon));
    for (int i = 0; i < g.ncon; ++i) {
      init_opts.ubvec[to_size(i)] =
          std::max<real_t>(1.0 + (opts.ub_for(i) - 1.0) * 0.9, 1.003);
    }
    cwhere = mcgp::partition_recursive_bisection(h.coarsest(), init_opts, rng,
                                                 nullptr, nullptr, run.pool);
  }
  run.tr.count("initpart.calls");

  const std::vector<real_t> ub = ub_vector(g, opts);
  for (int l = h.num_levels(); l >= 0; --l) {
    const Graph& cur = h.graph_at(l);
    if (l < h.num_levels()) {
      SpanScope s(&run.tr, "project", l);
      std::vector<idx_t> fine_where;
      mcgp::project_partition(h.levels[to_size(l)].cmap, cwhere, fine_where);
      cwhere = std::move(fine_where);
    }
    const int passes = l == 0 ? opts.kway_passes + 2 : opts.kway_passes;
    refine_kway(run, cur, cwhere, ub, passes, rng, l, &wspool);
  }

  if (!feasible(run, g, cwhere, ub)) rebalance(run, g, cwhere, ub, rng);
  return cwhere;
}

// --- MC-RB (rb_driver.cpp), recursion run serially ------------------------

struct RbShared {
  Run& run;
  const std::vector<real_t>& level_ub;
  std::vector<idx_t>& out_part;
  std::uint64_t root_seed = 0;
  mcgp::WorkspacePool* wspool = nullptr;
};

/// multilevel_bisect().
void bisect(const Graph& g, std::vector<idx_t>& where,
            const mcgp::BisectionTargets& targets, Rng& rng, Run& run,
            mcgp::Workspace* ws, mcgp::WorkspacePool* wspool, bool top) {
  const Options& opts = run.opts;
  mcgp::Hierarchy h = coarsen(g, bisect_coarsen_to(opts, g.ncon), rng, ws,
                              wspool, run, top);

  std::vector<idx_t> cwhere;
  {
    SpanScope s(&run.tr, "initpart", h.num_levels());
    mcgp::init_bisection(h.coarsest(), cwhere, targets, opts.init_scheme,
                         opts.init_trials, opts.queue_policy, rng, nullptr,
                         run.pool);
  }
  run.tr.count("initpart.calls");

  std::vector<idx_t> local_proj;
  std::vector<idx_t>& proj = ws != nullptr ? ws->proj : local_proj;
  for (int l = h.num_levels(); l >= 0; --l) {
    const Graph& cur = h.graph_at(l);
    if (l < h.num_levels()) {
      {
        SpanScope s(&run.tr, "project", l);
        mcgp::project_partition(h.levels[to_size(l)].cmap, cwhere, proj);
      }
      std::swap(cwhere, proj);
    }
    bool balanced = false;
    {
      SpanScope s(&run.tr, "balance2way", l);
      balanced = mcgp::balance_2way(cur, cwhere, targets, rng);
    }
    run.tr.count("balance2way.calls");
    run.tr.count("balance2way.fails", balanced ? 0.0 : 1.0);
    mcgp::Refine2WayStats st;
    {
      SpanScope s(&run.tr, "refine2way", l);
      mcgp::refine_2way(cur, cwhere, targets, opts.queue_policy,
                        opts.refine_passes, opts.fm_move_limit, rng, &st);
    }
    run.tr.count("refine2way.passes", st.passes);
    run.tr.count("refine2way.moves", st.moves);
    run.tr.count("refine2way.cut_in", static_cast<double>(st.initial_cut));
    run.tr.count("refine2way.cut_out", static_cast<double>(st.final_cut));
  }

  where = std::move(cwhere);
  ensure_nonempty_sides(g, where);
  (void)mcgp::compute_cut_2way(g, where);
}

void rb_recurse(RbShared& ctx, const Graph& sub,
                const std::vector<idx_t>& local_to_global, idx_t k,
                idx_t part0, bool top) {
  if (sub.nvtxs == 0) return;
  if (k <= 1) {
    for (const idx_t gv : local_to_global) ctx.out_part[to_size(gv)] = part0;
    return;
  }
  if (k >= sub.nvtxs) {
    for (idx_t v = 0; v < sub.nvtxs; ++v) {
      ctx.out_part[to_size(local_to_global[to_size(v)])] = part0 + (v % k);
    }
    return;
  }

  Rng rng(mcgp::mix_seed(
      mcgp::mix_seed(ctx.root_seed, static_cast<std::uint64_t>(part0)),
      static_cast<std::uint64_t>(k)));

  const idx_t k_left = (k + 1) / 2;
  const std::vector<real_t>& tpwgts = ctx.run.opts.tpwgts;
  mcgp::BisectionTargets targets;
  targets.f0 =
      target_sum(tpwgts, part0, k_left) / target_sum(tpwgts, part0, k);
  targets.ub = ctx.level_ub;

  Graph half[2];
  std::vector<idx_t> half_to_global[2];
  {
    mcgp::WorkspacePool::Lease lease = ctx.wspool->acquire();
    mcgp::Workspace& ws = *lease;
    std::vector<idx_t> where;
    bisect(sub, where, targets, rng, ctx.run, &ws, ctx.wspool, top);
    ensure_nonempty_sides(sub, where);

    std::vector<char>& select = ws.select;
    select.assign(to_size(sub.nvtxs), 0);
    for (int side = 0; side < 2; ++side) {
      for (idx_t v = 0; v < sub.nvtxs; ++v) {
        select[to_size(v)] = where[to_size(v)] == side ? 1 : 0;
      }
      std::vector<idx_t> sub_to_parent;
      {
        SpanScope s(&ctx.run.tr, "graph_ops.subgraph");
        half[side] = mcgp::induced_subgraph(sub, select, sub_to_parent, &ws);
      }
      half_to_global[side].resize(sub_to_parent.size());
      for (std::size_t i = 0; i < sub_to_parent.size(); ++i) {
        half_to_global[side][i] = local_to_global[to_size(sub_to_parent[i])];
      }
    }
  }

  // Same order as the driver's serial TaskGroup: side 1, then side 0.
  rb_recurse(ctx, half[1], half_to_global[1], k - k_left, part0 + k_left,
             false);
  rb_recurse(ctx, half[0], half_to_global[0], k_left, part0, false);
}

std::vector<idx_t> recursive_bisection(const Graph& g, Rng& rng, Run& run) {
  const Options& opts = run.opts;
  const idx_t k = std::max<idx_t>(opts.nparts, 1);
  std::vector<idx_t> part(to_size(g.nvtxs), 0);
  if (k == 1 || g.nvtxs == 0) return part;

  const std::vector<real_t> ub = ub_vector(g, opts);
  const int depth =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(k))));
  const std::vector<real_t> level_ub = mcgp::per_bisection_ub(ub, depth);

  std::vector<idx_t> identity(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) identity[to_size(v)] = v;

  mcgp::WorkspacePool wspool;
  RbShared ctx{run, level_ub, part, rng.next_u64(), &wspool};
  rb_recurse(ctx, g, identity, k, 0, /*top=*/true);

  if (!feasible(run, g, part, ub)) {
    bool ok = false;
    {
      SpanScope s(&run.tr, "kway_balance", 0);
      ok = mcgp::kway_balance(g, k, part, ub, rng, run.tpwgts);
    }
    run.tr.count("kway_balance.calls");
    run.tr.count("kway_balance.successes", ok ? 1.0 : 0.0);
    refine_kway(run, g, part, ub, /*passes=*/3, rng, 0, &wspool);
    if (!feasible(run, g, part, ub)) rebalance(run, g, part, ub, rng);
  }
  return part;
}

void require_supported(const Options& opts) {
  if (opts.kway_scheme != mcgp::KWayRefineScheme::kSweep ||
      opts.trace != nullptr || opts.flight != nullptr ||
      opts.profile != nullptr || opts.metrics != nullptr ||
      opts.audit != nullptr || opts.audit_level != mcgp::AuditLevel::kOff) {
    throw std::invalid_argument(
        "replica: only the sweep refiner with every observer detached");
  }
}

}  // namespace

std::vector<idx_t> replica_partition(const Graph& g, const Options& run_opts,
                                     Tracer& tr) {
  require_supported(run_opts);
  std::vector<idx_t> part;
  {
    CallScope call(tr, run_opts.num_threads);
    Options opts = run_opts;
    opts.ubvec = mcgp::effective_ubvec(g, opts);
    Rng rng(opts.seed);
    std::optional<mcgp::ThreadPool> pool;
    if (opts.num_threads > 1) pool.emplace(opts.num_threads);
    Run run{opts, tr, pool.has_value() ? &*pool : nullptr,
            opts.tpwgts.empty() ? nullptr : &opts.tpwgts};
    part = opts.algorithm == mcgp::Algorithm::kKWay
               ? kway(g, rng, run)
               : recursive_bisection(g, rng, run);
    ensure_nonempty_parts(g, opts.nparts, part);
    fill_quality(g, run, part);
  }
  return part;
}

std::vector<idx_t> replica_refine(const Graph& g, std::vector<idx_t> part,
                                  const Options& run_opts, Tracer& tr) {
  require_supported(run_opts);
  {
    CallScope call(tr, run_opts.num_threads);
    const std::string problem =
        mcgp::validate_partition(g, part, run_opts.nparts);
    if (!problem.empty()) throw std::invalid_argument(problem);
    Options opts = run_opts;
    opts.ubvec = mcgp::effective_ubvec(g, opts);
    Rng rng(opts.seed);
    std::optional<mcgp::ThreadPool> pool;
    if (opts.num_threads > 1) pool.emplace(opts.num_threads);
    mcgp::WorkspacePool wspool;
    Run run{opts, tr, pool.has_value() ? &*pool : nullptr,
            opts.tpwgts.empty() ? nullptr : &opts.tpwgts};
    const std::vector<real_t> ub = ub_vector(g, opts);
    refine_kway(run, g, part, ub, opts.kway_passes, rng, 0, &wspool);
    if (!feasible(run, g, part, ub)) rebalance(run, g, part, ub, rng);
    fill_quality(g, run, part);
  }
  return part;
}

}  // namespace perfbench
