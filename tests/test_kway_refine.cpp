#include "core/kway_refine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/audit.hpp"
#include "core/coarsen.hpp"
#include "core/kway_context.hpp"
#include "core/matching.hpp"
#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/metrics.hpp"
#include "part_hash.hpp"
#include "support/trace.hpp"

namespace mcgp {
namespace {

std::vector<real_t> ubvec(int ncon, real_t ub = 1.05) {
  return std::vector<real_t>(to_size(ncon), ub);
}

/// Stripe partition of a grid along x (contiguous, balanced).
std::vector<idx_t> stripes(idx_t nx, idx_t ny, idx_t k) {
  std::vector<idx_t> part(to_size(nx) * to_size(ny));
  for (idx_t x = 0; x < nx; ++x) {
    for (idx_t y = 0; y < ny; ++y) {
      part[to_size(x * ny + y)] = std::min<idx_t>(x * k / nx, k - 1);
    }
  }
  return part;
}

/// Scrambled-but-balanced partition (round robin = terrible cut).
std::vector<idx_t> round_robin(idx_t n, idx_t k) {
  std::vector<idx_t> part(to_size(n));
  for (idx_t v = 0; v < n; ++v) part[to_size(v)] = v % k;
  return part;
}

/// Randomly scrambled partition: unlike round robin on a grid (which
/// forms 1-wide stripes with no positive-gain single moves), a random
/// scramble leaves plenty of greedy improvements.
std::vector<idx_t> scrambled(idx_t n, idx_t k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<idx_t> part(to_size(n));
  for (idx_t v = 0; v < n; ++v) {
    part[to_size(v)] = static_cast<idx_t>(rng.next_below(static_cast<std::uint64_t>(k)));
  }
  return part;
}

TEST(KWayFeasible, DetectsOverload) {
  Graph g = grid2d(4, 4);
  const auto balanced = round_robin(16, 4);
  EXPECT_TRUE(kway_feasible(g, compute_part_weights(g, balanced, 4), 4,
                            ubvec(1)));
  std::vector<idx_t> skewed(16, 0);
  skewed[0] = 1;
  skewed[1] = 2;
  skewed[2] = 3;
  EXPECT_FALSE(kway_feasible(g, compute_part_weights(g, skewed, 4), 4,
                             ubvec(1)));
}

TEST(KWayRefine, ImprovesScrambledCutMassively) {
  Graph g = grid2d(20, 20);
  std::vector<idx_t> part = scrambled(400, 4, 17);
  Rng balance_rng(0);
  kway_balance(g, 4, part, ubvec(1), balance_rng);  // make the start feasible
  const sum_t before = edge_cut(g, part);
  Rng rng(1);
  const sum_t after = kway_refine(g, 4, part, ubvec(1), 8, rng);
  EXPECT_LT(after, before / 2);
  EXPECT_EQ(after, edge_cut(g, part));
  EXPECT_TRUE(kway_feasible(g, compute_part_weights(g, part, 4), 4, ubvec(1)));
}

TEST(KWayRefine, StripesAreAGreedyLocalMinimum) {
  // 1-wide stripes (round robin by column) admit no positive-gain single
  // moves; greedy refinement must not make the cut worse and must keep
  // the partition feasible. (Escaping this minimum is the multilevel
  // driver's job, not the flat refiner's.)
  Graph g = grid2d(20, 20);
  std::vector<idx_t> part = round_robin(400, 4);
  const sum_t before = edge_cut(g, part);
  Rng rng(1);
  const sum_t after = kway_refine(g, 4, part, ubvec(1), 8, rng);
  EXPECT_LE(after, before);
  EXPECT_TRUE(kway_feasible(g, compute_part_weights(g, part, 4), 4, ubvec(1)));
}

TEST(KWayRefine, NeverWorsensGoodPartition) {
  Graph g = grid2d(24, 24);
  std::vector<idx_t> part = stripes(24, 24, 4);
  const sum_t before = edge_cut(g, part);
  Rng rng(2);
  const sum_t after = kway_refine(g, 4, part, ubvec(1), 8, rng);
  EXPECT_LE(after, before);
}

TEST(KWayRefine, KeepsAllPartsNonEmpty) {
  Graph g = grid2d(12, 12);
  std::vector<idx_t> part = round_robin(144, 9);
  Rng rng(3);
  kway_refine(g, 9, part, ubvec(1), 8, rng);
  EXPECT_TRUE(validate_partition(g, part, 9, /*require_nonempty=*/true).empty());
}

TEST(KWayRefine, MultiConstraintStaysFeasible) {
  Graph g = random_geometric(1200, 0, 8, 3);
  apply_type_s_weights(g, 3, 16, 0, 19, 4);
  // Start from contiguous regions mapped onto 8 parts via stripes of ids.
  std::vector<idx_t> part(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) part[to_size(v)] = v % 8;
  Rng rng(5);
  KWayRefineStats stats;
  kway_refine(g, 8, part, ubvec(3, 1.10), 8, rng, &stats);
  EXPECT_TRUE(stats.feasible);
  for (const real_t lb : imbalance(g, part, 8)) EXPECT_LE(lb, 1.10 + 1e-9);
}

/// Everything in part 0 of a 16x16 grid except vertices 1..3: the input
/// of RepairsSkewedPartition.
std::vector<idx_t> skewed_grid16() {
  std::vector<idx_t> part(256, 0);
  for (idx_t p = 1; p < 4; ++p) part[to_size(p)] = p;
  return part;
}

TEST(KWayBalance, RepairsSkewedPartition) {
  Graph g = grid2d(16, 16);
  std::vector<idx_t> part = skewed_grid16();
  Rng rng(6);
  EXPECT_TRUE(kway_balance(g, 4, part, ubvec(1, 1.05), rng));
  EXPECT_LE(max_imbalance(g, part, 4), 1.05 + 1e-9);
}

TEST(KWayBalance, NoopWhenFeasible) {
  Graph g = grid2d(10, 10);
  std::vector<idx_t> part = round_robin(100, 4);
  const auto before = part;
  Rng rng(7);
  EXPECT_TRUE(kway_balance(g, 4, part, ubvec(1), rng));
  EXPECT_EQ(part, before);
}

TEST(KWayBalance, ComplementaryOverloadEscape) {
  // Two parts overloaded in different constraints; the potential-reducing
  // acceptance must route weight through the slack parts.
  GraphBuilder bld(120, 2);
  for (idx_t v = 0; v + 1 < 120; ++v) bld.add_edge(v, v + 1);
  for (idx_t v = 0; v < 120; ++v) {
    bld.set_weights(v, v < 60 ? std::vector<wgt_t>{3, 1}
                              : std::vector<wgt_t>{1, 3});
  }
  Graph g = bld.build();
  // part 0 = all (3,1) vertices, part 1 = all (1,3), parts 2,3 get scraps.
  std::vector<idx_t> part(120);
  for (idx_t v = 0; v < 120; ++v) {
    part[to_size(v)] =
        v < 55 ? 0 : (v < 60 ? 2 : (v < 115 ? 1 : 3));
  }
  Rng rng(8);
  kway_balance(g, 4, part, ubvec(2, 1.10), rng);
  EXPECT_LE(max_imbalance(g, part, 4), 1.35);  // from ~1.8+ initially
}

/// The kway.balance.bail.<reason> counters a traced run recorded.
std::vector<std::string> bail_counters(const TraceRecorder& tr) {
  const CounterRegistry merged = tr.merged_counters();
  std::vector<std::string> out;
  for (const auto& [name, value] : merged.counters()) {
    if (name.rfind("kway.balance.bail.", 0) == 0 && value > 0) {
      out.push_back(name);
    }
  }
  return out;
}

TEST(KWayBalance, TracesExactlyOneBailReason) {
  {
    Graph g = grid2d(16, 16);
    std::vector<idx_t> part = skewed_grid16();
    TraceRecorder tr;
    Rng rng(6);
    EXPECT_TRUE(kway_balance(g, 4, part, ubvec(1, 1.05), rng, nullptr, &tr));
    EXPECT_EQ(bail_counters(tr),
              std::vector<std::string>{"kway.balance.bail.feasible"});
  }
  {
    // One vertex carries half the total weight, so no 4-way partition is
    // within 5%: the balancer must stop for a reason other than feasible.
    GraphBuilder bld(8, 1);
    for (idx_t v = 0; v + 1 < 8; ++v) bld.add_edge(v, v + 1);
    for (idx_t v = 0; v < 8; ++v) {
      bld.set_weights(v, std::vector<wgt_t>{v == 0 ? 7 : 1});
    }
    Graph g = bld.build();
    std::vector<idx_t> part = {0, 0, 0, 0, 0, 1, 2, 3};
    TraceRecorder tr;
    Rng rng(6);
    EXPECT_FALSE(kway_balance(g, 4, part, ubvec(1, 1.05), rng, nullptr, &tr));
    const std::vector<std::string> bails = bail_counters(tr);
    ASSERT_EQ(bails.size(), 1u);
    EXPECT_NE(bails[0], "kway.balance.bail.feasible");
  }
}

TEST(KWayBalance, UsesNoRandomness) {
  Graph g = random_geometric(600, 0, 8, 3);
  apply_type_s_weights(g, 3, 16, 0, 19, 5);
  std::vector<idx_t> a(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) a[to_size(v)] = v < 300 ? 0 : v % 5;
  std::vector<idx_t> b = a;
  Rng r1(1);
  Rng r99(99);
  const Rng r1_before = r1;
  kway_balance(g, 5, a, ubvec(3, 1.10), r1);
  kway_balance(g, 5, b, ubvec(3, 1.10), r99);
  EXPECT_EQ(a, b);
  Rng untouched = r1_before;
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r1.next_u64(), untouched.next_u64());
}

TEST(KWayRefine, StatsConsistent) {
  Graph g = grid2d(15, 15);
  std::vector<idx_t> part = scrambled(225, 5, 3);
  KWayRefineStats stats;
  Rng rng(9);
  const sum_t cut = kway_refine(g, 5, part, ubvec(1), 6, rng, &stats);
  EXPECT_EQ(stats.final_cut, cut);
  EXPECT_GT(stats.passes, 0);
  EXPECT_GT(stats.moves, 0);
}

TEST(KWayRefinePq, ImprovesScrambledCutMassively) {
  Graph g = grid2d(20, 20);
  std::vector<idx_t> part = scrambled(400, 4, 17);
  Rng balance_rng(0);
  kway_balance(g, 4, part, ubvec(1), balance_rng);
  const sum_t before = edge_cut(g, part);
  Rng rng(1);
  const sum_t after = kway_refine_pq(g, 4, part, ubvec(1), 8, rng);
  EXPECT_LT(after, before / 2);
  EXPECT_EQ(after, edge_cut(g, part));
  EXPECT_TRUE(kway_feasible(g, compute_part_weights(g, part, 4), 4, ubvec(1)));
}

TEST(KWayRefinePq, NeverWorsensGoodPartition) {
  Graph g = grid2d(24, 24);
  std::vector<idx_t> part = stripes(24, 24, 4);
  const sum_t before = edge_cut(g, part);
  Rng rng(2);
  EXPECT_LE(kway_refine_pq(g, 4, part, ubvec(1), 8, rng), before);
}

TEST(KWayRefinePq, MultiConstraintStaysFeasible) {
  Graph g = random_geometric(1000, 0, 9, 3);
  apply_type_s_weights(g, 3, 16, 0, 19, 6);
  std::vector<idx_t> part(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) part[to_size(v)] = v % 6;
  Rng rng(7);
  KWayRefineStats stats;
  kway_refine_pq(g, 6, part, ubvec(3, 1.10), 8, rng, &stats);
  EXPECT_TRUE(stats.feasible);
  EXPECT_TRUE(validate_partition(g, part, 6, true).empty());
}

TEST(KWayRefinePq, ComparableToSweepOnGrids) {
  Graph g = grid2d(30, 30);
  std::vector<idx_t> a = scrambled(900, 5, 9);
  std::vector<idx_t> b = a;
  Rng r0(0), r1(1), r2(1);
  kway_balance(g, 5, a, ubvec(1), r0);
  b = a;
  const sum_t cut_sweep = kway_refine(g, 5, a, ubvec(1), 8, r1);
  const sum_t cut_pq = kway_refine_pq(g, 5, b, ubvec(1), 8, r2);
  // Both refiners converge to the same quality class.
  EXPECT_LT(static_cast<double>(cut_pq), 1.5 * static_cast<double>(cut_sweep));
  EXPECT_LT(static_cast<double>(cut_sweep), 1.5 * static_cast<double>(cut_pq));
}

TEST(KWayRefine, SinglePartIsNoop) {
  Graph g = grid2d(6, 6);
  std::vector<idx_t> part(36, 0);
  Rng rng(10);
  const sum_t cut = kway_refine(g, 1, part, ubvec(1), 4, rng);
  EXPECT_EQ(cut, 0);
  for (const idx_t p : part) EXPECT_EQ(p, 0);
}

/// The context's id/ed cache against a recompute from the adjacency.
::testing::AssertionResult degree_cache_exact(const Graph& g,
                                              const std::vector<idx_t>& where,
                                              const KWayContext& ctx) {
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    sum_t idw = 0, edw = 0;
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      if (where[to_size(g.adjncy[to_size(e)])] == where[to_size(v)]) {
        idw = checked_add(idw, g.adjwgt[to_size(e)]);
      } else {
        edw = checked_add(edw, g.adjwgt[to_size(e)]);
      }
    }
    if (ctx.id(v) != idw || ctx.ed(v) != edw) {
      return ::testing::AssertionFailure()
             << "vertex " << v << ": cache id=" << ctx.id(v)
             << " ed=" << ctx.ed(v) << ", recompute id=" << idw
             << " ed=" << edw;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Random moves (including no-op moves to the current part) keep the
/// degree cache exact after every single move.
void random_moves_keep_cache_exact(const Graph& g, idx_t nparts,
                                   std::uint64_t seed, int nmoves) {
  std::vector<idx_t> where = scrambled(g.nvtxs, nparts, seed);
  const std::vector<real_t> ub(to_size(g.ncon), 1.05);
  KWayContext ctx(g, nparts, where, ub, nullptr);
  ASSERT_TRUE(degree_cache_exact(g, where, ctx));
  Rng rng(seed + 1);
  for (int step = 0; step < nmoves; ++step) {
    const idx_t v = static_cast<idx_t>(
        rng.next_below(static_cast<std::uint64_t>(g.nvtxs)));
    const idx_t to = static_cast<idx_t>(
        rng.next_below(static_cast<std::uint64_t>(nparts)));
    ctx.move(v, to);
    ASSERT_EQ(where[to_size(v)], to);
    ASSERT_TRUE(degree_cache_exact(g, where, ctx)) << "after move " << step;
  }
  EXPECT_EQ(ctx.pwgts(), compute_part_weights(g, where, nparts));
}

TEST(KWayDegreeCache, RandomMovesOnUnitEdgeGrid) {
  random_moves_keep_cache_exact(grid2d(20, 20), 5, 31, 600);
}

TEST(KWayDegreeCache, RandomMovesOnWeightedContractedGraph) {
  // Two rounds of matching + contraction merge parallel edges, so the
  // coarse graph carries edge weights above 1.
  Graph g = grid2d(30, 30);
  for (int round = 0; round < 2; ++round) {
    Rng rng(static_cast<std::uint64_t>(round) + 5);
    const std::vector<idx_t> match =
        compute_matching(g, MatchScheme::kHeavyEdge, rng);
    std::vector<idx_t> cmap;
    const idx_t nc = build_coarse_map(g, match, cmap);
    g = contract_graph(g, cmap, nc);
  }
  ASSERT_GT(*std::max_element(g.adjwgt.begin(), g.adjwgt.end()), 1);
  random_moves_keep_cache_exact(g, 6, 41, 600);
}

TEST(KWayDegreeCache, RandomMovesWithIsolatedVertex) {
  GraphBuilder b(12, 1);
  for (idx_t v = 0; v + 1 < 11; ++v) b.add_edge(v, v + 1, 1 + v % 3);
  b.add_edge(0, 5, 4);
  const Graph g = b.build();  // vertex 11 has no edges
  random_moves_keep_cache_exact(g, 3, 51, 200);

  std::vector<idx_t> where = round_robin(12, 3);
  const std::vector<real_t> ub(1, 1.05);
  const KWayContext ctx(g, 3, where, ub, nullptr);
  EXPECT_EQ(ctx.id(11), 0);
  EXPECT_EQ(ctx.ed(11), 0);
}

TEST(KWayDegreeCache, ReloadRebuildsAfterExternalChange) {
  const Graph g = grid2d(16, 16);
  std::vector<idx_t> where = stripes(16, 16, 4);
  const std::vector<real_t> ub(1, 1.05);
  KWayContext ctx(g, 4, where, ub, nullptr);
  ASSERT_TRUE(degree_cache_exact(g, where, ctx));
  // Mutate the assignment behind the context's back: the cache goes stale
  // until reload() rebuilds it.
  for (idx_t v = 0; v < g.nvtxs; v += 7) {
    where[to_size(v)] = (where[to_size(v)] + 1) % 4;
  }
  EXPECT_FALSE(degree_cache_exact(g, where, ctx));
  ctx.reload();
  EXPECT_TRUE(degree_cache_exact(g, where, ctx));
  EXPECT_EQ(ctx.pwgts(), compute_part_weights(g, where, 4));
}

// Exact result recorded before the degree cache existed. The cache only
// replaces adjacency re-scans (boundary snapshot, ed < id prune, balance
// keys), and the sweep now hashes and sorts only the vertices that propose
// a move instead of its whole boundary; neither may change a decision: a
// diff here means the refiner's behaviour changed, not just its speed.
TEST(KWayDegreeCache, PartitionsPinnedAcrossThreadCounts) {
  for (const int threads : {1, 4}) {
    Graph g = grid2d(60, 60);
    apply_type_s_weights(g, 3, 16, 0, 19, 7);
    Options o;
    o.nparts = 16;
    o.seed = 11;
    o.num_threads = threads;
    const PartitionResult r = partition(g, o);
    EXPECT_EQ(r.cut, 730) << "threads=" << threads;
    EXPECT_EQ(part_hash(r.part), 0x95d9e83c7e57ab9aULL)
        << "threads=" << threads;
    EXPECT_TRUE(r.feasible);
  }
}

// Exact result of kway_refine alone on an irregular graph, recorded
// before the sweep sorted only its proposers. The mesh's greedy coloring
// has many classes (a fine grid colors into two), so this pins the
// per-class propose/commit order across several classes; the hashed start
// puts nearly every vertex on the boundary.
TEST(KWayRefine, FeMeshSweepPinned) {
  Graph g = fe_mesh(3000, 5);
  apply_type_p_weights(g, 3, 32, 6);
  std::vector<idx_t> color;
  color_graph(g, color);
  EXPECT_GE(*std::max_element(color.begin(), color.end()) + 1, 3);

  const idx_t k = 16;
  std::vector<idx_t> part(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    part[to_size(v)] = static_cast<idx_t>(
        mix_seed(21, static_cast<std::uint64_t>(v)) %
        static_cast<std::uint64_t>(k));
  }
  // A paranoid auditor checks every pass's summed gains against the
  // recomputed cut, which fails on any commit whose gain went stale.
  InvariantAuditor audit(AuditLevel::kParanoid);
  Rng rng(1);
  KWayRefineStats stats;
  const sum_t cut = kway_refine(g, k, part, ubvec(3), 8, rng, &stats,
                                nullptr, nullptr, &audit);
  EXPECT_EQ(stats.passes, 15);
  EXPECT_EQ(stats.moves, 3598);
  EXPECT_EQ(stats.final_cut, 17767);
  EXPECT_EQ(cut, stats.final_cut);
  EXPECT_EQ(part_hash(part), 0x6fc3efc92e536fbdULL);
  EXPECT_TRUE(stats.feasible);
  EXPECT_EQ(audit.count(AuditCheck::kCutDelta),
            static_cast<std::uint64_t>(stats.passes));
}

// Exact result of the repair path (refine_partition: k-way balancer, sweep,
// rebalancer); a diff here means the repair behaviour changed.
TEST(KWayDegreeCache, RefinePartitionPinned) {
  Graph g = grid2d(60, 60);
  apply_type_s_weights(g, 3, 16, 0, 19, 7);
  Options o;
  o.nparts = 16;
  o.seed = 11;
  const PartitionResult initial = partition(g, o);
  apply_type_s_weights(g, 3, 16, 0, 19, 8);  // drift the weights
  o.seed = 12;
  const PartitionResult r = refine_partition(g, initial.part, o);
  EXPECT_EQ(r.cut, 1346);
  EXPECT_EQ(part_hash(r.part), 0x77564b14a43d3adcULL);
  EXPECT_TRUE(r.feasible);
}

// Exact result of one balancer call on a k=64 repair whose drifted
// weights leave the start infeasible. Every figure, pops included, was
// recorded from the drain before it kept per-part member lists; with over
// a thousand episodes, a list that drifted out of id order would change
// the heap's tie order and show here.
TEST(GreedyEpisodes, RepairDrainPinned) {
  Graph g = grid2d(80, 80);
  apply_type_s_weights(g, 3, 16, 0, 19, 7);
  Options o;
  o.nparts = 64;
  o.seed = 11;
  const std::vector<idx_t> start = partition(g, o).part;
  apply_type_s_weights(g, 3, 16, 0, 19, 8);  // drift the weights
  const std::vector<real_t> ub = ubvec(3);

  std::vector<idx_t> where = start;
  KWayContext ctx(g, 64, where, ub, nullptr);
  ASSERT_FALSE(ctx.feasible());
  const DrainStats d = greedy_episodes(ctx);
  EXPECT_EQ(d.moves, 11774);
  EXPECT_EQ(d.episodes, 1273);
  EXPECT_EQ(d.stop, DrainStop::kNoMoves);
  EXPECT_EQ(d.pops, 38358);
  EXPECT_EQ(d.dead_pops, 26584);
  // Every pop is a move, a dead pop, or a lazy requeue.
  EXPECT_GE(d.pops, checked_add(d.moves, d.dead_pops));
  EXPECT_EQ(part_hash(where), 0xc1faf0833aca177bULL);

  // kway_balance runs the same drain and traces the same counts.
  std::vector<idx_t> traced = start;
  TraceRecorder tr;
  Rng rng(1);
  EXPECT_FALSE(kway_balance(g, 64, traced, ub, rng, nullptr, &tr));
  EXPECT_EQ(traced, where);
  const CounterRegistry merged = tr.merged_counters();
  EXPECT_EQ(merged.get("kway.balance.moves"), d.moves);
  EXPECT_EQ(merged.get("kway.balance.episodes"), d.episodes);
  EXPECT_EQ(merged.get("kway.balance.pops"), d.pops);
  EXPECT_EQ(merged.get("kway.balance.dead_pops"), d.dead_pops);
  EXPECT_EQ(merged.get("kway.balance.bail.no_moves"), 1);
}

}  // namespace
}  // namespace mcgp
