// The feasibility backstop: min_feasible_ubvec's provable bounds,
// effective_ubvec's clamp, validate_options' rejection of impossible
// tolerances, rebalance_partition repairing overloaded partitions, the
// feasibility auditor seam, and the tight-instance matrix that motivated
// the subsystem (grid-13x13 at k=64 leaves ~2.6 vertices per part; the
// refiner's balancer alone used to exit with ubvec violated).
#include "core/rebalance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/audit.hpp"
#include "core/kway_context.hpp"
#include "core/kway_refine.hpp"
#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/metrics.hpp"
#include "part_hash.hpp"
#include "support/check.hpp"
#include "support/random.hpp"

namespace mcgp {
namespace {

/// Path graph with explicit per-vertex weights (ncon = 1).
Graph weighted_path(const std::vector<wgt_t>& w) {
  GraphBuilder b(static_cast<idx_t>(w.size()), 1);
  for (idx_t v = 0; v + 1 < static_cast<idx_t>(w.size()); ++v) {
    b.add_edge(v, v + 1);
  }
  for (idx_t v = 0; v < static_cast<idx_t>(w.size()); ++v) {
    b.set_weight(v, 0, w[to_size(v)]);
  }
  return b.build();
}

TEST(MinFeasibleUbvec, UnitWeightsEvenSplitIsOne) {
  const Graph g = grid2d(4, 4);  // 16 unit vertices
  const std::vector<real_t> b = min_feasible_ubvec(g, 4, nullptr);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
}

TEST(MinFeasibleUbvec, CountPigeonholeOddSplit) {
  // 5 unit vertices into 2 parts: some part holds ceil(5/2) = 3 vertices,
  // so no tolerance below 3 / (0.5 * 5) = 1.2 is achievable.
  const Graph g = weighted_path({1, 1, 1, 1, 1});
  const std::vector<real_t> b = min_feasible_ubvec(g, 2, nullptr);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_NEAR(b[0], 1.2, 1e-12);
}

TEST(MinFeasibleUbvec, HeaviestVertexDominates) {
  // One vertex of weight 10 among units: whichever part holds it carries
  // at least 10 / (0.5 * 13) = 20/13 of its target.
  const Graph g = weighted_path({10, 1, 1, 1});
  const std::vector<real_t> b = min_feasible_ubvec(g, 2, nullptr);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_NEAR(b[0], 20.0 / 13.0, 1e-12);
}

TEST(MinFeasibleUbvec, Grid13x13At64PartsIsThreeVertexParts) {
  // 169 unit vertices into 64 parts: some part holds ceil(169/64) = 3
  // vertices -> 3 * 64 / 169. This is the exact tolerance the ledger's
  // historical maxlb=1.13609 runs were already achieving.
  const Graph g = grid2d(13, 13);
  const std::vector<real_t> b = min_feasible_ubvec(g, 64, nullptr);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_NEAR(b[0], 3.0 * 64.0 / 169.0, 1e-12);
}

TEST(EffectiveUbvec, DefaultClampsUpExplicitAchievableStays) {
  const Graph g = grid2d(13, 13);
  Options o;
  o.nparts = 64;  // bound ~1.136 exceeds the 1.05 default
  const std::vector<real_t> clamped = effective_ubvec(g, o);
  ASSERT_EQ(clamped.size(), 1u);
  EXPECT_NEAR(clamped[0], 3.0 * 64.0 / 169.0, 1e-12);

  o.ubvec = {1.20};  // explicitly above the bound: honored verbatim
  const std::vector<real_t> kept = effective_ubvec(g, o);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_DOUBLE_EQ(kept[0], 1.20);
}

TEST(ValidateOptions, ExplicitlyInfeasibleUbvecRejected) {
  const Graph g = grid2d(13, 13);
  Options o;
  o.nparts = 64;
  o.ubvec = {1.01};  // below the 1.136 pigeonhole bound
  try {
    partition(g, o);
    FAIL() << "infeasible explicit ubvec must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("infeasible"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ubvec"), std::string::npos) << msg;
  }
}

TEST(RebalancePartition, RepairsGrosslyOverloadedPartition) {
  const Graph g = grid2d(10, 10);
  const idx_t k = 4;
  // Everything in part 0 except one seed vertex per other part.
  std::vector<idx_t> where(to_size(g.nvtxs), 0);
  for (idx_t p = 1; p < k; ++p) where[to_size(p)] = p;
  const std::vector<real_t> ub = {1.05};
  Rng rng(7);
  RebalanceStats stats;
  const bool ok = rebalance_partition(g, k, where, ub, rng, nullptr, &stats);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(stats.feasible);
  EXPECT_GT(stats.moves, 0);
  EXPECT_TRUE(kway_feasible(g, part_weights(g, where, k), k, ub, nullptr));
}

TEST(RebalancePartition, FeasibleInputStaysFeasibleAndUntouchedOrBetter) {
  const Graph g = grid2d(8, 8);
  const idx_t k = 4;
  // Exact 16-vertex quadrants: already perfectly balanced.
  std::vector<idx_t> where(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    const idx_t x = v % 8, y = v / 8;
    where[to_size(v)] = (y / 4) * 2 + (x / 4);
  }
  const std::vector<idx_t> before = where;
  const std::vector<real_t> ub = {1.05};
  Rng rng(7);
  EXPECT_TRUE(rebalance_partition(g, k, where, ub, rng));
  EXPECT_EQ(where, before);  // nothing to do: input returned verbatim
}

TEST(FeasibilityAudit, PassesOnHonestDeclarationTripsOnCorruption) {
  const Graph g = grid2d(6, 6);
  const idx_t k = 4;
  Options o;
  o.nparts = k;
  const PartitionResult r = partition(g, o);
  ASSERT_TRUE(r.feasible);

  InvariantAuditor audit(AuditLevel::kBoundaries);
  audit.check_feasibility(g, r.part, k, r.ubvec_used, nullptr,
                          /*declared_feasible=*/true, "test.honest");
  EXPECT_EQ(audit.count(AuditCheck::kFeasibility), 1u);

  // Corrupt the partition past ubvec: pile most vertices into part 0
  // (keeping every part non-empty) and keep declaring feasibility.
  std::vector<idx_t> corrupted = r.part;
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    corrupted[to_size(v)] = v < k - 1 ? v + 1 : 0;
  }
  EXPECT_THROW(
      audit.check_feasibility(g, corrupted, k, r.ubvec_used, nullptr,
                              /*declared_feasible=*/true, "test.corrupt"),
      AuditFailure);
  // A stale infeasible verdict on a feasible partition must trip too.
  EXPECT_THROW(
      audit.check_feasibility(g, r.part, k, r.ubvec_used, nullptr,
                              /*declared_feasible=*/false, "test.stale"),
      AuditFailure);
}

// rebalance_partition's own output on the tight instance, from a fixed
// start (contiguous id blocks, ~2.6 vertices per part) at the 1.05
// tolerance that is jointly unachievable for these weights: every stage
// runs (episodes, swaps, summed-overload descent, a V-cycle, kicks) and
// the call stays infeasible. Pins the whole result, so any change to the
// search shows up here first, and the stats give a work budget an exact
// baseline.
TEST(RebalancePartition, TightGrid13StartPinned) {
  Graph g = grid2d(13, 13, 3);
  apply_type_s_weights(g, 3, 16, 0, 19, 1003);
  const idx_t k = 64;
  std::vector<idx_t> where(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) where[to_size(v)] = v * k / g.nvtxs;
  const std::vector<real_t> ub(3, 1.05);
  Rng rng(1);
  RebalanceStats stats;
  const bool ok = rebalance_partition(g, k, where, ub, rng, nullptr, &stats);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(stats.feasible);
  EXPECT_EQ(stats.moves, 811);
  EXPECT_EQ(stats.swaps, 416);
  EXPECT_EQ(stats.episodes, 217);
  EXPECT_EQ(stats.vcycles, 1);
  EXPECT_NEAR(stats.max_overload, 1.179138, 1e-6);
  EXPECT_EQ(edge_cut(g, where), 311);
  EXPECT_EQ(part_hash(where), 0x73d751306fdeba1bULL);
}

// The same tight instance from a random start. The "never worse than
// input" guarantee must hold from any start; the outcome is pinned so a
// later change to the rebalancer is measured against it. With the
// two-move relays (deleted since) this start reached 1.1791, the joint
// packing threshold the other starts reach; without them it stops higher.
TEST(RebalancePartition, TightGrid13RandomStartPinned) {
  Graph g = grid2d(13, 13, 3);
  apply_type_s_weights(g, 3, 16, 0, 19, 1003);
  const idx_t k = 64;
  std::vector<idx_t> where(to_size(g.nvtxs));
  Rng start_rng(5);
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    where[to_size(v)] = static_cast<idx_t>(
        start_rng.next_below(static_cast<std::uint64_t>(k)));
  }
  const std::vector<real_t> ub(3, 1.05);
  std::vector<idx_t> start = where;
  const real_t start_overload =
      KWayContext(g, k, start, ub, nullptr).max_overload();
  Rng rng(1);
  RebalanceStats stats;
  const bool ok = rebalance_partition(g, k, where, ub, rng, nullptr, &stats);
  EXPECT_LE(stats.max_overload, start_overload);
  EXPECT_NEAR(KWayContext(g, k, where, ub, nullptr).max_overload(),
              stats.max_overload, 1e-12);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(stats.feasible);
  EXPECT_EQ(stats.moves, 785);
  EXPECT_EQ(stats.swaps, 366);
  EXPECT_EQ(stats.episodes, 212);
  EXPECT_EQ(stats.vcycles, 0);
  EXPECT_NEAR(stats.max_overload, 1.212010, 1e-6);
  EXPECT_EQ(edge_cut(g, where), 311);
  EXPECT_EQ(part_hash(where), 0xef223d13ecae5410ULL);
}

// The CI tight-instance gate (named step in perf-smoke): 64 parts on 169
// vertices must come back feasible for both algorithms, ncon 1 and 3,
// across seeds 1..5. ncon = 1 runs at the clamped provable bound
// (3*64/169); ncon = 3 needs an explicit 1.25 — the per-constraint
// pigeonhole bounds are all ~1.0 there, but jointly packing three
// constraints onto ~2.6-vertex parts is infeasible below ~1.20 (verified
// by annealing the pure packing problem), which no sound per-constraint
// bound can capture. Deterministic at a fixed seed, so this either
// always passes or always fails.
TEST(TightInstances, Grid13FeasibleAcrossSeeds) {
  for (const int ncon : {1, 3}) {
    Graph g = grid2d(13, 13, ncon);
    if (ncon > 1) apply_type_s_weights(g, ncon, 16, 0, 19, 1003);
    for (const Algorithm alg :
         {Algorithm::kKWay, Algorithm::kRecursiveBisection}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Options o;
        o.nparts = 64;
        o.algorithm = alg;
        o.seed = seed;  // ncon=1: empty ubvec clamps to the provable bound
        if (ncon > 1) o.ubvec.assign(to_size(ncon), 1.25);
        const PartitionResult r = partition(g, o);
        const char* alg_name = alg == Algorithm::kKWay ? "MC-KW" : "MC-RB";
        EXPECT_TRUE(r.feasible)
            << alg_name << " ncon=" << ncon << " seed=" << seed
            << " maxlb=" << r.max_imbalance;
        // The verdict must match a from-scratch recompute against the
        // tolerances the run reports it was held to.
        ASSERT_EQ(r.ubvec_used.size(), to_size(g.ncon));
        EXPECT_TRUE(kway_feasible(g, part_weights(g, r.part, o.nparts),
                                  o.nparts, r.ubvec_used, nullptr))
            << alg_name << " ncon=" << ncon << " seed=" << seed;
        for (std::size_t i = 0; i < r.imbalance.size(); ++i) {
          EXPECT_LE(r.imbalance[i], r.ubvec_used[i] + 1e-9)
              << alg_name << " ncon=" << ncon << " seed=" << seed
              << " constraint=" << i;
        }
      }
    }
  }
}

// When the requested tolerance is jointly unachievable (and no sound
// per-constraint bound can prove it, so validate_options accepts the
// configuration), the verdict must stay honest: feasible=false with the
// reported imbalance actually exceeding the tolerance — never a rosy
// flag. This is exactly the ledger bug that motivated the subsystem,
// inverted: the run may fail to balance, it may not misreport it.
TEST(TightInstances, VerdictStaysHonestWhenToleranceUnachievable) {
  Graph g = grid2d(13, 13, 3);
  apply_type_s_weights(g, 3, 16, 0, 19, 1003);
  for (const Algorithm alg :
       {Algorithm::kKWay, Algorithm::kRecursiveBisection}) {
    Options o;
    o.nparts = 64;
    o.algorithm = alg;
    o.seed = 1;  // empty ubvec: the 1.05 default survives the clamp here,
                 // and 1.05 is jointly infeasible for these weights
    const PartitionResult r = partition(g, o);
    const char* alg_name = alg == Algorithm::kKWay ? "MC-KW" : "MC-RB";
    EXPECT_FALSE(r.feasible) << alg_name;
    EXPECT_EQ(r.feasible,
              kway_feasible(g, part_weights(g, r.part, o.nparts), o.nparts,
                            r.ubvec_used, nullptr))
        << alg_name << ": verdict disagrees with a recompute";
    EXPECT_GT(r.max_imbalance, 1.05) << alg_name;
  }
}

// Tight-tolerance matrix over the two tent-instance graphs: requested
// tolerances clamped per constraint to the provable floor ({1.01, 1.05,
// 1.10} for ncon=1; {1.25, 1.30} for ncon=3, above the joint packing
// threshold — see Grid13FeasibleAcrossSeeds), both algorithms, 1 and 8
// threads. Every cell must be feasible at the tolerances the run was
// held to, with the 8-thread partition bit-identical to the serial one
// (the rebalancer runs serially after the parallel phases, so it must
// preserve the determinism contract).
TEST(TightInstances, FeasibilityMatrixAcrossToleranceAlgorithmThreads) {
  struct Instance {
    const char* name;
    Graph graph;
  };
  for (const int ncon : {1, 3}) {
    std::vector<Instance> instances;
    instances.push_back({"grid-13x13", grid2d(13, 13, ncon)});
    instances.push_back({"tri-12x12", tri_grid2d(12, 12, ncon)});
    const std::vector<real_t> reqs = ncon == 1
                                         ? std::vector<real_t>{1.01, 1.05, 1.10}
                                         : std::vector<real_t>{1.25, 1.30};
    for (Instance& inst : instances) {
      if (ncon > 1) apply_type_s_weights(inst.graph, ncon, 16, 0, 19, 1003);
      const std::vector<real_t> floor_ub =
          min_feasible_ubvec(inst.graph, 64, nullptr);
      for (const real_t req : reqs) {
        std::vector<real_t> ub(to_size(ncon));
        for (int i = 0; i < ncon; ++i) {
          ub[to_size(i)] = std::max(req, floor_ub[to_size(i)]);
        }
        for (const Algorithm alg :
             {Algorithm::kKWay, Algorithm::kRecursiveBisection}) {
          Options o;
          o.nparts = 64;
          o.algorithm = alg;
          o.ubvec = ub;
          o.seed = 3;
          o.num_threads = 1;
          const PartitionResult serial = partition(inst.graph, o);
          const std::string ctx =
              std::string(inst.name) + " ncon=" + std::to_string(ncon) +
              " req=" + std::to_string(req) +
              (alg == Algorithm::kKWay ? " MC-KW" : " MC-RB");
          EXPECT_TRUE(serial.feasible)
              << ctx << " maxlb=" << serial.max_imbalance;
          ASSERT_EQ(serial.ubvec_used.size(), to_size(ncon)) << ctx;
          for (std::size_t i = 0; i < serial.imbalance.size(); ++i) {
            EXPECT_LE(serial.imbalance[i], serial.ubvec_used[i] + 1e-9)
                << ctx << " constraint=" << i;
          }

          o.num_threads = 8;
          const PartitionResult threaded = partition(inst.graph, o);
          EXPECT_EQ(threaded.part, serial.part) << ctx;
          EXPECT_EQ(threaded.feasible, serial.feasible) << ctx;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mcgp
