#include "core/refine2way.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/balance2way.hpp"
#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "part_hash.hpp"
#include "support/random.hpp"

namespace mcgp {
namespace {

BisectionTargets even_targets(int ncon, real_t ub = 1.05) {
  BisectionTargets t;
  t.f0 = 0.5;
  t.ub.assign(to_size(ncon), ub);
  return t;
}

/// A balanced but deliberately jagged bisection of a grid (stripes).
std::vector<idx_t> jagged_bisection(idx_t nx, idx_t ny) {
  std::vector<idx_t> where(to_size(nx) * to_size(ny));
  for (idx_t x = 0; x < nx; ++x) {
    for (idx_t y = 0; y < ny; ++y) {
      // Checker-ish split that keeps counts even but cuts many edges.
      where[to_size(x * ny + y)] = (x + 2 * y) % 4 < 2 ? 0 : 1;
    }
  }
  return where;
}

TEST(DominantConstraint, PicksLargestNormalized) {
  GraphBuilder b(2, 3);
  b.add_edge(0, 1);
  b.set_weights(0, {10, 1, 1});
  b.set_weights(1, {1, 1, 10});
  Graph g = b.build();
  EXPECT_EQ(dominant_constraint(g, 0), 0);
  EXPECT_EQ(dominant_constraint(g, 1), 2);
}

TEST(DominantConstraint, NormalizationMatters) {
  // Constraint totals differ wildly: raw weight 5 of a small-total
  // constraint dominates raw weight 50 of a large-total one.
  GraphBuilder b(3, 2);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.set_weights(0, {50, 5});
  b.set_weights(1, {1000, 1});
  b.set_weights(2, {1000, 1});
  Graph g = b.build();
  // For vertex 0: 50/2050 < 5/7.
  EXPECT_EQ(dominant_constraint(g, 0), 1);
}

class RefinePolicies : public testing::TestWithParam<QueuePolicy> {};

TEST_P(RefinePolicies, NeverWorsensCut) {
  Graph g = grid2d(20, 20);
  std::vector<idx_t> where = jagged_bisection(20, 20);
  const sum_t before = compute_cut_2way(g, where);
  Rng rng(1);
  const sum_t after = refine_2way(g, where, even_targets(1), GetParam(), 8,
                                  0, rng);
  EXPECT_LE(after, before);
  EXPECT_EQ(after, compute_cut_2way(g, where));
}

TEST_P(RefinePolicies, SubstantiallyImprovesJaggedCut) {
  Graph g = grid2d(24, 24);
  std::vector<idx_t> where = jagged_bisection(24, 24);
  const sum_t before = compute_cut_2way(g, where);
  Rng rng(2);
  const sum_t after = refine_2way(g, where, even_targets(1), GetParam(), 8,
                                  0, rng);
  EXPECT_LT(after, before / 2) << "policy failed to clean up stripes";
}

TEST_P(RefinePolicies, PreservesFeasibility) {
  Graph g = random_geometric(800, 0, 3, 3);
  apply_type_s_weights(g, 3, 8, 0, 19, 5);
  const BisectionTargets t = even_targets(3, 1.10);
  // Start from a feasible balanced-ish split via balance helper.
  std::vector<idx_t> where(to_size(g.nvtxs));
  Rng seedr(3);
  for (auto& s : where) s = static_cast<idx_t>(seedr.next_below(2));
  balance_2way(g, where, t, seedr);
  BisectionBalance b;
  b.init(g, where, t);
  const real_t pot_before = b.potential();

  Rng rng(4);
  refine_2way(g, where, t, GetParam(), 8, 0, rng);
  b.init(g, where, t);
  // The pass must not end in a worse balance state than it started.
  EXPECT_LE(b.potential(), std::max(pot_before, 1.0) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, RefinePolicies,
                         testing::Values(QueuePolicy::kMostImbalanced,
                                         QueuePolicy::kRoundRobin,
                                         QueuePolicy::kSingleQueue));

TEST(Refine2Way, GridBisectionNearOptimal) {
  // 32x32 grid: the optimal bisection cut is 32. A random balanced start
  // refined by FM should land within a small factor.
  Graph g = grid2d(32, 32);
  std::vector<idx_t> where(1024);
  Rng seedr(5);
  idx_t c0 = 0;
  for (auto& s : where) {
    s = static_cast<idx_t>(seedr.next_below(2));
    c0 += s == 0 ? 1 : 0;
  }
  const BisectionTargets t = even_targets(1);
  Rng rng(6);
  balance_2way(g, where, t, rng);
  const sum_t cut = refine_2way(g, where, t, QueuePolicy::kMostImbalanced,
                                12, 0, rng);
  // From a random start FM will not reach 32, but must do far better than
  // the ~1500 expected of a random bisection.
  EXPECT_LT(cut, 400);
}

TEST(Refine2Way, RepairsModestImbalance) {
  Graph g = grid2d(20, 20);
  const BisectionTargets t = even_targets(1, 1.05);
  // 70/30 split: infeasible.
  std::vector<idx_t> where(400);
  for (idx_t v = 0; v < 400; ++v) where[to_size(v)] = v < 280 ? 0 : 1;
  Rng rng(7);
  refine_2way(g, where, t, QueuePolicy::kMostImbalanced, 10, 0, rng);
  BisectionBalance b;
  b.init(g, where, t);
  EXPECT_LE(b.potential(), 1.0 + 1e-9) << "FM failed to restore balance";
}

TEST(Refine2Way, RespectsUnevenTargets) {
  Graph g = grid2d(18, 18);
  BisectionTargets t = even_targets(1, 1.05);
  t.f0 = 0.25;
  std::vector<idx_t> where(324);
  for (idx_t v = 0; v < 324; ++v) where[to_size(v)] = v < 81 ? 0 : 1;
  Rng rng(8);
  const sum_t before = compute_cut_2way(g, where);
  refine_2way(g, where, t, QueuePolicy::kMostImbalanced, 8, 0, rng);
  BisectionBalance b;
  b.init(g, where, t);
  EXPECT_LE(b.potential(), 1.0 + 1e-9);
  EXPECT_LE(compute_cut_2way(g, where), before);
}

TEST(Refine2Way, StatsAreConsistent) {
  Graph g = grid2d(16, 16);
  std::vector<idx_t> where = jagged_bisection(16, 16);
  Refine2WayStats stats;
  Rng rng(9);
  const sum_t cut = refine_2way(g, where, even_targets(1),
                                QueuePolicy::kMostImbalanced, 8, 0, rng,
                                &stats);
  EXPECT_EQ(stats.final_cut, cut);
  EXPECT_GE(stats.initial_cut, stats.final_cut);
  EXPECT_GT(stats.passes, 0);
  EXPECT_GT(stats.moves, 0);
}

TEST(Refine2Way, NoopOnPerfectBisection) {
  Graph g = grid2d(16, 16);
  std::vector<idx_t> where(256);
  for (idx_t v = 0; v < 256; ++v) where[to_size(v)] = v < 128 ? 0 : 1;
  const sum_t before = compute_cut_2way(g, where);
  EXPECT_EQ(before, 16);
  Rng rng(10);
  const sum_t after = refine_2way(g, where, even_targets(1),
                                  QueuePolicy::kMostImbalanced, 8, 0, rng);
  EXPECT_EQ(after, 16);
}

TEST(Refine2Way, MultiConstraintSwapEscape) {
  // Sides peak in different constraints: only swap sequences (through the
  // exploration envelope) can equalize both. Build two vertex populations
  // with complementary vectors placed adversarially.
  GraphBuilder bld(80, 2);
  for (idx_t v = 0; v + 1 < 80; ++v) bld.add_edge(v, v + 1);
  for (idx_t v = 0; v < 80; ++v) {
    bld.set_weights(v, v % 2 == 0 ? std::vector<wgt_t>{4, 1}
                                  : std::vector<wgt_t>{1, 4});
  }
  Graph g = bld.build();
  // Put all even (4,1)-vertices on side 0, odd on side 1: constraint 0
  // peaks on side 0, constraint 1 on side 1 — balanced counts, imbalanced
  // constraints.
  std::vector<idx_t> where(80);
  for (idx_t v = 0; v < 80; ++v) where[to_size(v)] = v % 2;
  const BisectionTargets t = even_targets(2, 1.05);
  BisectionBalance b;
  b.init(g, where, t);
  ASSERT_GT(b.potential(), 1.2);  // genuinely imbalanced start

  Rng rng(11);
  for (int i = 0; i < 3; ++i) {
    balance_2way(g, where, t, rng);
    refine_2way(g, where, t, QueuePolicy::kMostImbalanced, 10, 0, rng);
  }
  b.init(g, where, t);
  EXPECT_LE(b.potential(), 1.0 + 1e-9) << "swap escape failed";
}

// Exact results recorded while every FM pass still rebuilt its degrees,
// balance, dominant-constraint map and queues from scratch. Keeping that
// state for the whole refine_2way call is a speed change only: a diff here
// means a pass made a different decision.
struct PinnedRefine {
  QueuePolicy policy;
  int passes;
  idx_t moves;
  sum_t initial_cut;
  sum_t final_cut;
  std::uint64_t hash;
};

TEST(Refine2WayState, StatsPinned) {
  const PinnedRefine pins[] = {
      {QueuePolicy::kMostImbalanced, 8, 2187, 2320, 265, 0xae3b9e5a90e973d2ULL},
      {QueuePolicy::kRoundRobin, 8, 2084, 2320, 130, 0x84ddf22f72e3baadULL},
      {QueuePolicy::kSingleQueue, 7, 2113, 2320, 41, 0xf64ad8e62fa671b0ULL},
  };
  for (const PinnedRefine& pin : pins) {
    Graph g = grid2d(40, 40);
    apply_type_s_weights(g, 3, 12, 0, 19, 5);
    std::vector<idx_t> where = jagged_bisection(40, 40);
    Refine2WayStats stats;
    Rng rng(21);
    const sum_t cut = refine_2way(g, where, even_targets(3), pin.policy, 8,
                                  0, rng, &stats);
    const int policy = static_cast<int>(pin.policy);
    EXPECT_EQ(stats.passes, pin.passes) << "policy " << policy;
    EXPECT_EQ(stats.moves, pin.moves) << "policy " << policy;
    EXPECT_EQ(stats.initial_cut, pin.initial_cut) << "policy " << policy;
    EXPECT_EQ(stats.final_cut, pin.final_cut) << "policy " << policy;
    EXPECT_EQ(cut, pin.final_cut) << "policy " << policy;
    EXPECT_EQ(part_hash(where), pin.hash) << "policy " << policy << std::hex
                                          << " hash 0x" << part_hash(where);
  }
}

// MC-RB end to end on the benchmark's kind of input (graded FE mesh,
// Type-P, m=3): every bisection's FM refinement feeds the next, so this
// pins the whole recursion. Equal at 1 and 4 threads.
TEST(Refine2WayState, RbPartitionPinned) {
  for (const int threads : {1, 4}) {
    Graph g = fe_mesh(5000, 7);
    apply_type_p_weights(g, 3, 32, 8);
    Options o;
    o.nparts = 16;
    o.algorithm = Algorithm::kRecursiveBisection;
    o.seed = 3;
    o.num_threads = threads;
    const PartitionResult r = partition(g, o);
    EXPECT_EQ(r.cut, 11694) << "threads=" << threads;
    EXPECT_EQ(part_hash(r.part), 0x42287d934fb73033ULL)
        << "threads=" << threads << std::hex << " hash 0x"
        << part_hash(r.part);
    EXPECT_TRUE(r.feasible);
  }
}

}  // namespace
}  // namespace mcgp
