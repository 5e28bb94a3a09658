// M1: google-benchmark microbenchmarks of the hot kernels: matching,
// contraction, 2-way FM refinement, k-way refinement, and the end-to-end
// partitioners.
#include <benchmark/benchmark.h>

#include "core/coarsen.hpp"
#include "core/kway_refine.hpp"
#include "core/matching.hpp"
#include "core/partitioner.hpp"
#include "core/rebalance.hpp"
#include "core/refine2way.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/graph_ops.hpp"
#include "support/flight_recorder.hpp"
#include "support/metrics.hpp"
#include "support/perf_counters.hpp"
#include "support/workspace.hpp"

namespace {

using namespace mcgp;

Graph make_bench_graph(idx_t side, int m) {
  Graph g = grid2d(side, side);
  if (m > 1) apply_type_s_weights(g, m, 16, 0, 19, 42);
  return g;
}

// rb-fe-m3's input: the 20000-vertex graded FE mesh with Type-P weights.
Graph make_fe_mesh_graph(int m) {
  Graph g = fe_mesh(20000, 1);
  if (m > 1) apply_type_p_weights(g, m, 32, 2);
  return g;
}

// One serial greedy matching pass, kHeavyEdgeBalanced. range(0) = grid
// side, or 0 for the FE mesh; range(1) = m.
void BM_Matching(benchmark::State& state) {
  const int m = static_cast<int>(state.range(1));
  const Graph g = state.range(0) > 0
                      ? make_bench_graph(static_cast<idx_t>(state.range(0)), m)
                      : make_fe_mesh_graph(m);
  Rng rng(1);
  for (auto _ : state) {
    auto match = compute_matching(g, MatchScheme::kHeavyEdgeBalanced, rng);
    benchmark::DoNotOptimize(match.data());
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_Matching)
    ->Args({200, 1})
    ->Args({200, 3})
    ->Args({400, 3})
    ->Args({0, 3});

void BM_MatchingWorkspace(benchmark::State& state) {
  const Graph g = make_bench_graph(static_cast<idx_t>(state.range(0)),
                                   static_cast<int>(state.range(1)));
  Rng rng(1);
  Workspace ws;
  std::vector<idx_t> match;
  for (auto _ : state) {
    compute_matching_into(g, MatchScheme::kHeavyEdgeBalanced, rng, match,
                          nullptr, &ws);
    benchmark::DoNotOptimize(match.data());
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_MatchingWorkspace)->Args({200, 1})->Args({200, 3})->Args({400, 3});

void BM_Contract(benchmark::State& state) {
  const Graph g = make_bench_graph(static_cast<idx_t>(state.range(0)), 3);
  Rng rng(1);
  const auto match = compute_matching(g, MatchScheme::kHeavyEdge, rng);
  std::vector<idx_t> cmap;
  const idx_t nc = build_coarse_map(g, match, cmap);
  for (auto _ : state) {
    Graph c = contract_graph(g, cmap, nc);
    benchmark::DoNotOptimize(c.adjncy.data());
  }
  state.SetItemsProcessed(state.iterations() * g.nedges());
}
BENCHMARK(BM_Contract)->Arg(200)->Arg(400);

void BM_ContractWorkspace(benchmark::State& state) {
  const Graph g = make_bench_graph(static_cast<idx_t>(state.range(0)), 3);
  Rng rng(1);
  const auto match = compute_matching(g, MatchScheme::kHeavyEdge, rng);
  std::vector<idx_t> cmap;
  const idx_t nc = build_coarse_map(g, match, cmap);
  Workspace ws;
  for (auto _ : state) {
    Graph c = contract_graph(g, cmap, nc, &ws);
    benchmark::DoNotOptimize(c.adjncy.data());
  }
  state.SetItemsProcessed(state.iterations() * g.nedges());
}
BENCHMARK(BM_ContractWorkspace)->Arg(200)->Arg(400);

// The k-way balancer's drain (greedy_episodes) on repart-front-m3's kind
// of input: a feasible k=64 partition of a 160x160 Type-S m=3 grid whose
// weights a centred disc then overloads (constraint 0 tripled, constraint 2
// doubled under it), so each call runs hundreds of episodes.
void BM_GreedyEpisodes(benchmark::State& state) {
  constexpr idx_t kSide = 160;
  constexpr idx_t kParts = 64;
  Graph g = make_bench_graph(kSide, 3);
  Options o;
  o.nparts = kParts;
  o.seed = 1;
  const std::vector<idx_t> start = partition(g, o).part;
  const double r = 0.15 * static_cast<double>(kSide);
  for (idx_t y = 0; y < kSide; ++y) {
    for (idx_t x = 0; x < kSide; ++x) {
      const double dx = static_cast<double>(x) - 0.5 * kSide;
      const double dy = static_cast<double>(y) - 0.5 * kSide;
      if (dx * dx + dy * dy > r * r) continue;
      wgt_t* w = g.weights(y * kSide + x);
      w[0] *= 3;
      w[2] *= 2;
    }
  }
  g.finalize();
  const std::vector<real_t> ub(3, 1.05);
  Rng rng(1);
  for (auto _ : state) {
    std::vector<idx_t> where = start;
    const bool ok = kway_balance(g, kParts, where, ub, rng);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_GreedyEpisodes)->Unit(benchmark::kMillisecond);

// One rebalance_partition call on the tight instance of
// RebalancePartition.TightGrid13StartPinned: grid-13x13, Type-S m=3, k=64,
// contiguous id blocks at ub 1.05. The tolerance is jointly unachievable,
// so every stage of the search runs. A fresh Rng per call keeps the kicks,
// and so the work, the same in every iteration.
void BM_RebalanceTight(benchmark::State& state) {
  constexpr idx_t kParts = 64;
  Graph g = grid2d(13, 13, 3);
  apply_type_s_weights(g, 3, 16, 0, 19, 1003);
  std::vector<idx_t> start(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) start[to_size(v)] = v * kParts / g.nvtxs;
  const std::vector<real_t> ub(3, 1.05);
  for (auto _ : state) {
    std::vector<idx_t> where = start;
    Rng rng(1);
    const bool ok = rebalance_partition(g, kParts, where, ub, rng);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_RebalanceTight)->Unit(benchmark::kMillisecond);

void BM_InducedSubgraph(benchmark::State& state) {
  const Graph g = make_bench_graph(static_cast<idx_t>(state.range(0)), 1);
  const bool use_ws = state.range(1) != 0;
  // Halve along a jagged diagonal so the extraction walks real adjacency.
  std::vector<char> select(to_size(g.nvtxs));
  const idx_t side = static_cast<idx_t>(state.range(0));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    select[to_size(v)] = (v / side + v % side) % 2 == 0;
  }
  Workspace ws;
  std::vector<idx_t> l2g;
  for (auto _ : state) {
    Graph s = induced_subgraph(g, select, l2g, use_ws ? &ws : nullptr);
    benchmark::DoNotOptimize(s.adjncy.data());
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_InducedSubgraph)->Args({400, 0})->Args({400, 1});

// Up to 4 FM passes from a jagged bisection. range(0) = grid side, or 0
// for the FE mesh; range(1) = m.
void BM_Refine2Way(benchmark::State& state) {
  const idx_t side = static_cast<idx_t>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const Graph g = side > 0 ? make_bench_graph(side, m) : make_fe_mesh_graph(m);
  BisectionTargets t;
  t.f0 = 0.5;
  t.ub.assign(to_size(m), 1.05);
  // Jagged start so the refiner has real work every iteration: diagonal
  // stripes on the grid, runs of 16 consecutive ids on the mesh.
  std::vector<idx_t> start(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    start[to_size(v)] = side > 0
                            ? (((v / side) + 2 * (v % side)) % 4 < 2 ? 0 : 1)
                            : (v / 16) % 2;
  }
  Rng rng(1);
  for (auto _ : state) {
    std::vector<idx_t> where = start;
    const sum_t cut = refine_2way(g, where, t, QueuePolicy::kMostImbalanced,
                                  4, 0, rng);
    benchmark::DoNotOptimize(cut);
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_Refine2Way)->Args({200, 1})->Args({200, 3})->Args({0, 3});

void BM_KWayRefine(benchmark::State& state) {
  const idx_t side = static_cast<idx_t>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const Graph g = make_bench_graph(side, m);
  const idx_t k = 16;
  std::vector<real_t> ub(to_size(m), 1.05);
  Rng seedr(3);
  std::vector<idx_t> start(to_size(g.nvtxs));
  for (auto& p : start) p = static_cast<idx_t>(seedr.next_below(k));
  for (auto _ : state) {
    std::vector<idx_t> where = start;
    Rng rng(1);  // same pass seeds every iteration: every call is the same
    const sum_t cut = kway_refine(g, k, where, ub, 2, rng);
    benchmark::DoNotOptimize(cut);
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_KWayRefine)->Args({200, 1})->Args({200, 3});

// The thin boundary the pipeline actually refines: partition()'s own k=64
// result on kway-grid2d-m3's input shape (240x240, Type-S m=3), refined
// again with the driver's pass count. Few boundary vertices propose a move.
void BM_KWayRefineConverged(benchmark::State& state) {
  const Graph g = make_bench_graph(240, 3);
  Options o;
  o.nparts = 64;
  o.seed = 1;
  const std::vector<idx_t> start = partition(g, o).part;
  const std::vector<real_t> ub(3, 1.05);
  for (auto _ : state) {
    std::vector<idx_t> where = start;
    Rng rng(1);
    const sum_t cut = kway_refine(g, o.nparts, where, ub, o.kway_passes, rng);
    benchmark::DoNotOptimize(cut);
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_KWayRefineConverged);

void BM_PartitionEndToEnd(benchmark::State& state) {
  const Graph g = make_bench_graph(static_cast<idx_t>(state.range(0)),
                                   static_cast<int>(state.range(1)));
  Options o;
  o.nparts = 32;
  o.algorithm = state.range(2) == 0 ? Algorithm::kRecursiveBisection
                                    : Algorithm::kKWay;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    o.seed = seed++;
    const PartitionResult r = partition(g, o);
    benchmark::DoNotOptimize(r.cut);
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_PartitionEndToEnd)
    ->Args({150, 1, 0})
    ->Args({150, 3, 0})
    ->Args({150, 1, 1})
    ->Args({150, 3, 1});

// Cost of the invariant-audit layer per level: off must be free (a
// pointer test per audit point), boundaries/paranoid quantify what a
// fully audited debug run pays.
void BM_PartitionAudited(benchmark::State& state) {
  const Graph g = make_bench_graph(150, 3);
  Options o;
  o.nparts = 32;
  o.algorithm = state.range(0) == 0 ? Algorithm::kRecursiveBisection
                                    : Algorithm::kKWay;
  o.audit_level = static_cast<AuditLevel>(state.range(1));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    o.seed = seed++;
    const PartitionResult r = partition(g, o);
    benchmark::DoNotOptimize(r.cut);
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_PartitionAudited)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({0, 2})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({1, 2});

// Cost of the flight recorder per partition call: detached (the default,
// every hook is one null-pointer test) must be within noise of the
// attached run, which pays one sample struct per level plus a /proc read.
void BM_PartitionFlightRecorder(benchmark::State& state) {
  const Graph g = make_bench_graph(150, 3);
  Options o;
  o.nparts = 32;
  o.algorithm = state.range(0) == 0 ? Algorithm::kRecursiveBisection
                                    : Algorithm::kKWay;
  FlightRecorder flight;
  o.flight = state.range(1) != 0 ? &flight : nullptr;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    o.seed = seed++;
    flight.clear();
    const PartitionResult r = partition(g, o);
    benchmark::DoNotOptimize(r.cut);
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_PartitionFlightRecorder)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

// Cost of the hardware-counter profiler per partition call: detached
// (null Options::profile, one pointer test per scope) must be within
// noise of no profiler at all — the PR's 1%-overhead gate; attached pays
// two counter-group reads plus one mutex-guarded fold per scope.
void BM_PartitionProfiled(benchmark::State& state) {
  const Graph g = make_bench_graph(150, 3);
  Options o;
  o.nparts = 32;
  o.algorithm = state.range(0) == 0 ? Algorithm::kRecursiveBisection
                                    : Algorithm::kKWay;
  Profiler prof;
  o.profile = state.range(1) != 0 ? &prof : nullptr;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    o.seed = seed++;
    prof.clear();
    const PartitionResult r = partition(g, o);
    benchmark::DoNotOptimize(r.cut);
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_PartitionProfiled)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

// Cost of the metrics registry per partition call: detached (null
// Options::metrics, one pointer test per instrumentation point) must be
// within 1% of no registry at all — this PR's overhead gate; attached
// pays the run bracket, progress stamps, and one fold of histograms and
// gauges at run end.
void BM_PartitionMetrics(benchmark::State& state) {
  const Graph g = make_bench_graph(150, 3);
  Options o;
  o.nparts = 32;
  o.algorithm = state.range(0) == 0 ? Algorithm::kRecursiveBisection
                                    : Algorithm::kKWay;
  MetricsRegistry metrics;
  o.metrics = state.range(1) != 0 ? &metrics : nullptr;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    o.seed = seed++;
    const PartitionResult r = partition(g, o);
    benchmark::DoNotOptimize(r.cut);
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_PartitionMetrics)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

}  // namespace
