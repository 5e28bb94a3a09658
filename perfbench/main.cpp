// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//   perfbench --selftest
//
// One caller, one call at a time, no think time (a closed loop with a
// single client, like a solver waiting for its decomposition). Inputs are
// generated from --seed as each make_* function describes. Every call is
// checked (measure.hpp). With --trace 0 the calls are the
// public partition() / refine_partition() with every observer detached,
// each case run at num_threads 1 and 4; the last stdout line is a JSON
// object with the end-to-end metrics. With --trace 1 each case is run once
// untraced and then recomposed from its layers with a span around every
// layer call (replica.hpp), and the JSON carries the per-layer metrics.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/metrics.hpp"
#include "measure.hpp"
#include "replica.hpp"
#include "support/memory.hpp"
#include "support/random.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using mcgp::Graph;
using mcgp::idx_t;
using mcgp::Options;
using mcgp::PartitionResult;

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr idx_t kParts = 64;
constexpr int kNcon = 3;
constexpr int kThreadsWide = 4;  // nproc of the reference machine
constexpr std::size_t kRatioCases = 4;  // cases timed again at m=1

// Input sizes and case counts. A pass over a workload's cases, each at
// t=1 and t=4, takes 20 to 35 s on a 4-core machine, while each workload
// keeps the layer mix it was chosen for (BENCHMARK.json). Every case is a
// different call: the cost of a call varies more between inputs and option
// seeds than between repeats, so distinct calls steady the medians most.
constexpr idx_t kKwayGrid = 240;      // kway-grid2d-m3: 240x240 grid
constexpr int kKwayCases = 20;
constexpr idx_t kRbMeshVtxs = 20000;  // rb-fe-m3: graded FE mesh
constexpr int kRbCases = 20;
constexpr idx_t kRepairGrid = 160;    // repart-front-m3: 160x160 grid
constexpr int kRepairBases = 4;       // base decompositions of repart-front-m3
constexpr int kRepairEpochs = 12;     // front positions per base
// The repair scenario (bases and front paths) is the same in every run and
// --seed draws the option seeds of its calls. How costly one repair is
// varies twentyfold with the base and the front position, far more than a
// run's few dozen calls can average out, so runs compare the same repairs.
constexpr std::uint64_t kRepairSeed = 2024;

/// Inputs generated together, and the set-up unit timed for setup_s: one
/// graph of a partition workload, or one base decomposition of
/// repart-front-m3 with its front epochs.
struct Group {
  std::vector<Graph> graphs;
  std::vector<std::uint64_t> seeds;  ///< option seed of each graph's call
  std::vector<idx_t> start;  ///< refine_partition() input; empty: partition()
};

Options options_for(mcgp::Algorithm alg, std::uint64_t seed, int threads) {
  Options o;
  o.nparts = kParts;
  o.algorithm = alg;
  o.seed = seed;
  o.num_threads = threads;
  return o;
}

// Option seeds are a fixed list: call i of a partition workload uses i + 1.
Group make_kway(std::uint64_t seed, int i) {
  Group grp;
  Graph g = mcgp::grid2d(kKwayGrid, kKwayGrid);
  mcgp::apply_type_s_weights(g, kNcon, 16, 0, 19,
                             mcgp::mix_seed(seed, static_cast<unsigned>(i)));
  grp.graphs.push_back(std::move(g));
  grp.seeds.push_back(static_cast<std::uint64_t>(i) + 1);
  return grp;
}

Group make_rb(std::uint64_t seed, int i) {
  Group grp;
  const std::uint64_t s = mcgp::mix_seed(seed, static_cast<unsigned>(i));
  Graph g = mcgp::fe_mesh(kRbMeshVtxs, s);
  mcgp::apply_type_p_weights(g, kNcon, 32, s + 1);
  grp.graphs.push_back(std::move(g));
  grp.seeds.push_back(static_cast<std::uint64_t>(i) + 1);
  return grp;
}

/// One epoch of an adaptive computation: a disc-shaped front centred at
/// (cx, cy), in units of the grid side, triples constraint 0 and doubles
/// constraint 2 of the vertices it covers.
Graph front_epoch(const Graph& base, idx_t n, double cx, double cy) {
  Graph g = base;
  const double side = static_cast<double>(n);
  const double r = 0.15 * side;
  for (idx_t y = 0; y < n; ++y) {
    for (idx_t x = 0; x < n; ++x) {
      const double dx = static_cast<double>(x) - cx * side;
      const double dy = static_cast<double>(y) - cy * side;
      if (dx * dx + dy * dy > r * r) continue;
      mcgp::wgt_t* w = g.weights(y * n + x);
      w[0] *= 3;
      w[2] *= 2;
    }
  }
  g.finalize();
  return g;
}

Group make_repart(std::uint64_t seed, int b) {
  Group grp;
  Graph base = mcgp::grid2d(kRepairGrid, kRepairGrid);
  mcgp::apply_type_s_weights(
      base, kNcon, 16, 0, 19,
      mcgp::mix_seed(kRepairSeed, static_cast<unsigned>(b)));
  grp.start =
      mcgp::partition(base, options_for(mcgp::Algorithm::kKWay, 1, 1)).part;
  // The front moves along a straight path between two points of the grid.
  mcgp::Rng rng(mcgp::mix_seed(kRepairSeed + 1, static_cast<unsigned>(b)));
  const double x0 = 0.2 + 0.6 * rng.next_real();
  const double y0 = 0.2 + 0.6 * rng.next_real();
  const double x1 = 0.2 + 0.6 * rng.next_real();
  const double y1 = 0.2 + 0.6 * rng.next_real();
  for (int e = 0; e < kRepairEpochs; ++e) {
    const double t = static_cast<double>(e) / (kRepairEpochs - 1);
    grp.graphs.push_back(front_epoch(base, kRepairGrid, x0 + t * (x1 - x0),
                                     y0 + t * (y1 - y0)));
    grp.seeds.push_back(mcgp::mix_seed(
        seed, static_cast<unsigned>(b * kRepairEpochs + e)));
  }
  return grp;
}

struct Workload {
  const char* name;
  mcgp::Algorithm algorithm;
  int groups;
  Group (*make)(std::uint64_t seed, int group);
};

const Workload kWorkloads[] = {
    {"kway-grid2d-m3", mcgp::Algorithm::kKWay, kKwayCases, make_kway},
    {"rb-fe-m3", mcgp::Algorithm::kRecursiveBisection, kRbCases, make_rb},
    {"repart-front-m3", mcgp::Algorithm::kKWay, kRepairBases, make_repart},
};

/// Runs the call of graph `j` of `grp` (on `graph`, which is that graph
/// unless the caller substitutes another), checks it, and records it in
/// the tally. A non-null `same_as` is the t=1 partition the call must
/// repeat bit for bit. Returns false when the call threw or failed a check.
bool timed_call(const Workload& w, const Group& grp, std::size_t j,
                const Graph& graph, int threads, Tally& tally,
                PartitionResult& r, double& seconds,
                const std::vector<idx_t>* same_as = nullptr) {
  const Options o = options_for(w.algorithm, grp.seeds[j], threads);
  try {
    const Clock::time_point t0 = Clock::now();
    r = grp.start.empty() ? mcgp::partition(graph, o)
                          : mcgp::refine_partition(graph, grp.start, o);
    seconds = since(t0);
  } catch (const std::exception& e) {
    tally.record(std::string("call threw: ") + e.what());
    return false;
  }
  std::string problem = check_result(graph, kParts, r);
  if (problem.empty() && same_as != nullptr && r.part != *same_as) {
    problem = "t=4 partition differs from t=1";
  }
  tally.record(problem);
  return problem.empty();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

/// `s` as a JSON string literal.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string tail_json(const Tail& t) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"percentile\": %.6g, \"beyond\": %zu, \"samples\": %zu}",
                t.percentile, t.beyond, t.n);
  return buf;
}

double peak_rss_mib() {
  return static_cast<double>(mcgp::peak_rss_bytes()) / (1024.0 * 1024.0);
}

/// --trace 0: end-to-end metrics of the public calls. One pass generates
/// and runs every case once; further whole passes run as long as they fit
/// in `seconds` at the first pass's pace, so every case is sampled equally.
int run_untraced(const Workload& w, std::uint64_t seed, double seconds) {
  Tally tally;
  {  // Warm-up pair, untimed: first-touch page faults and lazy set-up.
    Tally ignored;
    const Group grp = w.make(seed, 0);
    PartitionResult r;
    double s = 0.0;
    timed_call(w, grp, 0, grp.graphs[0], 1, ignored, r, s);
    timed_call(w, grp, 0, grp.graphs[0], kThreadsWide, ignored, r, s);
  }

  std::vector<double> setups, t1, t4, cuts, m1, m3;
  long cases = 0, feasible = 0;
  double migrated = 0.0;
  const Clock::time_point t0 = Clock::now();
  int passes = 1;
  for (int pass = 0; pass < passes; ++pass) {
    for (int gi = 0; gi < w.groups; ++gi) {
      const Clock::time_point s0 = Clock::now();
      const Group grp = w.make(seed, gi);
      setups.push_back(since(s0));
      for (std::size_t j = 0; j < grp.graphs.size(); ++j) {
        const Graph& g = grp.graphs[j];
        PartitionResult r1, r4;
        double s1 = 0.0, s4 = 0.0;
        const bool ok1 = timed_call(w, grp, j, g, 1, tally, r1, s1);
        if (ok1) t1.push_back(s1);
        if (timed_call(w, grp, j, g, kThreadsWide, tally, r4, s4,
                       ok1 ? &r1.part : nullptr)) {
          t4.push_back(s4);
        }
        if (pass > 0 || !ok1) continue;
        ++cases;
        cuts.push_back(static_cast<double>(r1.cut));
        feasible += r1.feasible ? 1 : 0;
        // A from-scratch partition() places every vertex anew.
        migrated += grp.start.empty()
                        ? 1.0
                        : static_cast<double>(
                              mcgp::moved_vertices(grp.start, r1.part)) /
                              static_cast<double>(g.nvtxs);
        // Derived, not gated: the m=3 / m=1 cost ratio, on the same graph
        // with its constraints summed into one.
        if (m1.size() < kRatioCases) {
          const Graph single = mcgp::sum_collapse_constraints(g);
          PartitionResult r;
          double s = 0.0;
          if (timed_call(w, grp, j, single, 1, tally, r, s)) {
            m1.push_back(s);
            m3.push_back(s1);
          }
        }
      }
    }
    if (pass == 0) {
      passes = std::max(1, static_cast<int>(seconds / since(t0)));
    }
  }

  const Tail tail1 = tail(t1);
  const Tail tail4 = tail(t4);
  const double p50_1 = median(t1);
  const double p50_4 = median(t4);
  // The t=4 times are reported but not gated: on a shared 4-vCPU host
  // their medians moved by 60% between two sets of runs of the same code,
  // with the t=1 times moving under 20%.
  std::printf("perfbench-info {\"workload\": \"%s\", \"seed\": %llu, "
              "\"tail_t1\": %s, \"tail_t4\": %s, \"cases\": %ld, "
              "\"passes\": %d, \"derived\": {\"call_t4_s_p50\": %.10g, "
              "\"call_t4_s_tail\": %.10g, \"speedup_t4\": %.6g, "
              "\"m3_over_m1\": %.6g}, \"first_failure\": %s}\n",
              w.name, static_cast<unsigned long long>(seed),
              tail_json(tail1).c_str(), tail_json(tail4).c_str(), cases,
              passes, p50_4, tail4.value, p50_4 > 0 ? p50_1 / p50_4 : 0.0,
              median(m1) > 0 ? median(m3) / median(m1) : 0.0,
              quoted(tally.first_failure).c_str());
  const double n_cases = std::max<double>(1.0, static_cast<double>(cases));
  const double ok_frac =
      tally.attempted > 0
          ? 1.0 - static_cast<double>(tally.failed) /
                      static_cast<double>(tally.attempted)
          : 0.0;
  print_result(tally,
               {{"setup_s", median(setups), "s"},
                {"call_s_p50", p50_1, "s"},
                {"call_s_tail", tail1.value, "s"},
                {"cut_geomean", cuts.empty() ? 0.0 : geomean(cuts), "weight"},
                {"feasible_frac", static_cast<double>(feasible) / n_cases,
                 "frac"},
                {"migrated_frac", migrated / n_cases, "frac"},
                {"peak_rss_mb", peak_rss_mib(), "MiB"},
                {"ok_frac", ok_frac, "frac"}});
  return 0;
}

// --- traced run -----------------------------------------------------------

/// Layers of src/core and src/graph the replica opens spans around.
const char* const kLayers[] = {
    "coarsen.matching", "coarsen.contract", "initpart",    "project",
    "graph_ops.subgraph", "balance2way",    "refine2way",  "kway_refine",
    "kway_balance",     "rebalance"};

/// Per-call view of the spans of one traced call.
struct CallView {
  int threads = 1;
  double wall = 0.0;    ///< root span minus its off-path probes
  double driver = 0.0;  ///< root span self time
  std::map<std::string, double> self;  ///< layer -> summed self time
  double kway_level[2] = {0.0, 0.0};
};

std::vector<CallView> call_views(const Tracer& tr) {
  std::vector<CallView> views(static_cast<std::size_t>(tr.calls()));
  const std::vector<Span>& spans = tr.spans();
  const std::vector<double> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    CallView& v = views[static_cast<std::size_t>(s.call)];
    const double dur = s.end - s.start;
    if (s.parent < 0) {
      v.threads = s.threads;
      v.wall += dur;
      v.driver = self[i];
    } else if (s.off_path && spans[static_cast<std::size_t>(s.parent)].parent < 0) {
      v.wall -= dur;  // a probe directly under the root
    }
    if (std::string(s.name) == "call" || std::string(s.name) == "probe") {
      continue;
    }
    v.self[s.name] += self[i];
    if (std::string(s.name) == "kway_refine" && (s.level == 0 || s.level == 1)) {
      v.kway_level[s.level] += self[i];
    }
  }
  return views;
}

/// --trace 1: per-layer metrics from the layer-composed replicas.
int run_traced(const Workload& w, std::uint64_t seed, double seconds,
               const std::string& spans_out) {
  Tracer tr;
  Tally tally;
  std::vector<int> completed;  // tracer call ids of replicas that returned
  std::size_t completed_t1 = 0;
  std::vector<double> untraced;
  long replicas = 0, matches = 0;

  // Cases in order until `seconds` have passed, at least one.
  const Clock::time_point t0 = Clock::now();
  for (int gi = 0; gi < w.groups && (gi == 0 || since(t0) < seconds); ++gi) {
    const Group grp = w.make(seed, gi);
    for (std::size_t j = 0; j < grp.graphs.size(); ++j) {
      if (j > 0 && since(t0) >= seconds) break;
      const Graph& g = grp.graphs[j];
      PartitionResult r;
      double s = 0.0;
      if (!timed_call(w, grp, j, g, 1, tally, r, s)) continue;
      untraced.push_back(s);
      for (const int threads : {1, kThreadsWide}) {
        const Options o = options_for(w.algorithm, grp.seeds[j], threads);
        std::vector<idx_t> part;
        ++replicas;
        // A replica that throws or differs flags a driver change the
        // replica does not follow; the library call itself succeeded.
        try {
          part = grp.start.empty() ? replica_partition(g, o, tr)
                                   : replica_refine(g, grp.start, o, tr);
        } catch (const std::exception&) {
          continue;
        }
        const int id = tr.calls() - 1;
        completed.push_back(id);
        if (threads == 1) ++completed_t1;
        const std::map<std::string, double>& cnt = tr.counts(id);
        const auto levels = cnt.find("coarsen.levels");
        const int replica_levels =
            levels == cnt.end() ? 0 : static_cast<int>(levels->second);
        if (part == r.part && replica_levels == r.coarsen_levels) ++matches;
      }
    }
  }

  const std::vector<CallView> views = call_views(tr);
  std::map<std::string, double> sum;  // counters summed over t=1 calls
  std::map<std::string, std::vector<double>> self1, self4;
  std::vector<double> driver1, wall1, lvl0, lvl1;
  double min_coverage = completed.empty() ? 0.0 : 1.0;
  for (const int id : completed) {
    const CallView& v = views[static_cast<std::size_t>(id)];
    min_coverage = std::min(min_coverage, 1.0 - v.driver / v.wall);
    auto& self = v.threads == 1 ? self1 : self4;
    for (const char* layer : kLayers) {
      const auto it = v.self.find(layer);
      self[layer].push_back(it == v.self.end() ? 0.0 : it->second);
    }
    if (v.threads != 1) continue;
    driver1.push_back(v.driver);
    wall1.push_back(v.wall);
    lvl0.push_back(v.kway_level[0]);
    lvl1.push_back(v.kway_level[1]);
    for (const auto& [key, value] : tr.counts(id)) sum[key] += value;
  }
  const double n1 = std::max<double>(1.0, static_cast<double>(completed_t1));
  const auto per_call = [&](const char* key) { return sum[key] / n1; };
  const auto ratio = [&](const char* num, const char* den) {
    return sum[den] > 0 ? sum[num] / sum[den] : 0.0;
  };
  const auto speedup = [&](const char* layer) {
    const double a = median(self1[layer]);
    const double b = median(self4[layer]);
    return b > 0 ? a / b : 0.0;
  };

  std::vector<Metric> m;
  for (const char* layer : kLayers) {
    m.push_back({std::string(layer) + ".self_s", median(self1[layer]), "s"});
  }
  m.push_back({"driver.self_s", median(driver1), "s"});
  m.push_back({"coarsen.matching.calls", per_call("coarsen.matching.calls"), "count"});
  m.push_back({"coarsen.matching.vtxs", per_call("coarsen.matching.vtxs"), "count"});
  m.push_back({"coarsen.matching.matched_frac",
               ratio("coarsen.matching.matched", "coarsen.matching.vtxs"), "frac"});
  m.push_back({"coarsen.contract.edges_in", per_call("coarsen.contract.edges_in"), "count"});
  m.push_back({"coarsen.contract.edge_keep_frac",
               ratio("coarsen.contract.edges_out", "coarsen.contract.edges_in"), "frac"});
  m.push_back({"coarsen.levels", per_call("coarsen.levels"), "count"});
  m.push_back({"coarsen.coarsest_nvtxs", per_call("coarsen.coarsest_nvtxs"), "count"});
  m.push_back({"initpart.calls", per_call("initpart.calls"), "count"});
  m.push_back({"balance2way.calls", per_call("balance2way.calls"), "count"});
  m.push_back({"balance2way.fail_frac", ratio("balance2way.fails", "balance2way.calls"), "frac"});
  m.push_back({"refine2way.passes", per_call("refine2way.passes"), "count"});
  m.push_back({"refine2way.moves", per_call("refine2way.moves"), "count"});
  m.push_back({"refine2way.cut_drop_frac",
               sum["refine2way.cut_in"] > 0
                   ? 1.0 - sum["refine2way.cut_out"] / sum["refine2way.cut_in"]
                   : 0.0,
               "frac"});
  m.push_back({"kway_refine.passes", per_call("kway_refine.passes"), "count"});
  m.push_back({"kway_refine.moves", per_call("kway_refine.moves"), "count"});
  m.push_back({"kway_refine.moves_per_pass",
               ratio("kway_refine.moves", "kway_refine.passes"), "count"});
  m.push_back({"kway_refine.level0_s", median(lvl0), "s"});
  m.push_back({"kway_refine.level1_s", median(lvl1), "s"});
  m.push_back({"kway_balance.calls", per_call("kway_balance.calls"), "count"});
  m.push_back({"kway_balance.success_frac",
               ratio("kway_balance.successes", "kway_balance.calls"), "frac"});
  for (const char* key : {"calls", "episodes", "vcycles", "moves", "swaps"}) {
    const std::string name = std::string("rebalance.") + key;
    m.push_back({name, per_call(name.c_str()), "count"});
  }
  m.push_back({"rebalance.success_frac",
               ratio("rebalance.successes", "rebalance.calls"), "frac"});
  for (const char* layer : {"coarsen.matching", "coarsen.contract", "kway_refine"}) {
    m.push_back({std::string(layer) + ".speedup_t4", speedup(layer), "x"});
  }
  const double base = median(untraced);
  m.push_back({"trace.overhead_frac",
               base > 0 ? (median(wall1) - base) / base : 0.0, "frac"});
  m.push_back({"trace.replica_match_frac",
               replicas > 0 ? static_cast<double>(matches) /
                                  static_cast<double>(replicas)
                            : 0.0,
               "frac"});
  m.push_back({"trace.coverage_frac", min_coverage, "frac"});

  if (!spans_out.empty()) tr.write_jsonl(spans_out);
  std::printf("perfbench-info {\"workload\": \"%s\", \"seed\": %llu, "
              "\"traced_calls\": %d, \"spans\": %zu, \"first_failure\": %s}\n",
              w.name, static_cast<unsigned long long>(seed), tr.calls(),
              tr.spans().size(), quoted(tally.first_failure).c_str());
  print_result(tally, m);
  return 0;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <file>]\n"
               "       perfbench --selftest\n",
               msg);
  return 2;
}

int run(int argc, char** argv) {
  std::string workload, spans_out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--spans-out") {
      spans_out = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }

  // The arithmetic the metrics rest on is re-checked on every run.
  const int failures = run_selftest();
  if (selftest || failures > 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }
  if (!(seconds > 0) || (trace != 0 && trace != 1)) {
    return usage("--seconds must be > 0 and --trace 0 or 1");
  }
  for (const Workload& w : kWorkloads) {
    if (workload != w.name) continue;
    return trace == 1 ? run_traced(w, seed, seconds, spans_out)
                      : run_untraced(w, seed, seconds);
  }
  return usage(("unknown workload '" + workload + "'").c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
