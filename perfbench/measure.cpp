#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "gen/mesh_gen.hpp"
#include "trace.hpp"

namespace perfbench {

using mcgp::idx_t;
using mcgp::sum_t;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t i = t.n > 10 ? t.n - 11 : 0;
  t.value = v[i];
  t.beyond = t.n - 1 - i;
  t.percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(t.n);
  return t;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) {
    if (!(x > 0.0)) throw std::invalid_argument("geomean of a value <= 0");
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(v.size()));
}

std::string check_result(const mcgp::Graph& g, idx_t k,
                         const mcgp::PartitionResult& r) {
  const std::size_t n = static_cast<std::size_t>(g.nvtxs);
  if (r.part.size() != n) return "part vector has the wrong length";
  std::vector<long> count(static_cast<std::size_t>(k), 0);
  for (const idx_t p : r.part) {
    if (p < 0 || p >= k) return "part id out of range";
    ++count[static_cast<std::size_t>(p)];
  }
  if (g.nvtxs >= k && std::find(count.begin(), count.end(), 0) != count.end()) {
    return "empty part";
  }

  sum_t cut2 = 0;  // every cut edge is seen from both ends
  for (std::size_t v = 0; v < n; ++v) {
    for (auto e = static_cast<std::size_t>(g.xadj[v]);
         e < static_cast<std::size_t>(g.xadj[v + 1]); ++e) {
      if (r.part[static_cast<std::size_t>(g.adjncy[e])] != r.part[v]) {
        cut2 += g.adjwgt[e];
      }
    }
  }
  if (cut2 / 2 != r.cut) return "cut differs from the recomputed cut";

  const auto ncon = static_cast<std::size_t>(g.ncon);
  if (r.ubvec_used.size() != ncon) return "ubvec_used has the wrong length";
  std::vector<sum_t> total(ncon, 0);
  std::vector<sum_t> pw(static_cast<std::size_t>(k) * ncon, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const auto p = static_cast<std::size_t>(r.part[v]);
    for (std::size_t i = 0; i < ncon; ++i) {
      const sum_t w = g.vwgt[v * ncon + i];
      total[i] += w;
      pw[p * ncon + i] += w;
    }
  }
  bool feasible = true;
  const double frac = 1.0 / static_cast<double>(k);
  for (std::size_t i = 0; i < ncon; ++i) {
    if (total[i] <= 0) continue;
    const double limit =
        r.ubvec_used[i] * frac * static_cast<double>(total[i]);
    for (std::size_t p = 0; p < static_cast<std::size_t>(k); ++p) {
      if (static_cast<double>(pw[p * ncon + i]) > limit + 1e-9) {
        feasible = false;
      }
    }
  }
  if (feasible != r.feasible) {
    return "feasibility verdict differs from the recomputed one";
  }
  return "";
}

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "selftest FAILED: %s\n", what);
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  // Descending, so the functions must sort.
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

void test_tail() {
  const Tail small = tail(iota(5));
  expect(small.value == 1.0 && small.beyond == 4 && small.n == 5 &&
             near(small.percentile, 20.0),
         "tail with fewer than eleven samples falls back to the minimum");
  const Tail eleven = tail(iota(11));
  expect(eleven.value == 1.0 && eleven.beyond == 10,
         "tail of eleven samples is the smallest, ten beyond it");
  const Tail twenty = tail(iota(20));
  expect(twenty.value == 10.0 && twenty.beyond == 10 &&
             near(twenty.percentile, 50.0),
         "tail of twenty samples is p50");
  const Tail big = tail(iota(1000));
  expect(big.value == 990.0 && big.beyond == 10 &&
             near(big.percentile, 99.0),
         "tail of a thousand samples is p99");
  expect(tail({}).n == 0, "tail of no samples is empty");
  expect(median(iota(4)) == 2.5 && median(iota(5)) == 3.0,
         "median of even and odd counts");
}

void test_geomean() {
  expect(near(geomean({2.0, 8.0}), 4.0), "geomean of 2 and 8 is 4");
  expect(near(geomean({5.0, 5.0, 5.0}), 5.0), "geomean of equal values");
  expect(std::fabs(geomean({1.0, 10.0, 100.0}) - 10.0) < 1e-9,
         "geomean of 1, 10, 100 is 10");
  bool threw = false;
  try {
    geomean({1.0, 0.0});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "geomean rejects a zero");
}

void test_self_time() {
  // call [0,10] holds a [1,4] and b [5,9]; a holds c [2,3]; b holds two
  // overlapping children d [5,7] and e [6,8] (union 3 s, not 4 s).
  std::vector<Span> s(6);
  const auto set = [&s](std::size_t i, int parent, double b, double e) {
    s[i].parent = parent;
    s[i].start = b;
    s[i].end = e;
  };
  set(0, -1, 0, 10);
  set(1, 0, 1, 4);
  set(2, 1, 2, 3);
  set(3, 0, 5, 9);
  set(4, 3, 5, 7);
  set(5, 3, 6, 8);
  const std::vector<double> self = self_times(s);
  expect(near(self[0], 3.0), "root self time excludes its two children");
  expect(near(self[1], 2.0), "nested span self time excludes its child");
  expect(near(self[2], 1.0), "leaf self time is its duration");
  expect(near(self[3], 1.0), "overlapping children count once");
  expect(near(self[4] + self[5], 4.0), "leaves keep their durations");

  // A child sticking out of its parent only counts inside the parent.
  std::vector<Span> t(2);
  t[0].start = 0;
  t[0].end = 2;
  t[1].parent = 0;
  t[1].start = 1;
  t[1].end = 5;
  expect(near(self_times(t)[0], 1.0), "child clipped to its parent");

  // The recorder nests live spans the same way.
  Tracer tr;
  {
    CallScope call(tr, 1);
    SpanScope a(&tr, "a", 0);
  }
  expect(tr.spans()[1].parent == 0 && tr.spans()[1].call == 0,
         "recorded span is a child of its call");
}

void test_checker() {
  const mcgp::Graph g = mcgp::grid2d(4, 4);
  mcgp::PartitionResult r;
  r.part.assign(16, 0);
  for (idx_t v = 8; v < 16; ++v) r.part[static_cast<std::size_t>(v)] = 1;
  r.cut = 4;
  r.feasible = true;
  r.ubvec_used = {1.05};
  expect(check_result(g, 2, r).empty(), "a valid bisection passes");

  Tally tally;
  tally.record(check_result(g, 2, r));
  mcgp::PartitionResult bad = r;
  bad.part[3] = 2;
  tally.record(check_result(g, 2, bad));
  bad = r;
  bad.cut = 5;
  tally.record(check_result(g, 2, bad));
  bad = r;
  bad.feasible = false;
  tally.record(check_result(g, 2, bad));
  bad = r;
  bad.part.assign(16, 0);
  bad.cut = 0;
  bad.feasible = false;
  tally.record(check_result(g, 2, bad));
  bad = r;
  bad.part[0] = 1;  // 9 vs 7 vertices: 9 > 1.05 * 8, so infeasible
  bad.cut = 6;
  tally.record(check_result(g, 2, bad));
  expect(tally.attempted == 6 && tally.failed == 5,
         "five injected invalid partitions count as failed");
  expect(tally.first_failure == "part id out of range",
         "the first failure is kept");
}

}  // namespace

int run_selftest() {
  g_failures = 0;
  test_tail();
  test_geomean();
  test_self_time();
  test_checker();
  return g_failures;
}

}  // namespace perfbench
