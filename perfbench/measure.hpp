// The benchmark's own arithmetic: order statistics, the geometric mean,
// the per-call output checker, and self-tests of all of it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "graph/csr_graph.hpp"

namespace perfbench {

double median(std::vector<double> v);

/// The highest percentile of a sample that has at least ten samples
/// beyond it: with n sorted samples, the one at rank n - 10 (1-based).
/// Below eleven samples no percentile qualifies and the smallest sample is
/// returned, with `beyond` telling how many lie above it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< share of samples at or below value, in %
  std::size_t beyond = 0;   ///< samples strictly above value's rank
  std::size_t n = 0;
};
Tail tail(std::vector<double> v);

/// exp(mean(log x)); every value must be > 0.
double geomean(const std::vector<double>& v);

/// Checks one returned partition against the graph it was computed for,
/// with the benchmark's own loops over the CSR arrays: part ids in
/// [0, k), no empty part when n >= k, the cut equal to r.cut, and the
/// feasibility verdict equal to r.feasible under r.ubvec_used. Returns
/// an empty string when every check holds, else the first violation.
std::string check_result(const mcgp::Graph& g, mcgp::idx_t k,
                         const mcgp::PartitionResult& r);

/// Attempted and failed calls. A call fails when it throws or when any
/// check of its output fails.
struct Tally {
  long attempted = 0;
  long failed = 0;
  std::string first_failure;

  void record(const std::string& problem) {
    ++attempted;
    if (problem.empty()) return;
    ++failed;
    if (first_failure.empty()) first_failure = problem;
  }
};

/// Self-tests of the functions above and of span self time. Returns the
/// number of failed expectations, each printed to stderr.
int run_selftest();

}  // namespace perfbench
