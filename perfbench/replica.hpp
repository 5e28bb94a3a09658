// Layer-composed replicas of partition() and refine_partition().
//
// Each replica recomposes one call from the layers' public functions in
// the order src/core/{partitioner,kway_driver,rb_driver}.cpp call them,
// and opens a span around every call into a layer. Its output should be
// bit-identical to the library call at the same seed; the benchmark counts
// the calls where it is (trace.replica_match_frac), so a later change to a
// driver shows up as a mismatch instead of a silently wrong layer table.
//
// Differences from the library drivers, all outside the partition result:
// every observer is detached, MC-RB recursion runs serially (the layers
// still receive the pool), and kway_balance is additionally probed on a
// copy of every kway_refine input that kway_refine would balance first.
// Probes run after the call's root span closes, marked off_path.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "graph/csr_graph.hpp"
#include "trace.hpp"

namespace perfbench {

/// partition(g, opts) recomposed from its layers.
std::vector<mcgp::idx_t> replica_partition(const mcgp::Graph& g,
                                           const mcgp::Options& opts,
                                           Tracer& tr);

/// refine_partition(g, part, opts) recomposed from its layers.
std::vector<mcgp::idx_t> replica_refine(const mcgp::Graph& g,
                                        std::vector<mcgp::idx_t> part,
                                        const mcgp::Options& opts,
                                        Tracer& tr);

}  // namespace perfbench
