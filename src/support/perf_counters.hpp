// Hardware performance-counter profiling via perf_event_open(2).
//
// The trace layer answers "where did the wall time go" and the flight
// recorder "how did the solution evolve"; this layer answers "why is a
// phase slow": cycles, instructions (IPC), last-level-cache behavior, and
// branch mispredicts, aggregated per pipeline phase AND per hierarchy
// level. That is the instrument the ROADMAP-5 memory-layout work needs —
// a cycles-per-edge or LLC-miss-rate regression is hardware evidence,
// where wall time alone is scheduler noise.
//
// Three layers:
//
//  * PerfCounterGroup — one perf_event fd per counter for the calling
//    thread. Each counter opens independently, so a kernel that lacks a
//    PMU (common in containers/VMs: hardware events fail with ENOENT
//    while software events like task-clock still work) degrades counter
//    by counter instead of all-or-nothing. Every fd requests
//    PERF_FORMAT_TOTAL_TIME_{ENABLED,RUNNING} so multiplexed readings
//    are scaled to estimates (see perf_scale).
//
//  * Profiler — the object a run attaches through Options::profile,
//    following the trace/flight/audit pattern exactly: a null pointer
//    costs one test per hook, and attaching never changes the partition.
//    Worker threads lazily open their own counter groups (perf counters
//    are per-thread); deltas fold into (phase, level) buckets under one
//    cold mutex (folds happen per level, never per move). When
//    perf_event_open is unavailable (EPERM from perf_event_paranoid,
//    ENOSYS, ENOENT, or the MCGP_PERF_DISABLE env override) the profiler
//    still aggregates wall time and work items per bucket and reports
//    "available": false — an explicit record, not an error.
//
//  * ProfScope — RAII measurement interval used at the existing
//    ScopedPhase/TraceSpan seams. Nested scopes each count their full
//    interval (inclusive semantics, like a sampling profiler's call
//    stack): the "run" scope contains everything once, so it is the
//    denominator for per-phase percentages and the ledger headline.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/thread_annotations.hpp"

namespace mcgp {

class JsonWriter;

/// The fixed counter set. Hardware events may be individually
/// unavailable; kTaskClock is a software event and works almost anywhere.
enum class PerfCounter : int {
  kCycles = 0,
  kInstructions,
  kTaskClock,  ///< software event; value is nanoseconds on-CPU
  kLlcLoads,
  kLlcMisses,
  kBranches,
  kBranchMisses,
};
inline constexpr int kNumPerfCounters = 7;

/// Stable JSON/report name of a counter ("cycles", "task_clock_ns", ...).
const char* perf_counter_name(PerfCounter c);

/// Multiplexing correction: the kernel time-shares the PMU, so a counter
/// may only have been running for part of the time it was enabled. The
/// standard estimate scales the raw count by enabled/running; running == 0
/// (never scheduled) yields 0. Pure function, unit-tested directly.
std::int64_t perf_scale(std::uint64_t raw, std::uint64_t enabled,
                        std::uint64_t running);

/// One cumulative reading of a thread's counter group, already
/// multiplexing-scaled. Counters that failed to open read as 0.
struct PerfReading {
  std::int64_t value[kNumPerfCounters] = {};
  std::int64_t enabled_ns = 0;  ///< summed over open counters
  std::int64_t running_ns = 0;  ///< summed over open counters
};

/// Per-thread set of perf_event fds (pid=0, cpu=-1: this thread, any
/// CPU). open() must be called by the thread being measured.
class PerfCounterGroup {
 public:
  PerfCounterGroup();
  ~PerfCounterGroup();
  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  /// Open every counter that the kernel supports for the calling thread.
  /// Returns the number that opened; 0 means counters are unavailable
  /// here (see open_errno() for the first failure's errno).
  int open();
  void close();

  /// Read cumulative scaled values. False when no counter is open.
  bool read(PerfReading& out) const;

  bool is_open(PerfCounter c) const;
  int num_open() const { return num_open_; }
  int open_errno() const { return open_errno_; }

 private:
  int fd_[kNumPerfCounters];
  int num_open_ = 0;
  int open_errno_ = 0;
};

/// One (phase, level) aggregation bucket. All additive, so buckets from
/// concurrent scopes merge by summation.
struct ProfBucket {
  std::int64_t scopes = 0;   ///< measurement intervals folded in
  std::int64_t edges = 0;    ///< work items: edges of the graphs measured
  std::int64_t vtxs = 0;     ///< work items: vertices of the graphs measured
  std::int64_t wall_ns = 0;  ///< summed wall time of the intervals
  std::int64_t counters[kNumPerfCounters] = {};
  std::int64_t enabled_ns = 0;  ///< multiplexing diagnostic (summed)
  std::int64_t running_ns = 0;
};

/// Snapshot entry: one bucket plus its identity.
struct ProfPhase {
  std::string phase;
  int level = -1;  ///< hierarchy level (0 = finest); -1 = not level-scoped
  int threads = 0;  ///< distinct threads that folded into this bucket
  ProfBucket stats;
};

class Profiler {
 public:
  /// Probes counter availability on the constructing thread. The
  /// MCGP_PERF_DISABLE environment variable (any value but "0") forces
  /// the unavailable path — read per construction so tests can toggle it.
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// True when at least one hardware/software counter opened. When false
  /// the profiler still aggregates wall time and work items, and its JSON
  /// reports "available": false with the reason in status().
  bool counters_available() const { return available_; }
  /// "ok", or why counters are unavailable ("disabled (MCGP_PERF_DISABLE)",
  /// "perf_event_open failed: ...").
  const std::string& status() const { return status_; }
  /// Whether a specific counter opened during the construction probe.
  bool counter_open(PerfCounter c) const;

  /// The calling thread's counter group, opened lazily and registered
  /// under the mutex (mirrors TraceRecorder's aux-log registration).
  /// Null when counters are unavailable. Groups live until the profiler
  /// is destroyed.
  PerfCounterGroup* thread_group();

  /// Merge one measured interval into the (phase, level) bucket. The
  /// calling thread is registered in the bucket's distinct-thread set, so
  /// per-phase reports can show how many threads contributed.
  void fold(const char* phase, int level, const ProfBucket& delta);

  /// Record the run's configured thread count (Options::num_threads);
  /// emitted as the top-level "threads" member of the profile section.
  void set_threads(int n);

  /// All buckets, ordered by (phase, level).
  std::vector<ProfPhase> snapshot() const;
  /// Sum of one phase's buckets across levels (e.g. phase_total("run")
  /// is the ledger headline: the whole-run scope counts everything once).
  ProfBucket phase_total(const std::string& phase) const;

  /// The run report's "profile" section: {"schema_version", "available",
  /// "status", "counters": [names of open counters], "phases": [...]}.
  /// Each phase object carries the raw counters plus derived metrics
  /// (ipc, llc_miss_rate, branch_miss_rate, cycles_per_edge,
  /// branches_per_vtx) where the inputs are meaningful.
  void write_json_value(JsonWriter& w) const;

  /// Drop all buckets (thread groups and availability kept). Only valid
  /// while no scope is live.
  void clear();

 private:
  friend class ProfScope;

  bool available_ = false;
  bool counter_open_[kNumPerfCounters] = {};
  std::string status_;
  const std::uint64_t id_;  ///< process-unique; keys the thread-local cache

  mutable Mutex mu_;
  std::vector<std::unique_ptr<PerfCounterGroup>> groups_ MCGP_GUARDED_BY(mu_);
  std::map<std::pair<std::string, int>, ProfBucket> buckets_
      MCGP_GUARDED_BY(mu_);
  /// Distinct thread ordinals that folded into each bucket (kept beside
  /// buckets_ so ProfBucket itself stays plain additive data).
  std::map<std::pair<std::string, int>, std::set<std::uint64_t>>
      bucket_threads_ MCGP_GUARDED_BY(mu_);
  int threads_ MCGP_GUARDED_BY(mu_) = 1;
};

/// RAII measurement interval. Detached (null profiler) is one pointer
/// test in the constructor and one in the destructor. Attached, it reads
/// the thread's counters at entry and exit and folds the delta — cheap
/// enough for per-level seams, not meant for per-move granularity.
///
/// An `aux` scope measures a parallel task's slice of a phase whose
/// enclosing scope lives on the submitting thread. It contributes on-CPU
/// counters (and its thread identity) but neither wall time nor a scope
/// count — the enclosing scope already supplies both — and it disarms
/// itself when a non-aux scope of the same profiler is already live on
/// the current thread (work helping: the enclosing scope is counting this
/// thread, a second interval would double-count the task).
class ProfScope {
 public:
  ProfScope(Profiler* p, const char* phase, int level = -1, bool aux = false)
      : p_(p), phase_(phase), level_(level), aux_(aux) {
    if (p_ == nullptr) return;
    begin();
  }
  ~ProfScope() { finish(); }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

  /// Attach work-item counts (the measured graph's edges and vertices)
  /// so the bucket can report cycles-per-edge and branches-per-vertex.
  void work(std::int64_t edges, std::int64_t vtxs) {
    edges_ = edges;
    vtxs_ = vtxs;
  }

  /// Fold now instead of at scope exit; idempotent.
  void finish() {
    if (p_ == nullptr) return;
    end();
  }

 private:
  void begin();
  void end();

  Profiler* p_;
  const char* phase_;
  int level_;
  bool aux_ = false;
  std::int64_t edges_ = 0;
  std::int64_t vtxs_ = 0;
  PerfCounterGroup* grp_ = nullptr;
  bool have_begin_ = false;
  PerfReading begin_reading_;
  /// monotonic_now_ns() at begin() (support/timer.hpp: one shared clock
  /// for profiler, PhaseTimes, flight recorder, and metrics).
  std::int64_t t0_ns_ = 0;
};

}  // namespace mcgp
