#include "support/perf_counters.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <string_view>
#include <system_error>

#include "support/json_writer.hpp"
#include "support/schema.hpp"
#include "support/timer.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace mcgp {

const char* perf_counter_name(PerfCounter c) {
  switch (c) {
    case PerfCounter::kCycles: return "cycles";
    case PerfCounter::kInstructions: return "instructions";
    case PerfCounter::kTaskClock: return "task_clock_ns";
    case PerfCounter::kLlcLoads: return "llc_loads";
    case PerfCounter::kLlcMisses: return "llc_misses";
    case PerfCounter::kBranches: return "branches";
    case PerfCounter::kBranchMisses: return "branch_misses";
  }
  return "?";
}

std::int64_t perf_scale(std::uint64_t raw, std::uint64_t enabled,
                        std::uint64_t running) {
  if (running == 0) return 0;  // never scheduled: no basis for an estimate
  if (running >= enabled) return static_cast<std::int64_t>(raw);
  const long double scaled = static_cast<long double>(raw) *
                             static_cast<long double>(enabled) /
                             static_cast<long double>(running);
  return static_cast<std::int64_t>(scaled);
}

namespace {

#if defined(__linux__)

struct EventSpec {
  std::uint32_t type;
  std::uint64_t config;
};

constexpr std::uint64_t hw_cache_config(std::uint64_t cache, std::uint64_t op,
                                        std::uint64_t result) {
  return cache | (op << 8) | (result << 16);
}

EventSpec event_spec(PerfCounter c) {
  switch (c) {
    case PerfCounter::kCycles:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES};
    case PerfCounter::kInstructions:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS};
    case PerfCounter::kTaskClock:
      return {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK};
    case PerfCounter::kLlcLoads:
      return {PERF_TYPE_HW_CACHE,
              hw_cache_config(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
                              PERF_COUNT_HW_CACHE_RESULT_ACCESS)};
    case PerfCounter::kLlcMisses:
      return {PERF_TYPE_HW_CACHE,
              hw_cache_config(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
                              PERF_COUNT_HW_CACHE_RESULT_MISS)};
    case PerfCounter::kBranches:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_INSTRUCTIONS};
    case PerfCounter::kBranchMisses:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES};
  }
  return {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK};
}

#endif  // defined(__linux__)

}  // namespace

PerfCounterGroup::PerfCounterGroup() {
  for (int i = 0; i < kNumPerfCounters; ++i) fd_[i] = -1;
}

PerfCounterGroup::~PerfCounterGroup() { close(); }

int PerfCounterGroup::open() {
  close();
  open_errno_ = 0;
#if defined(__linux__)
  for (int i = 0; i < kNumPerfCounters; ++i) {
    perf_event_attr attr{};
    attr.size = static_cast<std::uint32_t>(sizeof(attr));
    const EventSpec spec = event_spec(static_cast<PerfCounter>(i));
    attr.type = spec.type;
    attr.config = spec.config;
    // Counting starts at open; user space only (perf_event_paranoid <= 2
    // suffices — no kernel or hypervisor profiling requested).
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format =
        PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
    // pid=0, cpu=-1: count the calling thread wherever it runs.
    const long fd = ::syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0UL);
    if (fd < 0) {
      if (open_errno_ == 0) open_errno_ = errno;
      continue;
    }
    fd_[i] = static_cast<int>(fd);
    ++num_open_;
  }
#else
  open_errno_ = ENOSYS;
#endif
  return num_open_;
}

void PerfCounterGroup::close() {
#if defined(__linux__)
  for (int i = 0; i < kNumPerfCounters; ++i) {
    if (fd_[i] >= 0) ::close(fd_[i]);
    fd_[i] = -1;
  }
#endif
  num_open_ = 0;
}

bool PerfCounterGroup::read(PerfReading& out) const {
  out = PerfReading{};
#if defined(__linux__)
  bool any = false;
  for (int i = 0; i < kNumPerfCounters; ++i) {
    if (fd_[i] < 0) continue;
    // {value, time_enabled, time_running} per the read_format above.
    std::uint64_t buf[3] = {};
    if (::read(fd_[i], buf, sizeof(buf)) !=
        static_cast<ssize_t>(sizeof(buf))) {
      continue;
    }
    out.value[i] = perf_scale(buf[0], buf[1], buf[2]);
    out.enabled_ns += static_cast<std::int64_t>(buf[1]);
    out.running_ns += static_cast<std::int64_t>(buf[2]);
    any = true;
  }
  return any;
#else
  return false;
#endif
}

bool PerfCounterGroup::is_open(PerfCounter c) const {
  return fd_[static_cast<int>(c)] >= 0;
}

namespace {

std::atomic<std::uint64_t> g_profiler_ids{1};

/// One-entry per-thread cache binding this thread's counter group to the
/// profiler that owns it. Keyed by a process-unique profiler id (never a
/// reused address or thread::id), so a stale entry can only miss, never
/// alias into a dangling group. `depth` counts the live non-aux ProfScopes
/// of that profiler on this thread — the signal aux scopes use to detect
/// an enclosing scope already measuring the thread.
struct TlsSlot {
  std::uint64_t profiler_id = 0;
  PerfCounterGroup* grp = nullptr;
  int depth = 0;
};

TlsSlot& tls_slot() {
  static thread_local TlsSlot slot;
  return slot;
}

/// Small process-unique ordinal for the calling thread; cheaper and more
/// readable than std::thread::id for the per-bucket distinct-thread sets.
std::uint64_t thread_ordinal() {
  static std::atomic<std::uint64_t> next{1};
  static thread_local const std::uint64_t ord =
      next.fetch_add(1, std::memory_order_relaxed);
  return ord;
}

bool perf_disabled_by_env() {
  const char* s = std::getenv("MCGP_PERF_DISABLE");
  return s != nullptr && *s != '\0' && std::string_view(s) != "0";
}

std::string open_failure_status(int err) {
  std::string msg =
      "perf_event_open failed: " + std::generic_category().message(err);
  if (err == EACCES || err == EPERM) {
    msg += " (check /proc/sys/kernel/perf_event_paranoid)";
  }
  return msg;
}

}  // namespace

Profiler::Profiler()
    : id_(g_profiler_ids.fetch_add(1, std::memory_order_relaxed)) {
  if (perf_disabled_by_env()) {
    status_ = "disabled (MCGP_PERF_DISABLE)";
    return;
  }
  auto probe = std::make_unique<PerfCounterGroup>();
  const int opened = probe->open();
  for (int i = 0; i < kNumPerfCounters; ++i) {
    counter_open_[i] = probe->is_open(static_cast<PerfCounter>(i));
  }
  if (opened == 0) {
    status_ = open_failure_status(probe->open_errno());
    return;
  }
  available_ = true;
  status_ = "ok";
  // The probe doubles as the constructing thread's group — the common
  // single-threaded run never opens a second set of fds.
  PerfCounterGroup* raw = probe.get();
  {
    MutexLock lk(mu_);
    groups_.push_back(std::move(probe));
  }
  tls_slot() = TlsSlot{id_, raw};
}

Profiler::~Profiler() = default;

bool Profiler::counter_open(PerfCounter c) const {
  return counter_open_[static_cast<int>(c)];
}

PerfCounterGroup* Profiler::thread_group() {
  if (!available_) return nullptr;
  TlsSlot& slot = tls_slot();
  if (slot.profiler_id == id_) return slot.grp;
  auto grp = std::make_unique<PerfCounterGroup>();
  grp->open();  // 0 opened leaves read() returning false: wall-time only
  PerfCounterGroup* raw = grp.get();
  {
    MutexLock lk(mu_);
    groups_.push_back(std::move(grp));
  }
  slot = TlsSlot{id_, raw};
  return raw;
}

void Profiler::fold(const char* phase, int level, const ProfBucket& delta) {
  const std::uint64_t ord = thread_ordinal();
  MutexLock lk(mu_);
  const auto key = std::make_pair(std::string(phase), level);
  ProfBucket& b = buckets_[key];
  b.scopes += delta.scopes;
  b.edges += delta.edges;
  b.vtxs += delta.vtxs;
  b.wall_ns += delta.wall_ns;
  for (int i = 0; i < kNumPerfCounters; ++i) {
    b.counters[i] += delta.counters[i];
  }
  b.enabled_ns += delta.enabled_ns;
  b.running_ns += delta.running_ns;
  bucket_threads_[key].insert(ord);
}

void Profiler::set_threads(int n) {
  MutexLock lk(mu_);
  threads_ = n > 0 ? n : 1;
}

std::vector<ProfPhase> Profiler::snapshot() const {
  MutexLock lk(mu_);
  std::vector<ProfPhase> out;
  out.reserve(buckets_.size());
  for (const auto& [key, stats] : buckets_) {
    const auto it = bucket_threads_.find(key);
    const int nthreads =
        it == bucket_threads_.end() ? 0 : static_cast<int>(it->second.size());
    out.push_back(ProfPhase{key.first, key.second, nthreads, stats});
  }
  return out;
}

ProfBucket Profiler::phase_total(const std::string& phase) const {
  MutexLock lk(mu_);
  ProfBucket total;
  for (const auto& [key, stats] : buckets_) {
    if (key.first != phase) continue;
    total.scopes += stats.scopes;
    total.edges += stats.edges;
    total.vtxs += stats.vtxs;
    total.wall_ns += stats.wall_ns;
    for (int i = 0; i < kNumPerfCounters; ++i) {
      total.counters[i] += stats.counters[i];
    }
    total.enabled_ns += stats.enabled_ns;
    total.running_ns += stats.running_ns;
  }
  return total;
}

void Profiler::clear() {
  MutexLock lk(mu_);
  buckets_.clear();
  bucket_threads_.clear();
}

namespace {

double ratio(std::int64_t num, std::int64_t den) {
  return static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void Profiler::write_json_value(JsonWriter& w) const {
  const auto open = [this](PerfCounter c) { return counter_open(c); };
  const auto idx = [](PerfCounter c) { return static_cast<int>(c); };

  int run_threads = 1;
  {
    MutexLock lk(mu_);
    run_threads = threads_;
  }

  w.begin_object();
  w.member("schema_version", kMcgpSchemaVersion);
  w.member("available", available_);
  w.member("status", status_);
  w.member("threads", static_cast<std::int64_t>(run_threads));
  w.key("counters");
  w.begin_array();
  for (int i = 0; i < kNumPerfCounters; ++i) {
    if (counter_open_[i]) w.value(perf_counter_name(static_cast<PerfCounter>(i)));
  }
  w.end_array();
  w.key("phases");
  w.begin_array();
  for (const ProfPhase& p : snapshot()) {
    const ProfBucket& b = p.stats;
    w.begin_object();
    w.member("phase", p.phase);
    if (p.level >= 0) w.member("level", static_cast<std::int64_t>(p.level));
    w.member("scopes", b.scopes);
    w.member("edges", b.edges);
    w.member("vtxs", b.vtxs);
    w.member("threads", static_cast<std::int64_t>(p.threads));
    w.member("wall_ns", b.wall_ns);
    for (int i = 0; i < kNumPerfCounters; ++i) {
      if (counter_open_[i]) {
        w.member(perf_counter_name(static_cast<PerfCounter>(i)),
                 b.counters[i]);
      }
    }
    if (available_) {
      w.member("enabled_ns", b.enabled_ns);
      w.member("running_ns", b.running_ns);
    }
    // Derived metrics, emitted only when their inputs are measured and
    // the denominator is meaningful.
    const std::int64_t cycles = b.counters[idx(PerfCounter::kCycles)];
    const std::int64_t instr = b.counters[idx(PerfCounter::kInstructions)];
    const std::int64_t loads = b.counters[idx(PerfCounter::kLlcLoads)];
    const std::int64_t branches = b.counters[idx(PerfCounter::kBranches)];
    if (open(PerfCounter::kCycles) && open(PerfCounter::kInstructions) &&
        cycles > 0) {
      w.member("ipc", ratio(instr, cycles));
    }
    if (open(PerfCounter::kLlcLoads) && open(PerfCounter::kLlcMisses) &&
        loads > 0) {
      w.member("llc_miss_rate",
               ratio(b.counters[idx(PerfCounter::kLlcMisses)], loads));
    }
    if (open(PerfCounter::kBranches) && open(PerfCounter::kBranchMisses) &&
        branches > 0) {
      w.member("branch_miss_rate",
               ratio(b.counters[idx(PerfCounter::kBranchMisses)], branches));
    }
    if (open(PerfCounter::kCycles) && b.edges > 0) {
      w.member("cycles_per_edge", ratio(cycles, b.edges));
    }
    if (open(PerfCounter::kBranches) && b.vtxs > 0) {
      w.member("branches_per_vtx", ratio(branches, b.vtxs));
    }
    // On-CPU time over wall time: the per-phase parallel-efficiency
    // headline (1.0 = one busy core, num_threads = perfect scaling).
    if (open(PerfCounter::kTaskClock) && b.wall_ns > 0) {
      w.member("parallelism",
               ratio(b.counters[idx(PerfCounter::kTaskClock)], b.wall_ns));
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void ProfScope::begin() {
  t0_ns_ = monotonic_now_ns();
  grp_ = p_->thread_group();  // binds the TLS slot to this profiler
  TlsSlot& slot = tls_slot();
  if (aux_) {
    // Work helping: when an enclosing non-aux scope of this profiler is
    // live on this thread, that scope already measures the task — a
    // second interval here would double-count it.
    if (slot.profiler_id == p_->id_ && slot.depth > 0) {
      p_ = nullptr;
      grp_ = nullptr;
      return;
    }
  } else if (slot.profiler_id == p_->id_) {
    ++slot.depth;
  }
  if (grp_ != nullptr) have_begin_ = grp_->read(begin_reading_);
}

void ProfScope::end() {
  Profiler* p = p_;
  p_ = nullptr;
  TlsSlot& slot = tls_slot();
  if (!aux_ && slot.profiler_id == p->id_ && slot.depth > 0) --slot.depth;
  ProfBucket d;
  // Aux scopes contribute only on-CPU counters and their thread identity;
  // the enclosing scope on the submitting thread owns the wall time and
  // the scope count.
  d.scopes = aux_ ? 0 : 1;
  d.edges = edges_;
  d.vtxs = vtxs_;
  d.wall_ns = aux_ ? 0 : monotonic_now_ns() - t0_ns_;
  if (grp_ != nullptr && have_begin_) {
    PerfReading now;
    if (grp_->read(now)) {
      // Clamp: multiplexing scaling is an estimate, so a delta can come
      // out marginally negative when the scale factor shifts between
      // reads; a bucket must never count backwards.
      for (int i = 0; i < kNumPerfCounters; ++i) {
        d.counters[i] =
            std::max<std::int64_t>(0, now.value[i] - begin_reading_.value[i]);
      }
      d.enabled_ns = std::max<std::int64_t>(
          0, now.enabled_ns - begin_reading_.enabled_ns);
      d.running_ns = std::max<std::int64_t>(
          0, now.running_ns - begin_reading_.running_ns);
    }
  }
  p->fold(phase_, level_, d);
}

}  // namespace mcgp
