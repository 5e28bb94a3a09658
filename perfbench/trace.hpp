// In-memory span recorder for the traced run.
//
// The benchmark opens one span around every call it makes into a layer of
// the library (see replica.cpp), so layer boundaries are the library's
// public functions and nothing inside src/ is instrumented. Spans are kept
// in memory and written out once, when the benchmark ends. Only the thread
// that drives a call opens and closes spans; the library's own worker
// threads never touch the recorder.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< layer name, a string literal
  int parent = -1;        ///< index of the enclosing span, -1 for a root
  int level = -1;         ///< hierarchy level (0 = finest), -1 when none
  int call = -1;          ///< traced call the span belongs to
  int threads = 1;        ///< num_threads of that call
  bool off_path = false;  ///< probe run outside the call's blocking path
  double start = 0.0;     ///< seconds since the recorder was created
  double end = 0.0;
};

/// A span's self time: its duration minus the part of that interval the
/// union of its children's intervals covers. Returned per span, in order.
std::vector<double> self_times(const std::vector<Span>& spans);

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Open the root span of one traced call and return its id (see
  /// CallScope).
  int begin_call(int threads);

  int begin(const char* name, int level, bool off_path = false);
  void end(int id);

  /// Add `v` to counter `key` of the current (or last) call.
  void count(const std::string& key, double v = 1.0);

  const std::vector<Span>& spans() const { return spans_; }
  /// Counters of call `call` (empty map when it recorded none).
  const std::map<std::string, double>& counts(int call) const;
  int calls() const { return static_cast<int>(call_counts_.size()); }

  /// One JSON object per span, one per line.
  void write_jsonl(const std::string& path) const;

 private:
  double now() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::map<std::string, double>> call_counts_;
  int threads_ = 1;
};

/// RAII root span of one traced call. Spans of a call that throws are
/// closed by their scopes as the exception passes.
class CallScope {
 public:
  CallScope(Tracer& t, int threads) : t_(t), root_(t.begin_call(threads)) {}
  ~CallScope() { t_.end(root_); }
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  Tracer& t_;
  int root_;
};

/// RAII span; a null tracer records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* t, const char* name, int level = -1,
            bool off_path = false)
      : t_(t), id_(t != nullptr ? t->begin(name, level, off_path) : -1) {}
  ~SpanScope() {
    if (t_ != nullptr) t_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

}  // namespace perfbench
