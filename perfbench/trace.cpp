#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start;  // end of the union so far
    for (const auto& [b0, e0] : kids) {
      const double b = std::max(b0, reach);
      const double e = std::min(e0, s.end);
      if (e > b) covered += e - b;
      reach = std::max(reach, std::min(e0, s.end));
    }
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int Tracer::begin_call(int threads) {
  if (!stack_.empty()) throw std::logic_error("begin_call inside a span");
  threads_ = threads;
  call_counts_.emplace_back();
  return begin("call", -1);
}

int Tracer::begin(const char* name, int level, bool off_path) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.level = level;
  s.call = static_cast<int>(call_counts_.size()) - 1;
  s.threads = threads_;
  s.off_path = off_path;
  s.start = now();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  // Closing a span closes any span still open inside it.
  const double t = now();
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    spans_[static_cast<std::size_t>(top)].end = t;
    if (top == id) return;
  }
}

void Tracer::count(const std::string& key, double v) {
  if (call_counts_.empty()) throw std::logic_error("count outside a call");
  call_counts_.back()[key] += v;
}

const std::map<std::string, double>& Tracer::counts(int call) const {
  return call_counts_.at(static_cast<std::size_t>(call));
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  const std::vector<double> self = self_times(spans_);
  out.precision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"parent\": " << s.parent << ", \"level\": " << s.level
        << ", \"call\": " << s.call << ", \"threads\": " << s.threads
        << ", \"off_path\": " << (s.off_path ? "true" : "false")
        << ", \"start\": " << s.start << ", \"end\": " << s.end
        << ", \"self\": " << self[i] << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace perfbench
