#include "trace.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last (parents of new spans).
thread_local std::vector<u32> t_open;

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->open(name);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

i64 Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

u32 Tracer::open(const char* name) {
  const i64 start = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.id = static_cast<u32>(spans_.size() + 1);
  s.parent = t_open.empty() ? 0 : t_open.back();
  s.request = s.parent == 0 ? s.id : spans_[s.parent - 1].request;
  s.name = name;
  s.start_ns = start;
  spans_.push_back(std::move(s));
  t_open.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(u32 id) {
  const i64 end = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ns = end;
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

void Tracer::finish() {
  std::vector<std::vector<std::pair<i64, i64>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
  }
  for (usize i = 0; i < spans_.size(); ++i) {
    Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    i64 covered = 0;
    i64 cursor = s.start_ns;
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, s.end_ns);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    s.self_ns = s.duration_ns() - covered;
  }
}

Samples Tracer::durations_ms(const std::string& name) const {
  Samples out;
  for (const Span& s : spans_) {
    if (s.name == name) out.add(static_cast<double>(s.duration_ns()) / 1e6);
  }
  return out;
}

std::string Tracer::check() const {
  std::vector<i64> subtree_self(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.end_ns < s.start_ns) return "span " + s.name + " never closed";
    if (s.self_ns < 0) return "span " + s.name + " has negative self time";
    // Parents are opened before their children, so attribute upward by
    // walking to the root.
    u32 root = s.id;
    while (spans_[root - 1].parent != 0) root = spans_[root - 1].parent;
    subtree_self[root - 1] += s.self_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent == 0 && subtree_self[s.id - 1] != s.duration_ns()) {
      return "root span " + s.name + ": self times sum to " +
             std::to_string(subtree_self[s.id - 1]) + " ns, duration is " +
             std::to_string(s.duration_ns()) + " ns";
    }
  }
  return "";
}

void Tracer::write(std::ostream& out) const {
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"self_ns\":" << s.self_ns << "}\n";
  }
}

}  // namespace perfbench
