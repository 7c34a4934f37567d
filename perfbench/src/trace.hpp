// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer of the simulator (kernel build, engine run, fuzz generation, the
// static verifier, a serve request, ...). Each span has a name, a start and
// an end on the steady clock, the span that caused it (the innermost span
// open on the same thread) and a request id shared by every span of one
// root. Spans stay in memory and are written out when the run ends.
//
// A span's self time is its duration minus the part of its interval that
// its child spans cover, so the self times of a root's whole subtree add up
// to the root's duration.
#pragma once

#include <chrono>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

using sch::i64;
using sch::u32;

class Tracer {
 public:
  struct Span {
    u32 id = 0;
    u32 parent = 0;   // 0 for a root span; ids start at 1
    u64 request = 0;  // id of the root span this one descends from
    std::string name;
    i64 start_ns = 0;
    i64 end_ns = -1;  // -1 while open
    i64 self_ns = 0;  // filled by finish()
    [[nodiscard]] i64 duration_ns() const { return end_ns - start_ns; }
  };

  /// Closes its span when destroyed; a scope opened on a null tracer is a
  /// no-op, which is how untraced units skip recording.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    u32 id_ = 0;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Compute self times. Call once every span has closed.
  void finish();

  /// Durations (ms) of every span with this name.
  [[nodiscard]] Samples durations_ms(const std::string& name) const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// "" when every self time is non-negative and every root's subtree self
  /// times sum to its duration; otherwise a description of the first
  /// violation.
  [[nodiscard]] std::string check() const;

  /// One JSON object per line: id, parent, request, name, start_ns, end_ns,
  /// self_ns (times relative to the tracer's creation).
  void write(std::ostream& out) const;

 private:
  u32 open(const char* name);
  void close(u32 id);
  [[nodiscard]] i64 now_ns() const;

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // index = id - 1
};

}  // namespace perfbench
