// Shared plumbing of the four workloads: run options, the timed-unit loop
// with set-up repetitions spread over the run, correctness bookkeeping, and
// the metric list a workload hands back to main().
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "api/run_report.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  /// A run measures for `seconds` and for at least this many units, so at
  /// least ten samples lie beyond every reported p90.
  usize min_units = 100;
  /// Traced runs write their spans here ("" = keep them in memory only).
  std::string spans_path;
};

/// One reported figure. `samples` is the number of timed samples behind it,
/// 0 for a count or a deterministic simulated statistic.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  usize samples = 0;
};

/// What a workload run hands back: operation counts, failure messages and
/// its metrics (end-to-end when untraced, per-layer when traced).
struct Outcome {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> failures;  // first few messages, for the log
  std::vector<Metric> metrics;
  /// Peak resident memory (MB) of the child processes a workload ran its
  /// units in, if any; the reported peak is the larger of this and ours.
  double child_peak_rss_mb = 0;

  void fail(const std::string& message) {
    ++failed;
    if (failures.size() < 8) failures.push_back(message);
  }
  /// Fold another outcome's operation counts and failures into this one.
  void merge_counts(const Outcome& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& f : other.failures) {
      if (failures.size() < 8) failures.push_back(f);
    }
  }
  void add(std::string name, double value, std::string unit, usize samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
};

/// Seconds of run time between two set-up repetitions (serve_mixed, whose
/// clients run on their own threads).
inline constexpr double kSetupIntervalS = 0.5;

inline double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Run `unit(index, traced)` until `seconds` have passed and `min_units`
/// units ran. With tracing on, odd units are traced and even units are not,
/// so the tracing overhead is measured under the same host conditions.
/// `setup_rep()` runs before every `setup_every`-th unit, outside the unit
/// timing, so set-up is sampled across the host's speed levels too. A
/// count, not a clock, schedules it, so the sequence of allocations -- and
/// with it the peak resident set -- does not depend on the host's speed.
void drive(const Options& options, usize setup_every,
           const std::function<void(usize, bool)>& unit,
           const std::function<void()>& setup_rep);

/// True when every simulated statistic of `a` equals that of `b` (every
/// field but the host wall time). A repeated unit must reproduce its first
/// pass exactly.
bool same_simulation(const sch::api::RunReport& a, const sch::api::RunReport& b);

/// A hash of every simulated statistic of `r` (every field but the host
/// wall time), for units that keep only a digest of their first pass.
u64 simulation_digest(const sch::api::RunReport& r);

/// Core-cycles of a report: the sum of each core's active cycles.
double core_cycles(const sch::api::RunReport& r);

/// `100 * (traced / untraced - 1)` for two p90 unit times.
double overhead_pct(const Samples& traced, const Samples& untraced);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

Outcome run_fig3_sweep(const Options& options);
Outcome run_dma_stream(const Options& options);
Outcome run_fuzz_lockstep(const Options& options);
Outcome run_serve_mixed(const Options& options);

/// Compute self times, write the spans to options.spans_path, record a
/// failure when the self-time invariant does not hold, and report the span
/// count.
void finish_trace(const Options& options, Tracer& tracer, Outcome& outcome);

}  // namespace perfbench
