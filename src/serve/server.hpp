// NDJSON scenario service above api::Engine: one request line in, streamed
// report lines out. Each run request expands to jobs exactly like a
// scenario file (same schema, same strict validation), the jobs fan out
// across the engine worker pool, and every RunReport is emitted as its own
// response line the moment it completes -- never buffered into one
// document. The report cache memoizes whole RunReports -- sound because
// reports are bit-deterministic for a given (kernel, variant, sizes, config,
// engine, verify) key apart from `wall_s` -- so a warm repeated request
// skips simulation entirely (responses carry `"cached": true`).
//
// Protocol details, the cache-key contract and the rollup definitions are
// specified in docs/SERVE.md; tools/check_serve_schema.py pins the
// response schema.
#pragma once

#include <atomic>
#include <iosfwd>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "api/engine.hpp"
#include "scenario/scenario_runner.hpp"

namespace sch::serve {

using Json = scenario::Json;

struct ServerOptions {
  /// Engine worker threads. 0 = share the process-wide default engine
  /// (SCH_SWEEP_THREADS / hardware concurrency); nonzero builds a dedicated
  /// pool of that width.
  u32 threads = 0;
  /// Report cache capacity (entries; 0 disables the cache).
  usize report_cache_capacity = 4096;
  /// A request line longer than this returns a structured error and is
  /// discarded up to the next newline; the session keeps going.
  usize max_line_bytes = 1u << 20;
  /// Upper bound on jobs one request may expand to (kernel x variants x
  /// sizes x repeat); larger requests are rejected with a structured error.
  usize max_jobs_per_request = 4096;
  /// Reader-side backpressure: stop parsing ahead while this many jobs are
  /// submitted but not yet collected (bounds memory on unbounded input).
  usize max_inflight_jobs = 1024;
};

/// Memoized whole-run reports. Keyed by kernel, variant, resolved sizes,
/// every timing-relevant SimConfig field, engine selection and verify policy
/// -- every field of the row is deterministic for that key except `wall_s`,
/// which a hit replays from the original run. Plain LRU with no in-flight
/// dedup (a concurrent duplicate just runs twice and the first insert is
/// kept).
class ReportCache {
 public:
  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 evictions = 0;
    u64 entries = 0;
  };

  explicit ReportCache(usize capacity) : capacity_(capacity) {}

  /// Null on miss (a miss is counted; pair each get with at most one put).
  std::shared_ptr<const api::RunReport> get(const std::string& key);
  void put(const std::string& key, std::shared_ptr<const api::RunReport> report);

  [[nodiscard]] Stats stats() const;
  void clear();

  /// The cache key (the soundness contract in docs/SERVE.md). It covers
  /// every timing-relevant SimConfig field: core/cluster shape, pipeline
  /// depths and latencies, queue depths, memory latency/bandwidth, branch
  /// penalty, chain-handoff policy, budgets and the host fast-path flags.
  /// Knobs that cannot change a report (trace, max_wall_ms, fault plans)
  /// are deliberately excluded; repeat_index is too, since repeats of one
  /// shape are identical runs.
  static std::string make_key(const scenario::Job& job, api::EngineSel engine);

 private:
  struct Entry {
    std::shared_ptr<const api::RunReport> report;
    std::list<std::string>::iterator lru;
  };
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
  usize capacity_;
  Stats stats_;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});

  /// Run one NDJSON session: read request lines from `in` until EOF or a
  /// shutdown op, stream response lines to `out`. Response order is request
  /// order and, within a request, job order -- but lines are written as
  /// soon as their job completes while later requests are already parsed
  /// and submitted (read-ahead keeps the pool saturated across small
  /// requests). Malformed input never ends the session; every defect maps
  /// to a structured error line. Returns true when a shutdown op ended the
  /// session (false on plain EOF).
  ///
  /// Reentrant: concurrent sessions on one Server share the engine and the
  /// report cache; per-session state is local to this call.
  bool serve(std::istream& in, std::ostream& out);

  [[nodiscard]] ReportCache& report_cache() { return report_cache_; }
  [[nodiscard]] api::Engine& engine() {
    return own_engine_ ? *own_engine_ : api::default_engine();
  }
  [[nodiscard]] const ServerOptions& options() const { return options_; }

  /// {"report": {hits,misses,evictions,entries}} -- the object embedded in
  /// done/stats lines.
  [[nodiscard]] Json cache_stats_json() const;

 private:
  ServerOptions options_;
  std::optional<api::Engine> own_engine_;
  ReportCache report_cache_;
};

/// Serve a TCP listener on 127.0.0.1:`port` (0 picks a free port, published
/// through `bound_port` when non-null, so another thread may poll it). One
/// thread per connection, all sharing `server` (and therefore its report
/// cache). Returns when a connection sends a shutdown op; errors
/// (bind/listen failures) come back as a Status without touching the
/// process.
Status serve_listen(Server& server, u16 port, std::atomic<u16>* bound_port,
                    std::ostream& log);

// --- streaming writer reuse (schsim run --stream) --------------------------

struct StreamOutcome {
  u32 jobs = 0;
  u32 failures = 0;
};

/// Run an expanded scenario emitting the serve-protocol NDJSON lines
/// (report per job, one trailing done line with the rollup) to `out`
/// incrementally -- the `schsim run --stream` path. `options.output_override`
/// is not consulted: the caller owns `out`. Progress goes to `log`.
Result<StreamOutcome> run_scenario_streaming(const scenario::Scenario& scenario,
                                             const scenario::ScenarioRunOptions& options,
                                             std::ostream& out,
                                             std::ostream& log);

// --- line builders (shared by Server, the streaming writer and tests) ------

/// One report response line: {"type":"report","id":..,"seq":k,"of":N,
/// "cached":bool,"report":{row + sizes/sim/repeat echo}}.
Json report_line(const Json& id, usize seq, usize of, bool cached, Json row);
/// RunReport::to_json() plus the job echo (sizes/sim/repeat).
Json report_row(const api::RunReport& report, const scenario::Job& job);
/// {"type":"error","id":..,"error":msg,"failure":{validation,-1,-1,-1}}.
Json error_line(const Json& id, const std::string& message);

} // namespace sch::serve
