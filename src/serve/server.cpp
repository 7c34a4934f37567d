#include "serve/server.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

#include "serve/fdstream.hpp"
#include "serve/rollup.hpp"

namespace sch::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Serialization of every timing-relevant SimConfig field (the report-cache
/// key contract; see ReportCache::make_key).
std::string config_fingerprint(const sim::SimConfig& c) {
  std::ostringstream os;
  os << "fpu_depth=" << c.fpu_depth
     << ";fdiv=" << c.fdiv_latency
     << ";fsqrt=" << c.fsqrt_latency
     << ";int_mul=" << c.int_mul_latency
     << ";int_div=" << c.int_div_latency
     << ";fp_queue=" << c.fp_queue_depth
     << ";seq_buffer=" << c.seq_buffer_depth
     << ";load_latency=" << c.load_latency
     << ";mem_latency=" << c.main_mem_latency
     << ";mem_bw=" << c.main_mem_bytes_per_cycle
     << ";dma_queue=" << c.dma_queue_depth
     << ";branch_penalty=" << c.taken_branch_penalty
     << ";strict_handoff=" << (c.strict_chain_handoff ? 1 : 0)
     << ";cores=" << c.num_cores
     << ";banks=" << c.tcdm.num_banks
     << ";bank_word_log2=" << c.tcdm.bank_word_log2
     << ";fast_arb=" << (c.tcdm.fast_arb ? 1 : 0)
     << ";ssr_data_fifo=" << c.ssr.data_fifo_depth
     << ";ssr_idx_queue=" << c.ssr.idx_queue_depth
     << ";ssr_write_fifo=" << c.ssr.write_fifo_depth
     << ";max_cycles=" << c.max_cycles
     << ";deadlock=" << c.deadlock_cycles
     << ";fast_forward=" << (c.fast_forward ? 1 : 0)
     << ";fast_dispatch=" << (c.fast_dispatch ? 1 : 0);
  // Excluded on purpose: trace, max_wall_ms and the fault plan are host
  // observability knobs -- no report field depends on them, and keying on
  // the wall budget would shred hit rates across otherwise-identical
  // requests.
  return os.str();
}

} // namespace

// --- line builders ----------------------------------------------------------

Json report_row(const api::RunReport& report, const scenario::Job& job) {
  Json row = report.to_json();
  row.set("sizes", scenario::sizes_to_json(job.sizes));
  row.set("sim", job.sim_echo.is_object() ? job.sim_echo : Json::object());
  row.set("repeat", static_cast<i64>(job.repeat_index));
  return row;
}

Json report_line(const Json& id, usize seq, usize of, bool cached, Json row) {
  Json line = Json::object();
  line.set("type", "report");
  line.set("id", id);
  line.set("seq", static_cast<i64>(seq));
  line.set("of", static_cast<i64>(of));
  line.set("cached", cached);
  line.set("report", std::move(row));
  return line;
}

Json error_line(const Json& id, const std::string& message) {
  Json line = Json::object();
  line.set("type", "error");
  line.set("id", id);
  line.set("error", message);
  // Reuse the schema-v4 failure taxonomy: every protocol-level defect is a
  // validation failure with no machine location.
  Json failure = Json::object();
  failure.set("kind", api::failure_kind_name(api::FailureKind::kValidation));
  failure.set("hart", static_cast<i64>(-1));
  failure.set("pc", static_cast<i64>(-1));
  failure.set("cycle", static_cast<i64>(-1));
  line.set("failure", std::move(failure));
  return line;
}

// --- ReportCache ------------------------------------------------------------

std::string ReportCache::make_key(const scenario::Job& job,
                                  api::EngineSel engine) {
  std::ostringstream os;
  os << job.kernel->name << '|' << job.variant << '|';
  for (const auto& [name, value] : job.sizes) os << name << '=' << value << ',';
  os << '|' << config_fingerprint(job.config)
     << "|engine=" << api::engine_name(engine)
     << ";verify=" << static_cast<int>(job.verify);
  return os.str();
}

std::shared_ptr<const api::RunReport> ReportCache::get(const std::string& key) {
  if (capacity_ == 0) return nullptr;
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return it->second.report;
}

void ReportCache::put(const std::string& key,
                      std::shared_ptr<const api::RunReport> report) {
  if (capacity_ == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Concurrent duplicate run: keep the first, refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return;
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{std::move(report), lru_.begin()});
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
}

ReportCache::Stats ReportCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.entries = entries_.size();
  return s;
}

void ReportCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
}

// --- Server -----------------------------------------------------------------

Server::Server(ServerOptions options)
    : options_(options), report_cache_(options.report_cache_capacity) {
  if (options_.threads != 0) {
    own_engine_.emplace(api::EngineConfig{.threads = options_.threads});
  }
}

Json Server::cache_stats_json() const {
  const ReportCache::Stats r = report_cache_.stats();
  Json report = Json::object();
  report.set("hits", r.hits);
  report.set("misses", r.misses);
  report.set("evictions", r.evictions);
  report.set("entries", r.entries);
  Json o = Json::object();
  o.set("report", std::move(report));
  return o;
}

namespace {

/// One submitted-or-memoized job inside a run unit.
struct JobItem {
  std::future<api::RunReport> future;             // live run (miss)
  std::shared_ptr<const api::RunReport> ready;    // memoized hit
  scenario::Job job;                              // echo metadata
  std::string cache_key;
};

/// One request's worth of responses, queued in request order. The reader
/// thread produces units (parsing + submitting ahead); the collector thread
/// consumes them strictly FIFO, so the response stream is deterministic --
/// request order, then job order -- while jobs themselves complete on the
/// pool in any order.
struct Unit {
  enum class Kind : u8 { kLines, kRun, kStats, kDrop, kBye };
  Kind kind = Kind::kLines;
  Json id;
  std::vector<Json> lines;    // kLines: pre-rendered responses
  std::vector<JobItem> jobs;  // kRun
  Clock::time_point start{};
};

class Session {
 public:
  Session(Server& server, std::istream& in, std::ostream& out)
      : server_(server), opts_(server.options()), in_(in), out_(out) {}

  bool run() {
    std::thread collector([this] { collect_loop(); });
    read_loop();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_reading_ = true;
    }
    cv_.notify_all();
    collector.join();
    return saw_shutdown_;
  }

 private:
  // --- reader side ---
  void read_loop() {
    std::vector<char> buf(opts_.max_line_bytes + 1);
    while (!saw_shutdown_) {
      in_.getline(buf.data(), static_cast<std::streamsize>(buf.size()));
      const auto got = static_cast<usize>(in_.gcount());
      if (in_.fail() && !in_.eof() && got + 1 >= buf.size()) {
        // Line longer than the configured maximum: structured error, then
        // skip to the next newline so the stream stays usable.
        in_.clear();
        in_.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
        push_lines(Json(), {error_line(Json(), "request line exceeds " +
                                                   std::to_string(opts_.max_line_bytes) +
                                                   " bytes")});
        continue;
      }
      if (in_.fail() && got == 0) break;  // EOF (or unreadable stream)
      handle_line(std::string(buf.data()));
      if (in_.eof()) break;
    }
  }

  void handle_line(std::string line) {
    while (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) return;
    Result<Json> parsed = Json::parse(line);
    if (!parsed.ok()) {
      push_lines(Json(), {error_line(Json(), "bad request: " +
                                                 parsed.status().message())});
      return;
    }
    Json req = std::move(parsed).value();
    if (!req.is_object()) {
      push_lines(Json(), {error_line(Json(), "bad request: line must be a "
                                             "JSON object")});
      return;
    }
    Json id;  // null unless the request carries one
    if (const Json* i = req.get("id")) id = *i;

    std::string op = "run";
    if (const Json* o = req.get("op")) {
      if (!o->is_string()) {
        push_lines(id, {error_line(id, "bad request: \"op\" must be a string")});
        return;
      }
      op = o->as_string();
    }
    if (op == "ping") {
      Json pong = Json::object();
      pong.set("type", "pong");
      pong.set("id", id);
      push_lines(id, {std::move(pong)});
    } else if (op == "stats") {
      push_unit(make_unit(Unit::Kind::kStats, id));
    } else if (op == "drop-caches") {
      push_unit(make_unit(Unit::Kind::kDrop, id));
    } else if (op == "shutdown") {
      push_unit(make_unit(Unit::Kind::kBye, id));
      saw_shutdown_ = true;
    } else if (op == "run") {
      handle_run(req, id);
    } else {
      push_lines(id, {error_line(id, "bad request: unknown op \"" + op + "\"")});
    }
  }

  void handle_run(const Json& req, const Json& id) {
    const auto reject = [&](const std::string& message) {
      push_lines(id, {error_line(id, message)});
    };

    api::EngineSel engine_sel = api::EngineSel::kCycle;
    if (const Json* e = req.get("engine")) {
      if (!e->is_string() || !api::parse_engine(e->as_string(), engine_sel)) {
        return reject("bad request: \"engine\" must be \"iss\", \"cycle\" or "
                      "\"both\"");
      }
    }
    scenario::Scenario sc;
    sc.name = "request";
    if (const Json* v = req.get("verify")) {
      if (!v->is_string() ||
          (v->as_string() != "off" && v->as_string() != "warn" &&
           v->as_string() != "strict")) {
        return reject("bad request: \"verify\" must be \"off\", \"warn\" or "
                      "\"strict\"");
      }
      sc.verify = v->as_string();
    }

    Json base_sim = Json::object();
    if (const Json* s = req.get("sim")) {
      if (!s->is_object()) return reject("bad request: \"sim\" must be an object");
      base_sim = *s;
    }
    u32 default_repeat = 1;
    if (const Json* r = req.get("repeat")) {
      if (!r->is_integer() || r->as_i64() < 1 || r->as_i64() > 1000) {
        return reject("bad request: \"repeat\" must be an integer in 1..1000");
      }
      default_repeat = static_cast<u32>(r->as_i64());
    }

    // Two request shapes (docs/SERVE.md): a batch {"runs": [...]} carrying
    // scenario runs[] entries verbatim, or the single-run shorthand with
    // kernel/variants/sizes inline. Key whitelists are strict, mirroring
    // the scenario parser: a typo is an error, never a silent no-op.
    const Json* runs = req.get("runs");
    if (runs != nullptr) {
      for (const auto& [k, v] : req.members()) {
        (void)v;
        if (k != "op" && k != "id" && k != "engine" && k != "verify" &&
            k != "runs" && k != "sim" && k != "repeat") {
          return reject("bad request: unknown key \"" + k + "\"");
        }
      }
      if (!runs->is_array() || runs->items().empty()) {
        return reject("bad request: \"runs\" must be a non-empty array");
      }
      for (usize i = 0; i < runs->items().size(); ++i) {
        Result<scenario::RunSpec> spec = scenario::parse_run_spec(
            runs->items()[i], i, base_sim, default_repeat);
        if (!spec.ok()) return reject("bad request: " + spec.status().message());
        sc.runs.push_back(std::move(spec).value());
      }
    } else if (req.get("kernel") != nullptr) {
      Json run = Json::object();
      for (const auto& [k, v] : req.members()) {
        if (k == "op" || k == "id" || k == "engine" || k == "verify" ||
            k == "sim" || k == "repeat") {
          continue;  // request-level keys, handled above
        }
        if (k != "kernel" && k != "variants" && k != "sizes") {
          return reject("bad request: unknown key \"" + k + "\"");
        }
        run.set(k, v);
      }
      Result<scenario::RunSpec> spec =
          scenario::parse_run_spec(run, 0, base_sim, default_repeat);
      if (!spec.ok()) return reject("bad request: " + spec.status().message());
      sc.runs.push_back(std::move(spec).value());
    } else {
      return reject("bad request: a run names a workload via \"kernel\" or "
                    "\"runs\"");
    }

    Result<std::vector<scenario::Job>> expanded = scenario::expand(sc);
    if (!expanded.ok()) {
      return reject("bad request: " + expanded.status().message());
    }
    std::vector<scenario::Job> jobs = std::move(expanded).value();
    if (jobs.size() > opts_.max_jobs_per_request) {
      return reject("bad request: expands to " + std::to_string(jobs.size()) +
                    " jobs (limit " + std::to_string(opts_.max_jobs_per_request) +
                    "; split the sweep)");
    }

    auto unit = make_unit(Unit::Kind::kRun, id);
    unit->jobs.reserve(jobs.size());
    for (scenario::Job& job : jobs) {
      JobItem item;
      item.cache_key = ReportCache::make_key(job, engine_sel);
      item.ready = server_.report_cache().get(item.cache_key);
      if (item.ready == nullptr) {
        acquire_inflight_slot();
        item.future =
            server_.engine().submit(scenario::to_request(job, engine_sel));
      }
      item.job = std::move(job);
      unit->jobs.push_back(std::move(item));
    }
    push_unit(std::move(unit));
  }

  // --- unit plumbing ---
  std::unique_ptr<Unit> make_unit(Unit::Kind kind, Json id) {
    auto unit = std::make_unique<Unit>();
    unit->kind = kind;
    unit->id = std::move(id);
    unit->start = Clock::now();
    return unit;
  }

  void push_lines(Json id, std::vector<Json> lines) {
    auto unit = make_unit(Unit::Kind::kLines, std::move(id));
    unit->lines = std::move(lines);
    push_unit(std::move(unit));
  }

  void push_unit(std::unique_ptr<Unit> unit) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(unit));
    }
    cv_.notify_all();
  }

  /// One slot per live (non-memoized) job, taken before submission and
  /// released by the collector after the report is consumed -- the reader's
  /// read-ahead can never hold more than max_inflight_jobs pending runs.
  void acquire_inflight_slot() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return inflight_ < opts_.max_inflight_jobs; });
    ++inflight_;
  }

  // --- collector side ---
  void collect_loop() {
    for (;;) {
      std::unique_ptr<Unit> unit;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return !queue_.empty() || done_reading_; });
        if (queue_.empty()) return;
        unit = std::move(queue_.front());
        queue_.pop_front();
      }
      collect(*unit);
    }
  }

  void collect(Unit& unit) {
    switch (unit.kind) {
      case Unit::Kind::kLines:
        for (const Json& line : unit.lines) emit(line);
        return;
      case Unit::Kind::kStats: {
        Json line = Json::object();
        line.set("type", "stats");
        line.set("id", unit.id);
        line.set("cache", server_.cache_stats_json());
        Json served = Json::object();
        served.set("requests", requests_);
        served.set("jobs", jobs_);
        served.set("failures", failures_);
        line.set("served", std::move(served));
        emit(line);
        return;
      }
      case Unit::Kind::kDrop: {
        server_.report_cache().clear();
        Json line = Json::object();
        line.set("type", "dropped");
        line.set("id", unit.id);
        emit(line);
        return;
      }
      case Unit::Kind::kBye: {
        Json line = Json::object();
        line.set("type", "bye");
        line.set("id", unit.id);
        emit(line);
        return;
      }
      case Unit::Kind::kRun:
        break;
    }

    Rollup rollup;
    const usize n = unit.jobs.size();
    for (usize k = 0; k < n; ++k) {
      JobItem& item = unit.jobs[k];
      std::shared_ptr<const api::RunReport> report;
      const bool cached = item.ready != nullptr;
      if (cached) {
        report = item.ready;
      } else {
        report = std::make_shared<const api::RunReport>(item.future.get());
        server_.report_cache().put(item.cache_key, report);
        release_inflight_slot();
      }
      rollup.add(*report);
      emit(report_line(unit.id, k, n, cached, report_row(*report, item.job)));
    }
    ++requests_;
    jobs_ += n;
    failures_ += rollup.failures();

    Json done = Json::object();
    done.set("type", "done");
    done.set("id", unit.id);
    done.set("jobs", static_cast<i64>(n));
    done.set("failures", static_cast<i64>(rollup.failures()));
    done.set("rollup", rollup.to_json());
    done.set("cache", server_.cache_stats_json());
    done.set("wall_s",
             std::chrono::duration<double>(Clock::now() - unit.start).count());
    emit(done);
  }

  void release_inflight_slot() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --inflight_;
    }
    cv_.notify_all();
  }

  void emit(const Json& line) { out_ << line.dump() << "\n" << std::flush; }

  Server& server_;
  const ServerOptions& opts_;
  std::istream& in_;
  std::ostream& out_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Unit>> queue_;
  usize inflight_ = 0;
  bool done_reading_ = false;
  bool saw_shutdown_ = false;

  // Session-served tallies (reported by the stats op).
  u64 requests_ = 0;
  u64 jobs_ = 0;
  u64 failures_ = 0;
};

} // namespace

bool Server::serve(std::istream& in, std::ostream& out) {
  Session session(*this, in, out);
  return session.run();
}

// --- schsim run --stream ----------------------------------------------------

Result<StreamOutcome> run_scenario_streaming(const scenario::Scenario& scenario,
                                             const scenario::ScenarioRunOptions& options,
                                             std::ostream& out,
                                             std::ostream& log) {
  Result<std::vector<scenario::Job>> expanded = scenario::expand(scenario);
  if (!expanded.ok()) return expanded.status();
  std::vector<scenario::Job> jobs = std::move(expanded).value();
  scenario::apply_overrides(options, jobs);

  std::optional<api::Engine> own_engine;
  if (options.threads != 0) {
    own_engine.emplace(api::EngineConfig{.threads = options.threads});
  }
  api::Engine& engine = own_engine ? *own_engine : api::default_engine();

  const auto t0 = Clock::now();
  std::vector<std::future<api::RunReport>> futures;
  futures.reserve(jobs.size());
  for (const scenario::Job& job : jobs) {
    futures.push_back(engine.submit(scenario::to_request(job, options.engine)));
  }

  log << "scenario '" << scenario.name << "': streaming " << jobs.size()
      << " jobs (engine: " << api::engine_name(options.engine) << ")\n";

  const Json id = Json(scenario.name);
  Rollup rollup;
  StreamOutcome outcome;
  outcome.jobs = static_cast<u32>(jobs.size());
  for (usize k = 0; k < jobs.size(); ++k) {
    const api::RunReport report = futures[k].get();
    rollup.add(report);
    if (!report.ok) ++outcome.failures;
    out << report_line(id, k, jobs.size(), false, report_row(report, jobs[k]))
               .dump()
        << "\n"
        << std::flush;
  }

  Json done = Json::object();
  done.set("type", "done");
  done.set("id", id);
  done.set("jobs", static_cast<i64>(jobs.size()));
  done.set("failures", static_cast<i64>(outcome.failures));
  done.set("rollup", rollup.to_json());
  done.set("wall_s", std::chrono::duration<double>(Clock::now() - t0).count());
  out << done.dump() << "\n" << std::flush;
  log << "streamed " << jobs.size() << " reports (" << outcome.failures
      << " failures)\n";
  return outcome;
}

// --- TCP listener -----------------------------------------------------------

#if defined(SCH_SERVE_HAVE_FDSTREAM)

} // namespace sch::serve

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

namespace sch::serve {

Status serve_listen(Server& server, u16 port, std::atomic<u16>* bound_port,
                    std::ostream& log) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) return Status::error("serve: socket() failed");
  int one = 1;
  ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(lfd);
    return Status::error("serve: cannot bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(lfd, 16) != 0) {
    ::close(lfd);
    return Status::error("serve: listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len);
  const u16 actual = ntohs(addr.sin_port);
  if (bound_port != nullptr) bound_port->store(actual);
  log << "serve: listening on 127.0.0.1:" << actual << "\n" << std::flush;

  std::atomic<bool> stop{false};
  std::vector<std::thread> sessions;
  for (;;) {
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR && !stop.load()) continue;
      break;  // listener shut down (or a fatal accept error)
    }
    // Responses go out as several small line writes; with Nagle's algorithm
    // each waits for the client's (delayed) ACK of the previous one, which
    // costs a default client about 40 ms per multi-line response.
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sessions.emplace_back([&server, &stop, lfd, cfd] {
      FdStreamBuf ibuf(cfd, false);
      FdStreamBuf obuf(cfd, false);
      std::istream in(&ibuf);
      std::ostream out(&obuf);
      const bool shutdown_requested = server.serve(in, out);
      out.flush();
      ::close(cfd);
      if (shutdown_requested && !stop.exchange(true)) {
        ::shutdown(lfd, SHUT_RDWR);  // unblocks the accept loop
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  ::close(lfd);
  return Status::ok();
}

#else // !SCH_SERVE_HAVE_FDSTREAM

Status serve_listen(Server&, u16, std::atomic<u16>*, std::ostream&) {
  return Status::error("serve: TCP listener is unavailable on this platform "
                       "(stdin/stdout sessions still work)");
}

#endif

} // namespace sch::serve
