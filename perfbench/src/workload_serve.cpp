// serve_mixed: `schsim serve` as the repository's sweep clients use it. A
// serve::Server with a 2-worker engine pool runs in this process behind
// serve_listen on 127.0.0.1; one client thread on one TCP connection runs a
// closed loop (the next request goes out when the previous one's done line
// is back). Each batch request spreads its jobs over both workers. With a
// second client, the two workers, the server's per-connection reader and
// writer threads and the clients outnumbered the 4 host CPUs: every request
// class got slower and the run-to-run spread of the throughput doubled.
//
// The request shapes are the repository's own sweeps: each request sends
// one scenario of examples/scenarios/ (cluster_sweep, dbuf_sweep,
// depth_sweep, smoke) whole, as one batch {"runs": [...]}, and is answered
// with one report line per job (9 to 18). No recorded serve traffic exists,
// so the mix around those shapes is an assumption:
//   * hit       (75%): a request this client sent among its last 64
//                      -> every job a report-cache hit;
//   * build_hit (10%): one of the client's last 6 cold requests under
//                      another engine or verify policy -> report misses,
//                      build-cache hits;
//   * cold      (15%): a sweep under a request-level "sim" override this
//                      client never sent (a point of a microarchitecture
//                      space no example run sets) -> both caches miss.
// Each client first sends kWarmup untimed requests, which warm the report
// cache (4096 reports) and the build cache, so the timed windows see the
// caches' steady state and the process reaches its working-set size after
// a fixed amount of work rather than a fixed time. A unit is a window of
// kWindow requests of one client; its time is the sum of their latencies,
// which leaves out the client's own checks between requests.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "api/engine.hpp"
#include "fuzz/fuzz.hpp"
#include "harness.hpp"
#include "scenario/scenario.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using namespace sch;
using scenario::Json;

constexpr u32 kClients = 1;
constexpr u32 kWarmup = 500;      // untimed requests per client
constexpr u32 kWindow = 20;       // requests per timed unit
constexpr usize kRecentKeys = 64;  // requests a hit draws from
constexpr usize kRecentCold = 6;   // cold requests a build hit draws from

// --- the sweeps the clients replay ------------------------------------------

constexpr std::array<const char*, 4> kSweepNames = {"cluster_sweep", "dbuf_sweep",
                                                    "depth_sweep", "smoke"};

struct Sweep {
  Json runs;    // the scenario's runs[]
  Json sim;     // its top-level "sim" (an object, possibly empty)
  Json repeat;  // its top-level "repeat", or null
  u64 jobs = 0;  // report lines one request of it returns
};

u64 count_of(const Json* v, u64 fallback) {
  return v != nullptr && v->is_integer() ? static_cast<u64>(v->as_i64()) : fallback;
}

std::vector<Sweep> load_sweeps() {
  std::vector<Sweep> sweeps;
  for (const char* name : kSweepNames) {
    const std::string path = std::string(PERFBENCH_SCENARIO_DIR) + "/" + name + ".json";
    std::ifstream file(path);
    if (!file) throw std::runtime_error("cannot open " + path);
    std::stringstream text;
    text << file.rdbuf();
    Result<Json> doc = Json::parse(text.str());
    if (!doc.ok()) throw std::runtime_error(path + ": " + doc.status().message());
    const Json* runs = doc.value().get("runs");
    if (runs == nullptr || !runs->is_array()) throw std::runtime_error(path + ": no runs[]");
    Sweep sweep;
    sweep.runs = *runs;
    const Json* sim = doc.value().get("sim");
    sweep.sim = sim != nullptr ? *sim : Json::object();
    if (const Json* r = doc.value().get("repeat")) sweep.repeat = *r;
    const u64 repeat = count_of(doc.value().get("repeat"), 1);
    for (const Json& run : runs->items()) {
      const Json* variants = run.get("variants");
      const Json* sizes = run.get("sizes");
      sweep.jobs += (variants != nullptr ? variants->items().size() : 0) *
                    (sizes != nullptr ? sizes->items().size() : 0) *
                    count_of(run.get("repeat"), repeat);
    }
    sweeps.push_back(std::move(sweep));
  }
  return sweeps;
}

// The request-level "sim" overrides of cold requests: knobs no example run
// sets, so they apply to every run of a sweep.
constexpr std::array<u32, 3> kLoadLatency = {1, 2, 3};
constexpr std::array<u32, 3> kBranchPenalty = {0, 1, 2};
constexpr std::array<u32, 3> kMulLatency = {1, 2, 3};
constexpr std::array<u32, 3> kDivLatency = {10, 20, 30};
constexpr std::array<u32, 4> kFdivLatency = {8, 11, 14, 17};
constexpr std::array<u32, 3> kBanks = {16, 32, 64};
constexpr u32 kOverrides = 3 * 3 * 3 * 3 * 4 * 3;

// (engine, verify) of a request; combo 0 is the cold default.
constexpr std::array<std::pair<const char*, const char*>, 7> kCombos = {{
    {"cycle", "off"}, {"cycle", "warn"}, {"cycle", "strict"}, {"iss", "off"},
    {"iss", "warn"}, {"both", "off"}, {"both", "strict"}}};

enum Class : u8 { kHit, kBuildHit, kCold, kClasses };

// A shape is a sweep under one point of the override space.
std::string request_line(const std::vector<Sweep>& sweeps, u64 id, u32 shape, u32 combo) {
  const Sweep& sweep = sweeps[shape / kOverrides];
  u32 rest = shape % kOverrides;
  const auto take = [&rest](u32 n) {
    const u32 v = rest % n;
    rest /= n;
    return v;
  };
  Json sim = sweep.sim;
  sim.set("load_latency", static_cast<i64>(kLoadLatency[take(3)]));
  sim.set("taken_branch_penalty", static_cast<i64>(kBranchPenalty[take(3)]));
  sim.set("int_mul_latency", static_cast<i64>(kMulLatency[take(3)]));
  sim.set("int_div_latency", static_cast<i64>(kDivLatency[take(3)]));
  sim.set("fdiv_latency", static_cast<i64>(kFdivLatency[take(4)]));
  sim.set("tcdm_banks", static_cast<i64>(kBanks[take(3)]));
  Json req = Json::object();
  req.set("id", static_cast<i64>(id));
  req.set("runs", sweep.runs);
  req.set("sim", std::move(sim));
  if (!sweep.repeat.is_null()) req.set("repeat", sweep.repeat);
  req.set("engine", kCombos[combo].first);
  req.set("verify", kCombos[combo].second);
  return req.dump();
}

// A report with its host wall time left out: what a repeat must reproduce.
u64 report_digest(const Json& report) {
  Json kept = Json::object();
  for (const auto& [key, value] : report.members()) {
    if (key != "wall_s") kept.set(key, value);
  }
  return std::hash<std::string>{}(kept.dump());
}

// --- transport ---------------------------------------------------------------

// Blocking line-oriented TCP client.
class LineConn {
 public:
  explicit LineConn(u16 port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to 127.0.0.1:" + std::to_string(port));
    }
  }
  ~LineConn() { ::close(fd_); }
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  void send(const std::string& line) {
    const std::string data = line + "\n";
    usize off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send() failed");
      off += static_cast<usize>(n);
    }
  }

  std::string read_line() {
    for (;;) {
      const usize nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("connection closed by the server");
      buf_.append(chunk, static_cast<usize>(n));
      // Acknowledge at once. The server sends a response's lines as small
      // segments without TCP_NODELAY, so Nagle holds each one back until
      // the previous is acknowledged; with the kernel's delayed ACK every
      // request would wait about 40 ms for a timer instead of the server.
      // Linux clears the flag after use, hence after every read.
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
    }
  }

  /// Send one request and read its response lines up to the done line.
  std::vector<Json> exchange(const std::string& line) {
    send(line);
    std::vector<Json> out;
    for (;;) {
      Result<Json> parsed = Json::parse(read_line());
      if (!parsed.ok()) throw std::runtime_error("unparseable response line");
      out.push_back(std::move(parsed).value());
      const Json* type = out.back().get("type");
      const std::string t = type != nullptr && type->is_string() ? type->as_string() : "";
      if (t != "report") return out;  // done, pong, stats, bye or error
    }
  }

 private:
  int fd_;
  std::string buf_;
};

// Captures serve_listen's log to learn the port it bound.
class PortLog : public std::streambuf {
 public:
  u16 wait_port() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return port_ != 0 || done_; });
    return port_;
  }
  void finished() {
    const std::lock_guard<std::mutex> lock(mutex_);
    done_ = true;
    cv_.notify_all();
  }

 protected:
  int_type overflow(int_type ch) override {
    if (ch == traits_type::eof()) return traits_type::not_eof(ch);
    const std::lock_guard<std::mutex> lock(mutex_);
    text_.push_back(static_cast<char>(ch));
    const usize colon = text_.rfind("127.0.0.1:");
    if (ch == '\n' && colon != std::string::npos && port_ == 0) {
      port_ = static_cast<u16>(std::stoul(text_.substr(colon + 10)));
      cv_.notify_all();
    }
    return ch;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::string text_;
  u16 port_ = 0;
  bool done_ = false;
};

// A serve::Server behind serve_listen on its own thread.
class Daemon {
 public:
  Daemon() : server_(serve::ServerOptions{.threads = 2}), log_stream_(&log_) {
    listener_ = std::thread([this] {
      // A failed bind or listen returns at once; wait_port() then yields 0.
      (void)serve::serve_listen(server_, 0, nullptr, log_stream_);
      log_.finished();
    });
    port_ = log_.wait_port();
  }
  ~Daemon() {
    if (port_ != 0) {
      try {
        LineConn conn(port_);
        conn.exchange("{\"op\":\"shutdown\"}");
      } catch (const std::exception&) {
        // The listener is already gone; join below either way.
      }
    }
    listener_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// 0 when the listener failed to start.
  [[nodiscard]] u16 port() const { return port_; }

 private:
  serve::Server server_;
  PortLog log_;
  std::ostream log_stream_;
  u16 port_ = 0;
  std::thread listener_;  // declared last: it uses every member above
};

// Server start until the first ping is answered.
double start_and_ping(std::unique_ptr<Daemon>& daemon) {
  const double t0 = now_ms();
  daemon = std::make_unique<Daemon>();
  if (daemon->port() == 0) throw std::runtime_error("serve_listen failed to start");
  LineConn conn(daemon->port());
  const std::vector<Json> reply = conn.exchange("{\"op\":\"ping\"}");
  if (reply.back().get("type") == nullptr || reply.back().get("type")->as_string() != "pong") {
    throw std::runtime_error("ping was not answered with pong");
  }
  return (now_ms() - t0) / 1000.0;
}

// --- clients -----------------------------------------------------------------

struct ClientResult {
  Outcome counts;        // attempted / failed requests
  Samples window_ms[2];  // [untraced, traced]
  Samples rate_per_s;    // report lines per second of each untraced window
  Samples latency_ms;    // untraced requests
  Samples class_ms[kClasses];
  Samples parse_ms;
  Samples to_json_ms;
  u64 expected_hits = 0;
  u64 cached_hits = 0;
};

class Client {
 public:
  Client(u32 index, u64 seed, u16 port, const std::vector<Sweep>& sweeps)
      : index_(index), sweeps_(sweeps), shapes_(static_cast<u32>(sweeps.size()) * kOverrides),
        rng_(fuzz::mix_seed(seed, index)), conn_(port) {}

  void run(const Options& options, std::atomic<bool>& abort, Tracer& tracer,
           const api::RunReport& sample_report, ClientResult& res) {
    for (u32 r = 0; r < kWarmup && !abort.load(); ++r) {
      const Draw d = draw();
      try {
        check(conn_.exchange(request_line(sweeps_, next_id_++, d.shape, d.combo)), d, res);
      } catch (const std::exception& e) {
        res.counts.fail(std::string("serve: ") + e.what());
        abort.store(true);
        return;
      }
      remember(d.shape, d.combo);
    }
    const double deadline_ms = now_ms() + options.seconds * 1000.0;
    const usize min_windows = (options.min_units + kClients - 1) / kClients;
    std::vector<std::string> lines;  // of the current window
    for (usize w = 0; !abort.load(); ++w) {
      if (w >= min_windows && now_ms() >= deadline_ms) break;
      const bool traced = options.trace && w % 2 == 1;
      Tracer* t = traced ? &tracer : nullptr;
      lines.clear();
      u64 reports = 0;
      double window_ms = 0;
      for (u32 r = 0; r < kWindow; ++r) {
        const Draw d = draw();
        lines.push_back(request_line(sweeps_, next_id_++, d.shape, d.combo));
        const double r0 = now_ms();
        std::vector<Json> reply;
        {
          const Tracer::Scope span(t, "serve.request");
          try {
            reply = conn_.exchange(lines.back());
          } catch (const std::exception& e) {
            res.counts.fail(std::string("serve: ") + e.what());
            abort.store(true);
            return;
          }
        }
        const double ms = now_ms() - r0;
        window_ms += ms;
        if (!traced) {
          res.latency_ms.add(ms);
          res.class_ms[d.cls].add(ms);
        }
        reports += check(reply, d, res);
        remember(d.shape, d.combo);
      }
      res.window_ms[traced].add(window_ms);
      if (!traced) {
        res.rate_per_s.add(static_cast<double>(reports) * 1000.0 / window_ms);
        continue;
      }
      // Layer calls the serve path makes for every request, timed from here
      // outside the window: the request's parse into run specs and a
      // report's serialization.
      for (const std::string& line : lines) {
        {
          const Tracer::Scope span(t, "scenario.parse");
          const double p0 = now_ms();
          const Result<Json> req = Json::parse(line);
          std::string problem = req.ok() ? "" : req.status().message();
          if (req.ok()) {
            const Json& sim = *req.value().get("sim");
            const Json& runs = *req.value().get("runs");
            for (usize i = 0; i < runs.items().size() && problem.empty(); ++i) {
              const Result<scenario::RunSpec> spec =
                  scenario::parse_run_spec(runs.items()[i], i, sim, 1);
              if (!spec.ok()) problem = spec.status().message();
            }
          }
          res.parse_ms.add(now_ms() - p0);
          if (!problem.empty()) res.counts.fail("scenario: " + problem);
        }
        {
          const Tracer::Scope span(t, "api.to_json");
          const double j0 = now_ms();
          const std::string text = sample_report.to_json().dump();
          res.to_json_ms.add(now_ms() - j0);
          if (text.empty()) res.counts.fail("api: empty report serialization");
        }
      }
    }
  }

 private:
  struct Draw {
    Class cls;
    u32 shape;
    u32 combo;
  };
  struct Recent {
    u32 shape;
    u32 unused;  // bit c set = combo c not yet sent for this shape
  };

  [[nodiscard]] u64 key(u32 shape, u32 combo) const {
    return static_cast<u64>(shape) * kCombos.size() + combo;
  }

  Draw draw() {
    const u32 roll = rng_.range(1, 100);
    if (roll <= 75 && !recent_keys_.empty()) {
      const auto& [shape, combo] =
          recent_keys_[rng_.range(0, static_cast<u32>(recent_keys_.size()) - 1)];
      return {kHit, shape, combo};
    }
    if (roll <= 85) {
      for (u32 tries = 0; tries < 4 && !recent_cold_.empty(); ++tries) {
        Recent& r = recent_cold_[rng_.range(0, static_cast<u32>(recent_cold_.size()) - 1)];
        if (r.unused == 0) continue;
        u32 combo = 0;
        do {
          combo = rng_.range(1, static_cast<u32>(kCombos.size()) - 1);
        } while ((r.unused & (1u << combo)) == 0);
        r.unused &= ~(1u << combo);
        return {kBuildHit, r.shape, combo};
      }
    }
    // Cold: a shape of this client's share of the space never sent before.
    // Each client draws from its own share, so no client turns another's
    // cold requests into hits. Past half of that share, rejection sampling
    // slows down, so further cold draws repeat a hit instead.
    if (sent_.size() >= shapes_ / kClients / 2 && !recent_keys_.empty()) {
      const auto& [shape, combo] = recent_keys_.front();
      return {kHit, shape, combo};
    }
    u32 shape = 0;
    do {
      shape = rng_.range(0, shapes_ - 1);
    } while (shape % kClients != index_ || !sent_.insert(shape).second);
    u32 all = 0;
    for (u32 c = 1; c < kCombos.size(); ++c) all |= 1u << c;
    recent_cold_.push_back({shape, all});
    if (recent_cold_.size() > kRecentCold) recent_cold_.pop_front();
    return {kCold, shape, 0};
  }

  void remember(u32 shape, u32 combo) {
    recent_keys_.emplace_back(shape, combo);
    if (recent_keys_.size() > kRecentKeys) recent_keys_.pop_front();
  }

  // Checks one response and returns its report count. Every report must be
  // ok and the done line clean with one report per job of the sweep; a
  // repeated request must reproduce its first answer report for report.
  u64 check(const std::vector<Json>& reply, const Draw& d, ClientResult& res) {
    ++res.counts.attempted;
    const u64 jobs = sweeps_[d.shape / kOverrides].jobs;
    std::vector<u64> digests;
    for (const Json& line : reply) {
      const std::string type = line.get("type") != nullptr ? line.get("type")->as_string() : "";
      if (type == "report") {
        const Json* report = line.get("report");
        const Json* ok = report != nullptr ? report->get("ok") : nullptr;
        if (ok == nullptr || !ok->as_bool()) {
          res.counts.fail("serve: a report line is not ok: " + line.dump());
          return digests.size();
        }
        digests.push_back(report_digest(*report));
        if (d.cls == kHit) {
          ++res.expected_hits;
          const Json* cached = line.get("cached");
          if (cached != nullptr && cached->as_bool()) ++res.cached_hits;
        }
      } else if (type == "done") {
        const u64 n = digests.size();
        const Json* failures = line.get("failures");
        if (failures == nullptr || failures->as_i64() != 0 || n != jobs ||
            count_of(line.get("jobs"), 0) != jobs) {
          res.counts.fail("serve: expected " + std::to_string(jobs) + " clean reports, got " +
                          std::to_string(n) + " and done line " + line.dump());
          return n;
        }
        const auto [first, fresh] = first_.try_emplace(key(d.shape, d.combo), digests);
        if (!fresh && first->second != digests) {
          res.counts.fail("serve: a repeated request's reports differ from its first answer");
        }
        return n;
      } else {
        res.counts.fail("serve: " + line.dump());
        return digests.size();
      }
    }
    res.counts.fail("serve: response ended without a done line");
    return digests.size();
  }

  u32 index_;
  const std::vector<Sweep>& sweeps_;
  u32 shapes_;
  fuzz::Rng rng_;
  LineConn conn_;
  u64 next_id_ = 1;
  std::unordered_set<u32> sent_;
  std::deque<Recent> recent_cold_;
  std::deque<std::pair<u32, u32>> recent_keys_;
  std::unordered_map<u64, std::vector<u64>> first_;  // key -> report digests
};

double counter(const Json& stats, const char* cache, const char* field) {
  const Json* c = stats.get("cache");
  const Json* k = c != nullptr ? c->get(cache) : nullptr;
  const Json* f = k != nullptr ? k->get(field) : nullptr;
  return f != nullptr ? f->as_number() : 0.0;
}

}  // namespace

Outcome run_serve_mixed(const Options& options) {
  Outcome out;
  Tracer tracer;
  Samples setup_s;
  std::unique_ptr<Daemon> daemon;
  try {
    setup_s.add(start_and_ping(daemon));
  } catch (const std::exception& e) {
    out.fail(std::string("serve: ") + e.what());
    return out;
  }
  // A representative report whose serialization the traced run times.
  const api::RunReport sample_report = api::Engine(api::EngineConfig{.threads = 1})
                                          .run(api::RunRequest::for_kernel("vecop", "chained"));

  std::vector<Sweep> sweeps;
  std::vector<std::unique_ptr<Client>> clients;
  try {
    sweeps = load_sweeps();
    for (u32 c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<Client>(c, options.seed, daemon->port(), sweeps));
    }
  } catch (const std::exception& e) {
    out.fail(std::string("serve: ") + e.what());
    return out;
  }
  std::array<ClientResult, kClients> results;
  std::atomic<bool> abort{false};
  std::atomic<u32> running{kClients};
  std::vector<std::thread> threads;
  for (u32 c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      clients[c]->run(options, abort, tracer, sample_report, results[c]);
      --running;
    });
  }
  // Set-up repetitions on throwaway daemons while the clients run.
  while (running.load() != 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kSetupIntervalS));
    if (running.load() == 0) break;
    try {
      std::unique_ptr<Daemon> spare;
      setup_s.add(start_and_ping(spare));
    } catch (const std::exception& e) {
      out.fail(std::string("serve set-up: ") + e.what());
    }
  }
  for (std::thread& t : threads) t.join();
  clients.clear();  // close the client connections

  Json stats;
  try {
    LineConn conn(daemon->port());
    stats = conn.exchange("{\"op\":\"stats\"}").back();
  } catch (const std::exception& e) {
    out.fail(std::string("serve stats: ") + e.what());
  }
  daemon.reset();

  ClientResult all;
  for (const ClientResult& r : results) {
    out.merge_counts(r.counts);
    for (int i = 0; i < 2; ++i) all.window_ms[i].merge(r.window_ms[i]);
    all.rate_per_s.merge(r.rate_per_s);
    all.latency_ms.merge(r.latency_ms);
    for (int c = 0; c < kClasses; ++c) all.class_ms[c].merge(r.class_ms[c]);
    all.parse_ms.merge(r.parse_ms);
    all.to_json_ms.merge(r.to_json_ms);
    all.expected_hits += r.expected_hits;
    all.cached_hits += r.cached_hits;
  }
  const Samples& windows = all.window_ms[0];
  // A window's work varies with the sweeps drawn, so the estimator is the
  // per-window report rate at its 10th percentile (the p90 unit time for a
  // fixed amount of work), times the clients running side by side.
  const double reports_per_s = kClients * all.rate_per_s.p(10);

  if (!options.trace) {
    out.add("setup_s", setup_s.p(50), "s", setup_s.size());
    out.add("units_per_s", reports_per_s, "1/s", all.rate_per_s.size());
    out.add("call_p90_ms", all.latency_ms.p(90), "ms", all.latency_ms.size());
    return out;
  }

  out.add("unit_ms.p50", windows.p(50), "ms", windows.size());
  out.add("unit_ms.p90", windows.p(90), "ms", windows.size());
  out.add("reports_per_s", reports_per_s, "1/s", all.rate_per_s.size());
  out.add("req_p50_ms", all.latency_ms.p(50), "ms", all.latency_ms.size());
  out.add("req_p99_ms", all.latency_ms.p(99), "ms", all.latency_ms.size());
  out.add("serve.hit_ms.p50", all.class_ms[kHit].p(50), "ms", all.class_ms[kHit].size());
  out.add("serve.hit_ms.p90", all.class_ms[kHit].p(90), "ms", all.class_ms[kHit].size());
  out.add("serve.cold_ms.p50", all.class_ms[kCold].p(50), "ms", all.class_ms[kCold].size());
  out.add("serve.cold_ms.p90", all.class_ms[kCold].p(90), "ms", all.class_ms[kCold].size());
  out.add("serve.build_hit_ms.p50", all.class_ms[kBuildHit].p(50), "ms",
          all.class_ms[kBuildHit].size());
  const double rh = counter(stats, "report", "hits");
  const double rm = counter(stats, "report", "misses");
  const double bh = counter(stats, "build", "hits");
  const double bm = counter(stats, "build", "misses");
  out.add("serve.report_hit_ratio", rh + rm > 0 ? rh / (rh + rm) : 0.0, "frac");
  out.add("api.build_hit_ratio", bh + bm > 0 ? bh / (bh + bm) : 0.0, "frac");
  out.add("serve.expected_hit_cached_frac",
          all.expected_hits > 0
              ? static_cast<double>(all.cached_hits) / static_cast<double>(all.expected_hits)
              : 0.0,
          "frac");
  out.add("scenario.parse_us", all.parse_ms.p(50) * 1000.0, "us", all.parse_ms.size());
  out.add("api.to_json_us", all.to_json_ms.p(50) * 1000.0, "us", all.to_json_ms.size());
  out.add("trace.overhead_pct", overhead_pct(all.window_ms[1], all.window_ms[0]), "%",
          all.window_ms[1].size());
  finish_trace(options, tracer, out);
  return out;
}

}  // namespace perfbench
