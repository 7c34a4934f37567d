#include "harness.hpp"

#include <sys/resource.h>

#include <fstream>
#include <string>

namespace perfbench {

void drive(const Options& options, usize setup_every,
           const std::function<void(usize, bool)>& unit,
           const std::function<void()>& setup_rep) {
  const double start = now_ms();
  for (usize i = 0;; ++i) {
    if (i >= options.min_units && now_ms() - start >= options.seconds * 1000.0) break;
    if (i != 0 && i % setup_every == 0) setup_rep();
    unit(i, options.trace && i % 2 == 1);
  }
}

namespace {

// Every simulated statistic of a report: all of it but the host wall time.
std::string simulation_text(const sch::api::RunReport& r) {
  sch::api::RunReport x = r;
  x.wall_s = 0;
  return x.to_json().dump();
}

}  // namespace

bool same_simulation(const sch::api::RunReport& a, const sch::api::RunReport& b) {
  return simulation_text(a) == simulation_text(b);
}

u64 simulation_digest(const sch::api::RunReport& r) {
  return std::hash<std::string>{}(simulation_text(r));
}

double core_cycles(const sch::api::RunReport& r) {
  double total = 0;
  for (const auto& c : r.cores) total += static_cast<double>(c.cycles);
  return total;
}

double overhead_pct(const Samples& traced, const Samples& untraced) {
  const double base = untraced.p(90);
  return base > 0 ? 100.0 * (traced.p(90) / base - 1.0) : 0.0;
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this program's own address space.
  // getrusage's ru_maxrss is not: Linux carries the pre-exec peak of the
  // process that forked this one (the Python runner) across execve.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

void finish_trace(const Options& options, Tracer& tracer, Outcome& outcome) {
  tracer.finish();
  const std::string problem = tracer.check();
  if (!problem.empty()) outcome.fail("trace: " + problem);
  if (!options.spans_path.empty()) {
    std::ofstream out(options.spans_path);
    tracer.write(out);
    if (!out) outcome.fail("trace: cannot write " + options.spans_path);
  }
  outcome.add("trace.spans", static_cast<double>(tracer.spans().size()), "count");
}

}  // namespace perfbench
