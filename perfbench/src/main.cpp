// perfbench: the repository benchmark's workload runner. One process runs
// one workload, so peak memory and set-up time are per workload.
//
//   perfbench --workload fig3_sweep --seed 7 --seconds 20 --trace 0
//             [--min-units N] [--spans PATH] [--commit SHA] [--dirty 0|1]
//
// Prints a human-readable table, one provenance line, and as its last line
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics (from a run that alternates traced and
// untraced units) with --trace 1. perfbench/run.py builds this binary and
// checks its output against BENCHMARK.json. serve_mixed is not one of
// BENCHMARK.json's workloads (see README.md); run it with this binary.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "scenario/json.hpp"

using namespace perfbench;
using sch::scenario::Json;

namespace {

constexpr const char* kWorkloads[] = {"fig3_sweep", "dma_stream", "fuzz_lockstep",
                                      "serve_mixed"};

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = sizeof(PERFBENCH_SANITIZE) > 1;
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--min-units N] [--spans PATH] [--commit SHA] [--dirty 0|1]\n",
               problem.c_str());
  std::exit(2);
}

u64 parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') usage(flag + " expects a whole number");
  return v;
}

// Every value is printed with all its digits.
std::string number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  bool dirty = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_u64(flag, value));
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--min-units") {
      options.min_units = parse_u64(flag, value);
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--dirty") {
      dirty = value == "1";
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) usage("--seed, --seconds and --trace are required");

  // Numbers from unoptimized or sanitizer builds are never reported.
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 kSanitized ? "sanitizer" : "unoptimized");
    return 3;
  }

  Outcome outcome;
  if (options.workload == kWorkloads[0]) {
    outcome = run_fig3_sweep(options);
  } else if (options.workload == kWorkloads[1]) {
    outcome = run_dma_stream(options);
  } else if (options.workload == kWorkloads[2]) {
    outcome = run_fuzz_lockstep(options);
  } else if (options.workload == kWorkloads[3]) {
    outcome = run_serve_mixed(options);
  } else {
    usage("unknown workload \"" + options.workload + "\"");
  }
  outcome.add("peak_rss_mb", std::max(peak_rss_mb(), outcome.child_peak_rss_mb), "MB");

  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("# %-34s %16s %-10s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : outcome.metrics) {
    std::printf("# %-34s %16.6g %-10s %zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  for (const std::string& f : outcome.failures) std::printf("# FAILED: %s\n", f.c_str());

  Json provenance = Json::object();
  provenance.set("workload", options.workload);
  provenance.set("seed", static_cast<sch::i64>(options.seed));
  provenance.set("commit", commit);
  provenance.set("dirty", dirty);
  provenance.set("compiler", std::string(__VERSION__));
  provenance.set("build_type", PERFBENCH_BUILD_TYPE);
  provenance.set("optimized", kOptimized);
  provenance.set("sanitizer", kSanitized);
  provenance.set("nproc", static_cast<sch::i64>(std::thread::hardware_concurrency()));
  Json samples = Json::object();
  for (const Metric& m : outcome.metrics) samples.set(m.name, static_cast<sch::i64>(m.samples));
  provenance.set("samples", std::move(samples));
  Json line = Json::object();
  line.set("provenance", std::move(provenance));
  std::printf("%s\n", line.dump().c_str());

  // Hand-written so every value keeps all its digits.
  std::string result = "{\"correct\": ";
  result += outcome.failed == 0 ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(outcome.attempted);
  result += ", \"failed\": " + std::to_string(outcome.failed);
  result += ", \"metrics\": {";
  for (usize i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    if (i != 0) result += ", ";
    result += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
              m.unit + "\"}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  return 0;
}
