// fuzz_lockstep: a differential-fuzz campaign's per-program path. Each unit
// draws a seeded program (1-4 harts over every ISA area) and runs it through
// fuzz::generate_spec, fuzz::materialize, verify::analyze and Engine::run in
// lockstep mode (kBoth) with the full-memory compare -- the per-run fixed
// costs the kernel workloads never pay. Units cycle through a pool of
// programs drawn from the seed, so every program runs several times and a
// repeat must reproduce its first run exactly.
//
// A campaign's speed depends on the state glibc's heap settles in during
// its first few dozen programs: whether the runs' multi-MiB memory images
// come back from the heap or page-faulted from the OS. That state differs
// from seed to seed and moves a campaign's throughput by up to 1.5x. So the
// untraced run is kCampaigns short campaigns, each in a fresh process with
// its own seed drawn from the run's seed, and its figures pool their
// units. The traced run is one campaign in this process.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "api/engine.hpp"
#include "fuzz/fuzz.hpp"
#include "harness.hpp"
#include "verify/verify.hpp"

namespace perfbench {

namespace {

using namespace sch;

constexpr u32 kPoolSize = 256;
constexpr u32 kCampaigns = 12;  // fresh processes of one untraced run

// The request fuzz::run_spec builds for a campaign run.
api::RunRequest lockstep_request(std::vector<Program> programs, api::EngineSel engine,
                                 bool compare_memory) {
  const fuzz::FuzzOptions budgets;
  api::RunRequest req = api::RunRequest::for_programs(std::move(programs), "fuzz", engine);
  req.lockstep_compare_memory = compare_memory;
  req.config.max_cycles = budgets.max_cycles;
  req.config.deadlock_cycles = budgets.deadlock_cycles;
  req.config.max_wall_ms = budgets.max_wall_ms;
  return req;
}

// What one campaign measured.
struct Campaign {
  Outcome counts;
  Samples unit_ms[2];  // [untraced, traced]
  Samples setup_s;
  u64 error_findings = 0;
  u64 incomplete = 0;
  u64 analyses = 0;
};

Campaign run_campaign(const Options& options, Tracer& tracer) {
  Campaign c;
  Outcome& out = c.counts;
  Samples* const unit_ms = c.unit_ms;
  std::optional<api::Engine> engine;

  // Set-up: the engine, the campaign's per-run seeds, and a pre-flight that
  // draws and builds every pool program once.
  Samples& setup_s = c.setup_s;
  std::vector<u64> seeds;
  const auto setup = [&] {
    const double t0 = now_ms();
    engine.emplace(api::EngineConfig{.threads = 1});
    seeds.clear();
    usize instrs = 0;
    for (u32 i = 0; i < kPoolSize; ++i) {
      seeds.push_back(fuzz::run_seed(options.seed, i));
      for (const Program& p : fuzz::materialize(fuzz::generate_spec(seeds.back()))) {
        instrs += p.instrs.size();
      }
    }
    setup_s.add((now_ms() - t0) / 1000.0);
    if (instrs == 0) out.fail("fuzz: the program pool is empty");
  };
  setup();

  // Digests, not whole reports, so the benchmark keeps nothing of its own
  // alive on the heap between the runs' memory images.
  std::vector<std::optional<u64>> first(kPoolSize);
  u64& error_findings = c.error_findings;
  u64& incomplete = c.incomplete;
  u64& analyses = c.analyses;

  const auto unit = [&](usize index, bool traced) {
    Tracer* t = traced ? &tracer : nullptr;
    const usize slot = index % kPoolSize;
    verify::Report findings;
    api::RunReport report;
    std::vector<Program> programs;
    const double t0 = now_ms();
    {
      const Tracer::Scope root(t, "fuzz.program");
      fuzz::ProgramSpec spec;
      {
        const Tracer::Scope span(t, "fuzz.generate");
        spec = fuzz::generate_spec(seeds[slot]);
      }
      {
        const Tracer::Scope span(t, "fuzz.materialize");
        programs = fuzz::materialize(spec);
      }
      api::RunRequest req = lockstep_request(programs, api::EngineSel::kBoth, true);
      {
        const Tracer::Scope span(t, "verify.analyze");
        findings = verify::analyze(req.programs, req.config);
      }
      {
        const Tracer::Scope span(t, "api.lockstep_run");
        report = engine->run(req);
      }
    }
    unit_ms[traced].add(now_ms() - t0);

    ++out.attempted;
    ++analyses;
    if (!findings.complete) ++incomplete;
    // Generated programs are legal by construction: an error finding is a
    // verifier false positive.
    if (findings.errors() != 0) {
      error_findings += findings.errors();
      out.fail(report.name + ": verifier error on a legal program: " + findings.summary());
    }
    if (!report.ok) out.fail(report.name + ": " + report.error);
    const u64 digest = simulation_digest(report);
    if (!first[slot]) {
      first[slot] = digest;
    } else if (digest != *first[slot]) {
      out.fail(report.name + ": simulated statistics differ from the first run");
    }

    if (!traced) return;
    // Traced-only split of the lockstep run on the same program: each engine
    // alone, and lockstep without the memory compare.
    const Tracer::Scope split(t, "fuzz.split");
    {
      const Tracer::Scope span(t, "iss.run");
      (void)engine->run(lockstep_request(programs, api::EngineSel::kIss, false));
    }
    {
      const Tracer::Scope span(t, "sim.run");
      (void)engine->run(lockstep_request(programs, api::EngineSel::kCycle, false));
    }
    {
      const Tracer::Scope span(t, "api.lockstep_nocompare");
      (void)engine->run(lockstep_request(programs, api::EngineSel::kBoth, false));
    }
  };
  drive(options, 50, unit, setup);  // ~0.5 s apart
  return c;
}

// Runs one campaign in a child process and reads back what it measured:
// counts, failures, unit times, set-up samples and the child's peak memory.
Campaign run_campaign_in_child(const Options& options, double& peak_rss) {
  Campaign c;
  int fds[2];
  if (::pipe(fds) != 0) {
    c.counts.fail("fuzz: pipe() failed");
    return c;
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    c.counts.fail("fuzz: fork() failed");
    return c;
  }
  if (pid == 0) {
    ::close(fds[0]);
    Tracer tracer;
    const Campaign r = run_campaign(options, tracer);
    FILE* f = ::fdopen(fds[1], "w");
    std::fprintf(f, "A %llu\n", static_cast<unsigned long long>(r.counts.attempted));
    for (const std::string& m : r.counts.failures) {
      std::string line = m;
      for (char& ch : line) ch = ch == '\n' ? ' ' : ch;
      std::fprintf(f, "F %s\n", line.c_str());
    }
    std::fprintf(f, "X %llu\n", static_cast<unsigned long long>(r.counts.failed));
    for (const double v : r.unit_ms[0].values()) std::fprintf(f, "U %.17g\n", v);
    for (const double v : r.setup_s.values()) std::fprintf(f, "S %.17g\n", v);
    std::fprintf(f, "M %.17g\n", peak_rss_mb());
    std::fclose(f);
    std::_Exit(0);
  }
  ::close(fds[1]);
  FILE* f = ::fdopen(fds[0], "r");
  u64 failed = 0;
  char line[4096];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    std::string text(line);
    if (!text.empty() && text.back() == '\n') text.pop_back();
    if (text.size() < 2) continue;
    const std::string rest = text.substr(2);
    switch (text[0]) {
      case 'A': c.counts.attempted = std::strtoull(rest.c_str(), nullptr, 10); break;
      case 'F': c.counts.fail(rest); break;
      case 'X': failed = std::strtoull(rest.c_str(), nullptr, 10); break;
      case 'U': c.unit_ms[0].add(std::strtod(rest.c_str(), nullptr)); break;
      case 'S': c.setup_s.add(std::strtod(rest.c_str(), nullptr)); break;
      case 'M': peak_rss = std::max(peak_rss, std::strtod(rest.c_str(), nullptr)); break;
      default: break;
    }
  }
  std::fclose(f);
  int status = 0;
  ::waitpid(pid, &status, 0);
  c.counts.failed = std::max(c.counts.failed, failed);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || c.counts.attempted == 0) {
    c.counts.fail("fuzz: a campaign process did not finish");
  }
  return c;
}

}  // namespace

Outcome run_fuzz_lockstep(const Options& options) {
  Outcome out;
  if (!options.trace) {
    Options part = options;
    part.seconds = options.seconds / kCampaigns;
    part.min_units = (options.min_units + kCampaigns - 1) / kCampaigns;
    Samples unit_ms;
    Samples setup_s;
    for (u32 k = 0; k < kCampaigns; ++k) {
      part.seed = fuzz::mix_seed(options.seed, k);
      const Campaign c = run_campaign_in_child(part, out.child_peak_rss_mb);
      out.merge_counts(c.counts);
      unit_ms.merge(c.unit_ms[0]);
      setup_s.merge(c.setup_s);
    }
    out.add("setup_s", setup_s.p(50), "s", setup_s.size());
    out.add("units_per_s", 1000.0 / unit_ms.p(90), "1/s", unit_ms.size());
    out.add("call_p90_ms", unit_ms.p(90), "ms", unit_ms.size());
    return out;
  }

  Tracer tracer;
  const Campaign c = run_campaign(options, tracer);
  out.merge_counts(c.counts);
  const Samples* const unit_ms = c.unit_ms;
  const Samples& untraced = unit_ms[0];

  out.add("unit_ms.p50", untraced.p(50), "ms", untraced.size());
  out.add("unit_ms.p90", untraced.p(90), "ms", untraced.size());
  out.add("runs_per_s", 1000.0 / untraced.p(90), "1/s", untraced.size());
  const auto us_p50 = [&](const char* name) {
    const Samples s = tracer.durations_ms(name);
    return std::pair{s.p(50) * 1000.0, s.size()};
  };
  for (const auto& [metric, span] :
       {std::pair{"fuzz.generate_us", "fuzz.generate"},
        std::pair{"fuzz.materialize_us", "fuzz.materialize"},
        std::pair{"verify.analyze_us", "verify.analyze"}, std::pair{"iss.run_us", "iss.run"},
        std::pair{"sim.run_us", "sim.run"}}) {
    const auto [value, n] = us_p50(span);
    out.add(metric, value, "us", n);
  }
  const Samples lockstep = tracer.durations_ms("api.lockstep_run");
  const Samples nocompare = tracer.durations_ms("api.lockstep_nocompare");
  out.add("api.lockstep_run_ms.p50", lockstep.p(50), "ms", lockstep.size());
  out.add("api.lockstep_run_ms.p90", lockstep.p(90), "ms", lockstep.size());
  out.add("api.mem_compare_ms", lockstep.mean() - nocompare.mean(), "ms", lockstep.size());
  out.add("verify.error_findings", static_cast<double>(c.error_findings), "count");
  out.add("verify.incomplete_frac",
          static_cast<double>(c.incomplete) / static_cast<double>(c.analyses), "frac");
  out.add("trace.overhead_pct", overhead_pct(unit_ms[1], unit_ms[0]), "%", unit_ms[1].size());
  finish_trace(options, tracer, out);
  return out;
}

}  // namespace perfbench
