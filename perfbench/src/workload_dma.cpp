// dma_stream: double-buffered DMA kernels on a 4-core cluster behind a
// 200-cycle main memory, cycle engine only. axpy/chained_dbuf (n=16384,
// tile=64) and gemv/chained_dbuf (m=256, n=48, rtile=8) exercise the DMA
// engine, main memory, the cluster glue and 4-core TCDM contention; the FP
// queue sits empty most of the time, which is what an activity-gated tick
// would skip. A unit is one pass over the two kernels.
#include "api/engine.hpp"
#include "harness.hpp"
#include "kernels/registry.hpp"

namespace perfbench {

namespace {

using namespace sch;

struct Shape {
  const char* kernel;
  const char* variant;
  kernels::SizeMap sizes;
};

const Shape kShapes[] = {
    {"axpy", "chained_dbuf", {{"n", 16384}, {"tile", 64}}},
    {"gemv", "chained_dbuf", {{"m", 256}, {"n", 48}, {"rtile", 8}}},
};

sim::SimConfig cluster_config() {
  sim::SimConfig c;
  c.num_cores = 4;
  c.main_mem_latency = 200;
  return c;
}

std::vector<kernels::BuiltKernel> build_shapes(Tracer* tracer) {
  std::vector<kernels::BuiltKernel> out;
  for (const Shape& s : kShapes) {
    const Tracer::Scope span(tracer, "kernels.build");
    const kernels::KernelEntry* entry = kernels::Registry::instance().find(s.kernel);
    out.push_back(entry->build(s.variant, entry->resolve_sizes(s.sizes)));
    out.back().program.predecode();
  }
  return out;
}

}  // namespace

Outcome run_dma_stream(const Options& options) {
  Outcome out;
  Tracer tracer;
  api::Engine engine(api::EngineConfig{.threads = 1});
  const sim::SimConfig config = cluster_config();

  Samples setup_s;
  std::vector<kernels::BuiltKernel> kernels;
  const auto setup = [&](bool traced) {
    const double t0 = now_ms();
    kernels = build_shapes(traced ? &tracer : nullptr);
    setup_s.add((now_ms() - t0) / 1000.0);
  };
  setup(options.trace);

  std::vector<api::RunReport> first;
  Samples pass_ms[2];  // [untraced, traced]
  Samples call_ms;

  const auto unit = [&](usize, bool traced) {
    Tracer* t = traced ? &tracer : nullptr;
    std::vector<api::RunReport> reports;
    const double t0 = now_ms();
    {
      const Tracer::Scope pass(t, "dma.pass");
      for (const auto& k : kernels) {
        const Tracer::Scope span(t, "api.sim_run");
        api::RunRequest req = api::RunRequest::for_built(k);
        req.config = config;
        const double c0 = now_ms();
        reports.push_back(engine.run(req));
        if (!traced) call_ms.add(now_ms() - c0);
      }
    }
    pass_ms[traced].add(now_ms() - t0);
    for (const api::RunReport& r : reports) {
      ++out.attempted;
      if (!r.ok) out.fail(r.name + ": " + r.error);
    }
    if (first.empty()) {
      first = std::move(reports);
      return;
    }
    for (usize i = 0; i < reports.size(); ++i) {
      if (!same_simulation(reports[i], first[i])) {
        out.fail(reports[i].name + ": simulated statistics differ from the first pass");
      }
    }
  };
  drive(options, 15, unit, [&] { setup(options.trace); });  // ~0.5 s apart

  double cycles = 0;
  for (const api::RunReport& r : first) cycles += static_cast<double>(r.cycles);
  const Samples& untraced = pass_ms[0];

  if (!options.trace) {
    out.add("setup_s", setup_s.p(50), "s", setup_s.size());
    out.add("units_per_s", 1000.0 / untraced.p(90), "1/s", untraced.size());
    out.add("call_p90_ms", call_ms.p(90), "ms", call_ms.size());
    return out;
  }

  out.add("unit_ms.p50", untraced.p(50), "ms", untraced.size());
  out.add("unit_ms.p90", untraced.p(90), "ms", untraced.size());
  out.add("sim_mcycles_per_s", cycles / untraced.p(90) / 1000.0, "Mcycles/s", untraced.size());
  out.add("sim_kcycles", cycles / 1000.0, "kcycles");
  const Samples sim_run = tracer.durations_ms("api.sim_run");
  out.add("api.sim_run_ms.p50", sim_run.p(50), "ms", sim_run.size());
  out.add("api.sim_run_ms.p90", sim_run.p(90), "ms", sim_run.size());
  out.add("sim.host_ns_per_cycle",
          sim_run.sum() * 1e6 / (cycles * static_cast<double>(pass_ms[1].size())), "ns",
          sim_run.size());
  out.add("kernels.build_ms", setup_s.p(50) * 1000.0, "ms", setup_s.size());

  // Deterministic model statistics over both kernels. Fractions are of
  // core-cycles; DMA figures are per cluster cycle.
  double core_cyc = 0;
  double fp_idle = 0;
  double dma_full = 0;
  double conflicts = 0;
  double busy = 0;
  double startup = 0;
  double bytes = 0;
  for (const api::RunReport& r : first) {
    core_cyc += core_cycles(r);
    fp_idle += static_cast<double>(r.perf.fp_queue_empty);
    dma_full += static_cast<double>(r.perf.stall_dma_full);
    conflicts += static_cast<double>(r.tcdm_conflicts);
    busy += static_cast<double>(r.dma.busy_cycles);
    startup += static_cast<double>(r.dma.startup_cycles);
    bytes += static_cast<double>(r.dma.bytes);
  }
  out.add("sim.fp_idle_frac", fp_idle / core_cyc, "frac");
  out.add("sim.dma_full_stall_frac", dma_full / core_cyc, "frac");
  out.add("mem.tcdm_conflicts_per_kcycle", 1000.0 * conflicts / core_cyc, "1/kcycle");
  out.add("dma.busy_frac", busy / cycles, "frac");
  out.add("dma.startup_per_kcycle", 1000.0 * startup / cycles, "1/kcycle");
  out.add("dma.bytes_per_cycle", bytes / cycles, "B/cycle");
  out.add("trace.overhead_pct", overhead_pct(pass_ms[1], pass_ms[0]), "%", pass_ms[1].size());
  finish_trace(options, tracer, out);
  return out;
}

}  // namespace perfbench
