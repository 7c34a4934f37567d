// fig3_sweep: the paper's own experiment. box3d1r and j3d27pt in all five
// code variants (Base--, Base-, Base, Chaining, Chaining+) at 12^3 on one
// simulated core. A unit is one pass: the ten configurations on the cycle
// engine, then on the ISS, serially in this thread.
#include <algorithm>
#include <cmath>

#include "api/engine.hpp"
#include "bench_common.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

using namespace sch;
using bench::kKinds;
using bench::kVariants;
using kernels::StencilKind;
using kernels::StencilVariant;

constexpr usize kConfigs = bench::kSweepJobs;

std::vector<kernels::BuiltKernel> build_configs(Tracer* tracer) {
  std::vector<kernels::BuiltKernel> out;
  for (StencilKind kind : kKinds) {
    for (StencilVariant variant : kVariants) {
      const Tracer::Scope span(tracer, "kernels.build");
      out.push_back(kernels::build_stencil(kind, variant, {.nx = 12, .ny = 12, .nz = 12}));
      out.back().program.predecode();
    }
  }
  return out;
}

double geomean2(double a, double b) { return std::sqrt(a * b); }

// The largest gap, in percentage points, between the five headline claims
// of the paper's Section III and the simulated values (the claims and their
// definitions are those of bench/headline_geomeans.cpp).
double claim_err_pp(const std::vector<api::RunReport>& cyc) {
  const auto at = [&](u32 kind, StencilVariant v) -> const api::RunReport& {
    return cyc[kind * std::size(kVariants) + bench::variant_index(v)];
  };
  const auto speedup = [&](StencilVariant fast, StencilVariant slow) {
    const auto r = [&](u32 k) {
      return static_cast<double>(at(k, slow).cycles) / static_cast<double>(at(k, fast).cycles);
    };
    return 100.0 * (geomean2(r(0), r(1)) - 1.0);
  };
  const auto eff = [&](StencilVariant better, StencilVariant worse) {
    const auto r = [&](u32 k) {
      return at(k, worse).energy.breakdown.total_pj / at(k, better).energy.breakdown.total_pj;
    };
    return 100.0 * (geomean2(r(0), r(1)) - 1.0);
  };
  const double gaps[] = {
      speedup(StencilVariant::kChainingPlus, StencilVariant::kBase) - 4.0,
      speedup(StencilVariant::kChainingPlus, StencilVariant::kBaseM) - 8.0,
      eff(StencilVariant::kChainingPlus, StencilVariant::kBase) - 10.0,
      eff(StencilVariant::kChainingPlus, StencilVariant::kBaseM) - 9.0,
      eff(StencilVariant::kChaining, StencilVariant::kBase) - 7.0,
  };
  double worst = 0;
  for (double g : gaps) worst = std::max(worst, std::abs(g));
  return worst;
}

}  // namespace

Outcome run_fig3_sweep(const Options& options) {
  Outcome out;
  Tracer tracer;
  api::Engine engine(api::EngineConfig{.threads = 1});

  Samples setup_s;  // one set-up: the ten kernel builds + predecode
  std::vector<kernels::BuiltKernel> configs;
  const auto setup = [&](bool traced) {
    const double t0 = now_ms();
    configs = build_configs(traced ? &tracer : nullptr);
    setup_s.add((now_ms() - t0) / 1000.0);
  };
  setup(options.trace);

  std::vector<api::RunReport> first_cyc;
  std::vector<api::RunReport> first_iss;
  Samples pass_ms[2];  // [untraced, traced]
  Samples cyc_ms;      // the cycle-engine half of an untraced pass
  Samples iss_ms;      // the ISS half of an untraced pass
  Samples call_ms;     // one engine call of an untraced pass

  const auto unit = [&](usize, bool traced) {
    Tracer* t = traced ? &tracer : nullptr;
    std::vector<api::RunReport> cyc;
    std::vector<api::RunReport> iss;
    cyc.reserve(kConfigs);
    iss.reserve(kConfigs);
    const double t0 = now_ms();
    double t1 = t0;
    {
      const Tracer::Scope pass(t, "fig3.pass");
      for (const auto& k : configs) {
        const Tracer::Scope span(t, "api.sim_run");
        const double c0 = now_ms();
        cyc.push_back(engine.run(api::RunRequest::for_built(k)));
        if (!traced) call_ms.add(now_ms() - c0);
      }
      t1 = now_ms();
      for (const auto& k : configs) {
        const Tracer::Scope span(t, "iss.run");
        const double c0 = now_ms();
        iss.push_back(engine.run(api::RunRequest::for_built(k, api::EngineSel::kIss)));
        if (!traced) call_ms.add(now_ms() - c0);
      }
    }
    const double t2 = now_ms();
    pass_ms[traced].add(t2 - t0);
    if (!traced) {
      cyc_ms.add(t1 - t0);
      iss_ms.add(t2 - t1);
    }

    for (usize i = 0; i < kConfigs; ++i) {
      for (const api::RunReport* r : {&cyc[i], &iss[i]}) {
        ++out.attempted;
        if (!r->ok) out.fail(r->name + ": " + r->error);
      }
    }
    if (first_cyc.empty()) {
      first_cyc = std::move(cyc);
      first_iss = std::move(iss);
      return;
    }
    for (usize i = 0; i < kConfigs; ++i) {
      if (!same_simulation(cyc[i], first_cyc[i]) || !same_simulation(iss[i], first_iss[i])) {
        out.fail(cyc[i].name + ": simulated statistics differ from the first pass");
      }
    }
  };
  drive(options, 5, unit, [&] { setup(options.trace); });  // ~0.5 s apart

  // Simulated work of one pass (deterministic).
  double cycles = 0;
  double instrs = 0;
  for (usize i = 0; i < first_cyc.size(); ++i) {
    cycles += static_cast<double>(first_cyc[i].cycles);
    instrs += static_cast<double>(first_iss[i].iss_instructions);
  }
  const Samples& untraced = pass_ms[0];

  if (!options.trace) {
    out.add("setup_s", setup_s.p(50), "s", setup_s.size());
    out.add("units_per_s", 1000.0 / untraced.p(90), "1/s", untraced.size());
    out.add("call_p90_ms", call_ms.p(90), "ms", call_ms.size());
    return out;
  }

  // --- per-layer figures from the traced run ---
  out.add("unit_ms.p50", untraced.p(50), "ms", untraced.size());
  out.add("unit_ms.p90", untraced.p(90), "ms", untraced.size());
  out.add("sim_mcycles_per_s", cycles / cyc_ms.p(90) / 1000.0, "Mcycles/s", cyc_ms.size());
  out.add("iss_mips", instrs / iss_ms.p(90) / 1000.0, "MIPS", iss_ms.size());
  out.add("sim_kcycles", cycles / 1000.0, "kcycles");

  const Samples sim_run = tracer.durations_ms("api.sim_run");
  const Samples iss_run = tracer.durations_ms("iss.run");
  const double traced_passes = static_cast<double>(pass_ms[1].size());
  out.add("api.sim_run_ms.p50", sim_run.p(50), "ms", sim_run.size());
  out.add("api.sim_run_ms.p90", sim_run.p(90), "ms", sim_run.size());
  out.add("sim.host_ns_per_cycle", sim_run.sum() * 1e6 / (cycles * traced_passes), "ns",
          sim_run.size());
  out.add("iss.host_ns_per_instr", iss_run.sum() * 1e6 / (instrs * traced_passes), "ns",
          iss_run.size());
  out.add("kernels.build_ms", setup_s.p(50) * 1000.0, "ms", setup_s.size());

  // Deterministic model statistics over the ten configurations.
  const bench::PaperRef ref;
  double core_cyc = 0;
  double chain_stall = 0;
  double ssr_stall = 0;
  double raw_stall = 0;
  double fp_idle = 0;
  double conflicts = 0;
  double energy_pj = 0;
  double flops = 0;
  double paper_err = 0;
  double chp_util = 0;
  for (usize i = 0; i < first_cyc.size(); ++i) {
    const api::RunReport& r = first_cyc[i];
    core_cyc += core_cycles(r);
    chain_stall += static_cast<double>(r.perf.stall_chain_empty + r.perf.stall_chain_full);
    ssr_stall += static_cast<double>(r.perf.stall_ssr_empty + r.perf.stall_ssr_wfull);
    raw_stall += static_cast<double>(r.perf.stall_fp_raw);
    fp_idle += static_cast<double>(r.perf.fp_queue_empty);
    conflicts += static_cast<double>(r.tcdm_conflicts);
    energy_pj += r.energy.breakdown.total_pj;
    flops += static_cast<double>(r.useful_flops);
    const u32 kind = static_cast<u32>(i / std::size(kVariants));
    const u32 v = static_cast<u32>(i % std::size(kVariants));
    paper_err = std::max(paper_err, 100.0 * std::abs(r.fpu_utilization - ref.util(kKinds[kind], v)));
    if (kVariants[v] == StencilVariant::kChainingPlus) chp_util += r.fpu_utilization / 2.0;
  }
  out.add("core.chain_stall_frac", chain_stall / core_cyc, "frac");
  out.add("ssr.stall_frac", ssr_stall / core_cyc, "frac");
  out.add("sim.fp_raw_stall_frac", raw_stall / core_cyc, "frac");
  out.add("sim.fp_idle_frac", fp_idle / core_cyc, "frac");
  out.add("mem.tcdm_conflicts_per_kcycle", 1000.0 * conflicts / core_cyc, "1/kcycle");
  out.add("sim.fpu_util_chaining_plus", chp_util, "frac");
  out.add("energy.pj_per_flop", energy_pj / flops, "pJ");
  out.add("paper_err_pp", paper_err, "pp");
  out.add("claim_err_pp", claim_err_pp(first_cyc), "pp");
  out.add("trace.overhead_pct", overhead_pct(pass_ms[1], pass_ms[0]), "%", pass_ms[1].size());
  finish_trace(options, tracer, out);
  return out;
}

}  // namespace perfbench
