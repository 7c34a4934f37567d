// A RunRequest names one unit of execution for api::Engine: a workload (a
// registry kernel, a prebuilt kernel, or a raw assembled program), an engine
// selection (ISS, cycle-level, or both in lockstep), configuration
// overrides, a validation policy and an optional set of observers. Every
// front-end -- benches, the scenario runner, schsim, tests, embedders --
// describes work in this one vocabulary.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "api/run_report.hpp"
#include "asm/program.hpp"
#include "energy/energy_model.hpp"
#include "kernels/kernel_common.hpp"
#include "kernels/registry.hpp"
#include "sim/sim_config.hpp"
#include "verify/verify.hpp"

namespace sch::api {

class Observer;

/// Output-validation policy.
enum class Validation : u8 {
  kGolden,  // compare the output region against the workload's golden vector
  kNone,    // run only (raw programs have no golden; forced to kNone)
};

/// Static-verification policy (verify::analyze before execution).
enum class VerifyPolicy : u8 {
  kOff,     // do not run the static analyzer
  kWarn,    // analyze; findings go to verify_sink but never fail the run
  kStrict,  // analyze; error findings fail the run (FailureKind::kValidation)
            // before the engine spins a single cycle
};

struct RunRequest {
  // --- Workload: exactly one of the three forms. Precedence when several
  // are set: prebuilt kernel > registry lookup > raw program. ---

  /// (a) Registry form: kernel family name + variant + size overrides.
  /// Sizes are resolved against the registry defaults; unknown kernels,
  /// variants or size names fail the report (never abort).
  std::string kernel;
  std::string variant;
  kernels::SizeMap sizes;

  /// (b) Prebuilt form: a BuiltKernel from any builder (tests, custom
  /// embedders); carries its own golden vector.
  std::optional<kernels::BuiltKernel> built;

  /// (c) Raw-program form: an assembled Program and no golden reference.
  /// With config.num_cores > 1 the program is replicated to every core of
  /// the cluster (programs partition work by the mhartid/mnumharts CSRs).
  std::optional<Program> program;

  /// (d) Cluster raw form: one program per core (config.num_cores must
  /// equal programs.size()). No golden reference; all programs share one
  /// address space and their data images load in hartid order.
  std::vector<Program> programs;

  /// Report label override; defaults to the kernel's name ("kernel/variant"
  /// for registry workloads, "program" for raw programs).
  std::string label;

  EngineSel engine = EngineSel::kCycle;
  sim::SimConfig config{};
  energy::EnergyConfig energy{};
  Validation validation = Validation::kGolden;

  /// Static verification before execution. kWarn records findings in
  /// `verify_sink` (when set) and proceeds; kStrict additionally converts
  /// error-severity findings into a failed-validation report without
  /// spinning the engine. Warnings never fail a run.
  VerifyPolicy verify = VerifyPolicy::kOff;
  /// Borrowed out-param: receives the analyzer report when `verify` is not
  /// kOff. Must outlive the run (Engine::submit runs on a worker thread).
  verify::Report* verify_sink = nullptr;

  /// kBoth only: additionally compare the final TCDM and main-memory images
  /// of the two engines byte-for-byte. This is what makes raw-program
  /// differential fuzzing sound (raw programs have no golden region): a
  /// store that lands differently on the two engines fails the lockstep
  /// check even when no register still holds the value. Off by default --
  /// kernels validate their output region instead.
  bool lockstep_compare_memory = false;

  /// Borrowed probes, invoked during execution (see api/observer.hpp).
  /// Must outlive the run; with Engine::submit they are called from a
  /// worker thread, so shared observers must synchronize internally.
  std::vector<Observer*> observers;

  // --- convenience constructors ---
  static RunRequest for_kernel(std::string kernel, std::string variant,
                               kernels::SizeMap sizes = {},
                               EngineSel engine = EngineSel::kCycle) {
    RunRequest r;
    r.kernel = std::move(kernel);
    r.variant = std::move(variant);
    r.sizes = std::move(sizes);
    r.engine = engine;
    return r;
  }

  static RunRequest for_built(kernels::BuiltKernel k,
                              EngineSel engine = EngineSel::kCycle) {
    RunRequest r;
    r.built = std::move(k);
    r.engine = engine;
    return r;
  }

  static RunRequest for_program(Program p, std::string label = "program",
                                EngineSel engine = EngineSel::kCycle) {
    RunRequest r;
    r.program = std::move(p);
    r.label = std::move(label);
    r.engine = engine;
    r.validation = Validation::kNone;
    return r;
  }

  /// One program per cluster core; sets config.num_cores to match.
  static RunRequest for_programs(std::vector<Program> programs,
                                 std::string label = "programs",
                                 EngineSel engine = EngineSel::kCycle) {
    RunRequest r;
    r.config.num_cores = static_cast<u32>(programs.size());
    r.programs = std::move(programs);
    r.label = std::move(label);
    r.engine = engine;
    r.validation = Validation::kNone;
    return r;
  }
};

} // namespace sch::api
