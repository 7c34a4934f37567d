// The one structured result every front-end consumes. A RunReport carries
// everything the scenario report writer, the BENCH_*.json emitters and the
// tests used to pull out of three unrelated structs (kernels::RunResult,
// kernels::IssRunResult and the ad-hoc fields of bench::SweepEntry):
// cycle-level counters, stall taxonomy, TCDM traffic, energy, ISS
// instruction counts, validation mismatches and the kernel's register
// bookkeeping. `to_json()` is the versioned serialization shared by
// `schsim run` reports and the bench JSON files.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "energy/energy_model.hpp"
#include "kernels/kernel_common.hpp"
#include "scenario/json.hpp"
#include "sim/perf.hpp"

namespace sch::api {

using Json = scenario::Json;

/// Which execution engine(s) a request runs on.
enum class EngineSel : u8 {
  kIss,    // functional golden-reference ISS only
  kCycle,  // cycle-level simulator only
  kBoth,   // both, with a lockstep cross-check of the final state
};

/// "iss" / "cycle" / "both".
const char* engine_name(EngineSel sel);
/// Inverse of engine_name(); false on unknown names.
bool parse_engine(const std::string& name, EngineSel& out);

/// Structured classification of a failed run (RunReport::failure). Every
/// failure path through api::Engine maps to exactly one kind; `error` stays
/// the human-readable description.
enum class FailureKind : u8 {
  kNone,             // report is ok
  kValidation,       // bad request/config/kernel or a program-level fault
  kBusError,         // access to unmapped memory on either engine
  kDeadlock,         // watchdog fired / chain-FIFO underflow
  kLockstepMismatch, // ISS and cycle engine disagree on final state
  kGoldenMismatch,   // output region differs from the golden vector
  kBudgetExceeded,   // cycle, step or wall-clock budget exhausted
  kInternal,         // unexpected exception (engine bug; please report)
};

/// "validation" / "bus_error" / ... (schema v4 failure.kind values).
const char* failure_kind_name(FailureKind kind);

/// Where a failure happened, as far as the engine knows. -1 = unknown.
struct FailureInfo {
  FailureKind kind = FailureKind::kNone;
  i32 hart = -1;   // faulting hart (-1: unknown or not hart-specific)
  i64 pc = -1;     // faulting pc
  i64 cycle = -1;  // cycle-engine cycle at the failure
};

struct RunReport {
  /// Version of the JSON serialization below. Bump on any key change and
  /// update tools/check_report_schema.py + the golden test in
  /// tests/test_api.cpp.
  /// v2: cluster support -- adds "num_cores", the per-core "cores" sections
  /// and the TCDM "out_of_range"/"top_banks" contention keys; every v1 key
  /// is unchanged (a num_cores=1 report matches a v1 report field-for-field
  /// apart from the new sections).
  /// v3: Xdma -- adds the "dma" section (transfers/bytes/busy_cycles/
  /// startup_cycles/tcdm_conflicts/queue_full_stalls/achieved
  /// bytes-per-cycle) and the "dma_full" stall key; every v2 key is
  /// unchanged (a DMA-free run reports an all-zero section).
  /// v4: robustness -- failed rows add a structured "failure" section
  /// (kind/hart/pc/cycle, -1 for unknown fields) next to the existing
  /// "error" message; ok rows are unchanged apart from the version bump.
  /// v5: the whole counter table (sim/perf.hpp): "stalls" holds every kStall
  /// row, a new "mix" object every kMix row; v4 keys keep name and value.
  static constexpr i64 kSchemaVersion = 5;

  /// Per-core cycle-engine section of a cluster run.
  struct CoreReport {
    u64 cycles = 0;  // cycles the core was active (stops at its halt)
    double fpu_utilization = 0;
    sim::PerfCounters perf;
  };

  std::string name;     // workload label, e.g. "vecop/chained+frep"
  std::string kernel;   // registry name ("" for raw-program workloads)
  std::string variant;  // registry variant ("" for raw-program workloads)
  EngineSel engine = EngineSel::kCycle;

  bool ok = false;      // halted cleanly, validated, engines agreed
  std::string error;    // failure description when !ok
  FailureInfo failure;  // structured classification when !ok (schema v4)

  // Cycle-level engine results (zero when engine == kIss). With a cluster,
  // `cycles` is the cluster cycle count, `perf` aggregates all cores and
  // `fpu_utilization` is the per-core mean (total fpu_ops / (cycles *
  // num_cores)); the per-core breakdown lives in `cores`.
  u64 cycles = 0;
  double fpu_utilization = 0;
  sim::PerfCounters perf;
  u32 num_cores = 1;
  std::vector<CoreReport> cores;  // size num_cores when the cycle engine ran
  u64 tcdm_reads = 0;
  u64 tcdm_writes = 0;
  u64 tcdm_conflicts = 0;
  u64 tcdm_out_of_range = 0;
  /// Hottest banks by conflict count (bank index, conflicts), hottest
  /// first; at most 8 entries, zero-conflict banks omitted.
  std::vector<std::pair<u32, u64>> tcdm_top_banks;

  /// Cluster DMA engine activity (all zero when the workload issues no
  /// transfers or the cycle engine did not run).
  struct DmaReport {
    u64 transfers = 0;      // completed transfers
    u64 bytes = 0;          // bytes moved
    u64 busy_cycles = 0;    // cycles with >= 1 channel active
    u64 startup_cycles = 0; // CHANNEL-cycles spent in main-memory latency
                            // (can exceed busy_cycles when several harts'
                            // transfers start up concurrently)
    u64 tcdm_conflicts = 0; // beats denied by the bank arbiter
    u64 queue_full_stalls = 0;
    double achieved_bytes_per_cycle = 0;
  };
  DmaReport dma;
  energy::EnergyReport energy;

  // ISS results (zero when engine == kCycle).
  u64 iss_instructions = 0;

  // Validation.
  u64 mismatches = 0;           // golden-output mismatches
  u64 lockstep_mismatches = 0;  // kBoth: ISS-vs-cycle state divergences

  // Kernel bookkeeping (defaults for raw-program workloads).
  kernels::RegisterReport regs;
  u64 useful_flops = 0;

  // Host wall-clock of build + execute + validate. The only field that is
  // not deterministic across runs; comparisons must exclude it.
  double wall_s = 0;

  /// Versioned serialization ("schema": kSchemaVersion first). The scenario
  /// report writer appends its per-job echo (sizes/sim/repeat) to this
  /// object; benches embed it as-is.
  [[nodiscard]] Json to_json() const;
};

} // namespace sch::api
