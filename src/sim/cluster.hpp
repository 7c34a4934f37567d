// Top-level cycle-level model: a cluster of N chaining cores sharing one
// banked TCDM and one functional Memory. Each cycle the cluster rotates the
// core service order (fair cross-core round-robin into the bank arbiter) and
// runs every core's phase sequence; within a core the LSU keeps its bank
// priority and the SSR ports keep their private rotation, exactly as in the
// original single-core model. With num_cores == 1 the cluster is
// cycle-for-cycle identical to the pre-cluster Simulator, which is why
// `sim::Simulator` is now an alias of this class (see sim/simulator.hpp).
//
// Cores communicate only through the shared memory (e.g. the sense-reversing
// barrier in kernels/barrier.hpp); the cluster is fully deterministic for a
// fixed configuration and program set.
//
// Activity contract. Every ticked component (Core and, inside it, IntCore,
// FpSubsystem and its ssr::Streamers; dma::Engine) answers three calls:
//   idle()          its next tick would change nothing but counters;
//   next_event(now) the earliest cycle at which its state can change for
//                   any other reason (kNever: only another unit can wake it);
//   skip(n)         apply n idle ticks' counter effects in closed form.
// Under SimConfig::gating() the cluster uses it twice. Per cycle, a core
// skips its idle FP side and streamers, and an idle core -- above all one
// parked on a DMA poll loop -- replays the cycle from counters in its own
// rotation slot (a parked core until its hart's DMA count moves). Across
// cycles, while every core is halted or parked the clock jumps to just
// before the cluster horizon (the minimum next_event) and the horizon
// cycle runs as a real tick. A jump never crosses the cycle budget,
// the next wall-clock check or the watchdog's firing cycle, so both halt at
// the cycle the cycle-by-cycle run would; idle units make no TCDM requests,
// so bank arbitration is untouched.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "dma/dma.hpp"
#include "iss/arch_state.hpp"
#include "mem/memory.hpp"
#include "mem/tcdm.hpp"
#include "sim/core.hpp"
#include "sim/perf.hpp"
#include "sim/sim_config.hpp"

namespace sch::sim {

class Cluster {
 public:
  /// One program, replicated to every core (cores partition work by the
  /// mhartid/mnumharts CSRs). `memory` must outlive the cluster. Throws
  /// std::invalid_argument when `config.validate()` fails.
  Cluster(Program program, Memory& memory, const SimConfig& config = {});

  /// One program per core (`programs.size()` must equal config.num_cores;
  /// a single entry replicates). All programs share one address space; data
  /// images are loaded in hartid order before the first cycle.
  Cluster(std::vector<Program> programs, Memory& memory,
          const SimConfig& config = {});

  /// Run to halt. Loads the program data image(s) first.
  HaltReason run();

  /// Advance one cycle (tests/traces) -- under SimConfig::gating(), a clock
  /// jump over idle cycles may come first. Returns false once halted.
  bool step();

  [[nodiscard]] Cycle cycles() const { return cycle_; }
  [[nodiscard]] u32 num_cores() const { return static_cast<u32>(cores_.size()); }
  [[nodiscard]] const Tcdm& tcdm() const { return tcdm_; }
  [[nodiscard]] const dma::Engine& dma() const { return dma_; }
  [[nodiscard]] HaltReason halt_reason() const { return halt_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  // --- structured halt information (api::Engine failure classification) ---
  /// True when the progress watchdog fired (error() describes the wedge).
  [[nodiscard]] bool deadlocked() const { return deadlocked_; }
  /// Faulting hart of an abnormal halt (-1 when unknown / not hart-specific).
  [[nodiscard]] i32 halt_hart() const { return halt_hart_; }
  /// Faulting pc of an abnormal halt (-1 when unknown).
  [[nodiscard]] i64 halt_pc() const { return halt_pc_; }

  /// Aggregate counters snapshot: every field summed across cores except
  /// `cycles`, which is the cluster cycle count. With one core this is
  /// exactly that core's counter block (see core_at(h).perf() for live
  /// per-core references).
  [[nodiscard]] PerfCounters perf() const;

  [[nodiscard]] const Core& core_at(u32 hartid) const { return *cores_[hartid]; }

  /// Host-side work counters of the activity-gated tick, summed over cores.
  [[nodiscard]] TickCounters tick_counters() const;

  // --- single-core-compatible accessors (hart 0) ---
  [[nodiscard]] const IntCore& core() const { return cores_[0]->int_core(); }
  [[nodiscard]] const FpSubsystem& fp() const { return cores_[0]->fp(); }

  /// Architectural state snapshot of one hart (for ISS cross-validation).
  [[nodiscard]] ArchState arch_state(u32 hartid = 0) const {
    return cores_[hartid]->arch_state();
  }

 private:
  void tick();
  /// Clock jump over the cycles before the cluster horizon (see the
  /// activity contract above); a no-op unless every core is halted or
  /// parked.
  void jump();
  /// Apply every fault of cfg_.faults due this cycle (see sim/fault_plan.hpp).
  void apply_faults();
  [[nodiscard]] bool fully_halted() const;
  /// Watchdog progress measure: retirements, offloads, DMA bytes and burn.
  [[nodiscard]] u64 progress() const;

  SimConfig cfg_;
  const bool gate_;  // cfg_.gating()
  Memory& mem_;
  Tcdm tcdm_;
  dma::Engine dma_;
  std::vector<std::unique_ptr<Core>> cores_;

  Cycle cycle_ = 0;
  u64 jumped_cycles_ = 0;
  /// First cycle at which step() checks the wall-clock budget again (every
  /// 4096 cycles, keyed on crossing the boundary so jumps cannot skip it).
  Cycle next_wall_check_ = 0;
  u64 last_progress_retired_ = 0;
  Cycle last_progress_cycle_ = 0;
  HaltReason halt_ = HaltReason::kNone;
  std::string error_;
  bool started_ = false;
  bool deadlocked_ = false;
  i32 halt_hart_ = -1;
  i64 halt_pc_ = -1;
  /// Host time of the first step (wall-clock budget reference; only read
  /// when cfg_.max_wall_ms != 0, so budget-free runs stay deterministic).
  std::chrono::steady_clock::time_point wall_start_;
};

} // namespace sch::sim
