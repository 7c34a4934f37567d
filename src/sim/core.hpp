// One chaining core of the cluster: the integer core, the FP subsystem
// (offload queue, FREP sequencer, FPU, chain unit) and the three SSR
// streamers, wired to the cluster-shared Memory and banked Tcdm. The
// Cluster invokes tick() once per cycle in a rotating core order; within the
// tick the core runs the same phase sequence the single-core Simulator
// always ran (commit pending writes, FP tick, integer tick, SSR fetches with
// the rotating streamer priority). Under SimConfig::gating() the tick skips
// idle units and replays a parked core from counters (sim/cluster.hpp).
#pragma once

#include <memory>
#include <string>

#include "asm/program.hpp"
#include "dma/dma.hpp"
#include "iss/arch_state.hpp"
#include "mem/memory.hpp"
#include "mem/tcdm.hpp"
#include "sim/fp_subsystem.hpp"
#include "sim/int_core.hpp"
#include "sim/perf.hpp"
#include "sim/sim_config.hpp"

namespace sch::sim {

/// Host-side work counters of the activity-gated tick. Deterministic for a
/// fixed configuration and program set, and deliberately kept out of
/// api::RunReport, so fast_forward on/off reports stay bit-identical.
/// Every active core-cycle (PerfCounters::cycles) is either a full tick or
/// a skipped one: core_ticks + skipped == the cores' summed cycles.
struct TickCounters {
  u64 core_ticks = 0;     // core-cycles run through the full phase sequence
  u64 fp_gated = 0;       // ... of which skipped the idle FP side
  u64 skipped = 0;        // core-cycles of an idle core applied by skip()
  u64 parked = 0;         // ... of which replayed a parked DMA poll loop
  u64 jumped_cycles = 0;  // cluster cycles crossed by clock jumps
};

class Core {
 public:
  /// The core keeps its own copy of the program; `memory`, `tcdm`, `config`
  /// and `dma` are cluster-owned and must outlive the core. `hartid` is the
  /// mhartid CSR value and selects the core's TCDM requester block.
  Core(Program program, Memory& memory, Tcdm& tcdm, const SimConfig& config,
       u32 hartid, dma::Engine* dma = nullptr);

  /// Load this core's program data image into the shared memory. The
  /// cluster calls this once, in hartid order, before the first cycle.
  void load_image();

  /// Run one cycle of every unit. A fully-halted core is a no-op (its
  /// perf().cycles stops counting, so per-core cycle counts report the
  /// core's active span under load imbalance).
  void tick(Cycle now);

  // --- activity contract (see sim/cluster.hpp) ---
  /// Fully halted, or every unit idle: the integer core (halted, bubbles or
  /// parked), the FP side, the streamers, and no pending writeback.
  [[nodiscard]] bool idle() const {
    if (halted_at_ != 0) return true;
    if (!core_->idle()) return false;
    // A core parks only with its FP side, streamers and writebacks
    // quiescent, and nothing but its own integer core could wake them.
    return core_->parked() || (fp_->idle() && fp_->streams_idle() &&
                               core_->pending_empty());
  }
  [[nodiscard]] Cycle next_event(Cycle now) const {
    if (halted_at_ != 0) return kNever;
    return idle() ? core_->next_event(now) : now + 1;
  }
  /// Apply `n` idle cycles in closed form; returns the trailing skipped
  /// cycles without a retirement (n for a halted core).
  u64 skip(u64 n);

  /// This core's share of the cluster's TickCounters.
  [[nodiscard]] const TickCounters& tick_counters() const { return ticks_; }

  /// Integer core halted, FP subsystem drained, no pending writebacks.
  [[nodiscard]] bool fully_halted() const {
    return core_->halting() && fp_->quiescent() && core_->pending_empty();
  }

  [[nodiscard]] u32 hartid() const { return hartid_; }
  [[nodiscard]] const Program& program() const { return prog_; }
  [[nodiscard]] const PerfCounters& perf() const { return perf_; }
  [[nodiscard]] const IntCore& int_core() const { return *core_; }
  [[nodiscard]] const FpSubsystem& fp() const { return *fp_; }
  /// Mutable FP-subsystem access for fault injection (sim::FaultPlan).
  [[nodiscard]] FpSubsystem& fp_mut() { return *fp_; }
  [[nodiscard]] HaltReason halt_reason() const { return core_->halt_reason(); }
  /// Cycle at which the core fully halted (0 while still running).
  [[nodiscard]] Cycle halted_at() const { return halted_at_; }

  [[nodiscard]] bool has_error() const {
    return fp_->has_error() || core_->has_error();
  }
  /// FP-subsystem errors win (mirrors the original Simulator check order).
  [[nodiscard]] const std::string& error() const {
    return fp_->has_error() ? fp_->error() : core_->error();
  }

  /// Architectural state snapshot (for ISS cross-validation).
  [[nodiscard]] ArchState arch_state() const;

 private:
  Program prog_;
  Memory& mem_;
  Tcdm& tcdm_;
  const SimConfig& cfg_;
  const u32 hartid_;
  const bool gate_;  // SimConfig::gating()
  PerfCounters perf_;
  TickCounters ticks_;
  std::unique_ptr<FpSubsystem> fp_;
  std::unique_ptr<IntCore> core_;
  u32 ssr_rr_ = 0; // round-robin rotation of this core's SSR port order
  Cycle halted_at_ = 0;
};

} // namespace sch::sim
