// FP subsystem of the pseudo-dual-issue core: offload queue + FREP sequencer,
// issue stage with scoreboard, pipelined FPU, iterative div/sqrt unit, FP
// load/store unit, the three SSR streamers, and the chaining unit.
//
// Issue protocol (see DESIGN.md §4): when the next instruction's operands are
// ready, they are read/popped atomically into a one-entry issue latch (the
// FPU input register); the latch drains into the FPU the same cycle unless
// the pipeline is frozen by writeback backpressure. Pops happen before the
// pipeline's writeback pushes within a cycle, so a value written back in
// cycle t is poppable in t+1 (issue-to-use = depth + 1).
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <string>

#include "asm/program.hpp"
#include "core/chain_unit.hpp"
#include "isa/reg.hpp"
#include "mem/memory.hpp"
#include "mem/tcdm.hpp"
#include "sim/fpu.hpp"
#include "sim/perf.hpp"
#include "sim/sequencer.hpp"
#include "sim/sim_config.hpp"
#include "ssr/ssr_file.hpp"
#include "ssr/streamer.hpp"

namespace sch::sim {

/// Per-cycle shared structural state (the core's single TCDM port).
struct CorePort {
  bool used = false;
};

/// Writeback from the FP domain into the integer register file.
struct IntWriteback {
  u8 rd;
  u32 value;
  Cycle ready_at;
};

class FpSubsystem {
 public:
  /// `hartid` selects this subsystem's TCDM requester block (it shares the
  /// owning core's LSU port priority).
  FpSubsystem(const SimConfig& cfg, Memory& mem, Tcdm& tcdm,
              PerfCounters& perf, u32 hartid = 0);

  /// Wire the channel for FP->integer writebacks (compares, conversions).
  void set_int_wb_sink(std::function<void(const IntWriteback&)> sink) {
    int_wb_ = std::move(sink);
  }

  // --- integer-core interface ---
  [[nodiscard]] bool offload_ready() const { return !seq_.queue_full(); }
  void offload(FpOp op) { seq_.push(std::move(op)); }

  /// Ordering interlock for the integer LSU: true while a pending (queued
  /// or frep-replayed, not yet executed) fld/fsd overlaps the access and at
  /// least one side writes. Issued ops are not hazards -- their memory
  /// effect is applied at FP issue time. SSR/DMA traffic is exempt: those
  /// streams are architecturally asynchronous and synchronized explicitly
  /// (SSR disable barrier, dmstat polling).
  [[nodiscard]] bool mem_hazard(u32 addr, u32 bytes, bool int_is_write) const {
    return seq_.pending_mem_overlap(addr, bytes, int_is_write);
  }

  /// Everything drained: queue, latch, pipeline, div unit, LSU, write streams.
  [[nodiscard]] bool quiescent() const;

  // --- activity contract (see sim/cluster.hpp) ---
  /// The issue/execute side's tick() would only count fp_queue_empty:
  /// nothing queued or replaying, latch/pipeline/div/LSU empty, no error.
  /// Only an offload from the integer core can end this state.
  [[nodiscard]] bool idle() const {
    return seq_.idle() && !latch_.has_value() && pipe_.empty() &&
           !div_.busy && !lsu_.busy && error_.empty();
  }
  /// Every SSR streamer idle (its fetch is a no-op until re-armed).
  [[nodiscard]] bool streams_idle() const {
    for (const ssr::Streamer& s : streamers_) {
      if (!s.idle()) return false;
    }
    return true;
  }
  /// Counter effects of `n` idle ticks (begin_cycle() included: its flag
  /// resets are redone by the next live cycle's begin_cycle()).
  void skip(u64 n) { perf_.fp_queue_empty += n; }

  void set_ssr_enable(bool enable) { ssr_enabled_ = enable; }
  [[nodiscard]] bool ssr_enabled() const { return ssr_enabled_; }
  void set_chain_mask(u32 mask);
  [[nodiscard]] u32 chain_mask() const { return chain_.mask(); }

  Status cfg_write(i32 index, u32 value);
  [[nodiscard]] u32 cfg_read(i32 index) const;

  // --- simulation loop interface ---
  void begin_cycle(Cycle now);
  void tick(Cycle now, CorePort& port);
  ssr::Streamer& streamer(u32 i) { return streamers_[i]; }
  [[nodiscard]] const ssr::Streamer& streamer(u32 i) const { return streamers_[i]; }

  [[nodiscard]] bool has_error() const { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  // --- observability ---
  [[nodiscard]] const std::array<u64, isa::kNumFpRegs>& fregs() const { return fregs_; }
  [[nodiscard]] std::array<u64, isa::kNumFpRegs>& fregs() { return fregs_; }
  [[nodiscard]] const chain::ChainUnit& chain() const { return chain_; }
  /// Mutable chain-unit access for fault injection (sim::FaultPlan).
  [[nodiscard]] chain::ChainUnit& chain_mut() { return chain_; }
  [[nodiscard]] const FpuPipeline& pipeline() const { return pipe_; }
  [[nodiscard]] const Sequencer& sequencer() const { return seq_; }
  /// Disassembly of the op issued this cycle ("" if none) for the trace.
  /// Only maintained when SimConfig::trace is set.
  [[nodiscard]] const std::string& last_issue() const { return last_issue_; }
  /// Stall cause tag of this cycle ("" if none). Stored as a pointer to a
  /// string literal so the hot loop never touches a std::string.
  [[nodiscard]] const char* last_stall() const { return last_stall_; }

 private:
  enum class SrcKind : u8 { kRf, kSsr, kChain };

  struct LatchEntry {
    FpuSlot slot;
    isa::ExecClass unit;
  };

  struct LsuPending {
    bool busy = false;
    u8 rd = 0;
    DestKind dest = DestKind::kNone;
    u64 value = 0;
    Cycle ready_at = 0;
  };

  void fail(const std::string& message) { if (error_.empty()) error_ = message; }
  /// Record this cycle's issued op for the trace (no-op unless tracing).
  void note_issue(const isa::Instr& in);

  /// Classify a source register under current SSR/chain mappings.
  SrcKind classify_src(u8 reg) const;
  /// True when the source operand can be read/popped this cycle; on false,
  /// bumps the corresponding stall counter.
  bool src_ready(u8 reg);
  /// Read/pop the source operand value (commits SSR/chain pops).
  u64 read_src(u8 reg);
  /// Resolve the destination kind for an FP-destination instruction.
  std::optional<DestKind> resolve_dest(u8 rd);

  void try_fill_latch(Cycle now, CorePort& port);
  void fill_compute(const FpOp& op, Cycle now);
  void fill_load(const FpOp& op, Cycle now, CorePort& port);
  void fill_store(const FpOp& op, Cycle now, CorePort& port);
  /// Attempt writeback of `slot`; returns false when blocked (backpressure).
  bool try_writeback(const FpuSlot& slot, Cycle now);
  void tick_lsu(Cycle now);
  void drain_latch(Cycle now);

  const SimConfig& cfg_;
  Memory& mem_;
  Tcdm& tcdm_;
  PerfCounters& perf_;
  const u32 lsu_req_; // the owning core's LSU requester id in the shared TCDM

  Sequencer seq_;
  FpuPipeline pipe_;
  IterativeUnit div_;
  LsuPending lsu_;
  chain::ChainUnit chain_;

  std::array<u64, isa::kNumFpRegs> fregs_{};
  std::array<u8, isa::kNumFpRegs> busy_f_{}; // outstanding writes per register

  bool ssr_enabled_ = false;
  std::array<ssr::SsrRawConfig, ssr::kNumSsrs> ssr_cfgs_{};
  std::array<ssr::Streamer, ssr::kNumSsrs> streamers_;

  std::optional<LatchEntry> latch_;
  std::function<void(const IntWriteback&)> int_wb_;
  std::string error_;
  const bool trace_;
  std::string last_issue_;
  const char* last_stall_ = "";
  u64 issue_seq_ = 0;
};

} // namespace sch::sim
