// Integer core of the pseudo-dual-issue pair: fetch/issue at most one
// instruction per cycle; FP-domain instructions are offloaded into the FP
// subsystem's queue with their integer operands captured (addresses for
// fld/fsd, rs1 values for int->FP ops and frep), after which the core moves
// on -- FP stalls only reach the core through a full offload queue.
//
// Issue dispatches through the program's predecoded handler records; delayed
// register writebacks live in a fixed-capacity array (bounded by one
// outstanding write per architectural register), so the per-cycle loop is
// allocation-free.
#pragma once

#include <array>
#include <string>

#include "asm/program.hpp"
#include "dma/dma.hpp"
#include "iss/arch_state.hpp"
#include "mem/memory.hpp"
#include "mem/tcdm.hpp"
#include "sim/fp_subsystem.hpp"
#include "sim/perf.hpp"
#include "sim/sim_config.hpp"

namespace sch::sim {

class IntCore {
 public:
  /// `hartid` selects this core's mhartid CSR value and its TCDM requester
  /// block (hartid * kTcdmPortsPerCore + role). `dma` is the cluster-shared
  /// DMA engine the Xdma instructions program (may be null in unit tests
  /// that never execute dm* instructions).
  IntCore(const Program& prog, Memory& mem, Tcdm& tcdm, const SimConfig& cfg,
          PerfCounters& perf, FpSubsystem& fp, u32 hartid = 0,
          dma::Engine* dma = nullptr);

  /// Commit scheduled register writes (loads, muls, FP->int results) whose
  /// latency has elapsed. Call at the start of each cycle.
  void commit_pending(Cycle now);

  void tick(Cycle now, CorePort& port);

  /// Schedule a delayed integer register write (also used by the FP
  /// subsystem for compare/convert writebacks).
  void schedule_write(u8 rd, u32 value, Cycle ready_at);

  [[nodiscard]] bool halting() const { return halt_ != HaltReason::kNone; }
  /// No scheduled register writes outstanding (halt must wait for these).
  [[nodiscard]] bool pending_empty() const { return pending_size_ == 0; }
  [[nodiscard]] HaltReason halt_reason() const { return halt_; }
  [[nodiscard]] bool has_error() const { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  // --- activity contract (see sim/cluster.hpp) ---
  /// The next tick would only count: halted, in taken-branch bubbles, or
  /// parked on a DMA poll loop whose DMA count has not moved since.
  [[nodiscard]] bool idle() const {
    if (halt_ != HaltReason::kNone) return true;
    if (parked_ && poll_read() == poll_value_) return true;
    return bubbles_ > 0;
  }
  /// kNever when halted or parked (a parked core wakes only when its DMA
  /// count moves, which the DMA engine's own next_event() bounds); the
  /// first issue cycle after the bubbles; otherwise now + 1.
  [[nodiscard]] Cycle next_event(Cycle now) const;
  /// Apply `n` idle ticks in closed form: n must stay inside the idle
  /// window (within the bubbles unless parked). A parked core replays whole
  /// poll-loop periods -- dmstat, branch, taken_branch_penalty bubbles --
  /// from counters. Returns the trailing skipped ticks without a retirement
  /// (the watchdog's view).
  u64 skip(u64 n);

  /// Spinning on a predecoded DMA poll site with a quiescent FP side
  /// (entered by the dmstat itself; only under SimConfig::gating()).
  [[nodiscard]] bool parked() const { return parked_; }
  /// Leave the parked state: the loop's registers, pc and bubbles are kept
  /// exact while parked, so the normal tick resumes where the replay stood.
  void unpark() { parked_ = false; }

  [[nodiscard]] const std::array<u32, isa::kNumIntRegs>& regs() const { return x_; }
  [[nodiscard]] Addr pc() const { return pc_; }
  /// Disassembly of this cycle's integer-core action (trace support; only
  /// maintained when SimConfig::trace is set).
  [[nodiscard]] const std::string& last_issue() const { return last_issue_; }

 private:
  struct Pending {
    u8 rd;
    u32 value;
    Cycle ready_at;
  };

  using Handler = void (IntCore::*)(const isa::Instr&,
                                    const isa::PredecodedInstr&, Cycle,
                                    CorePort&);
  static const Handler kHandlers[static_cast<usize>(isa::ExecHandler::kCount)];

  void fail(const std::string& message);
  [[nodiscard]] u32 read_x(u8 r) const { return x_[r]; }
  void write_x(u8 r, u32 v) {
    if (r != 0) x_[r] = v;
  }
  [[nodiscard]] bool ready_x(u8 r) const { return !busy_x_[r]; }
  void note_issue(const isa::Instr& in);

  void exec_offload(const isa::Instr& in, const isa::PredecodedInstr& pre,
                    Cycle now);
  u32 csr_read(u32 addr, Cycle now) const;
  void csr_apply(u32 addr, u32 value);

  // Handler-table targets (one per isa::ExecHandler, specials pre-resolved).
  void h_unexpected(const isa::Instr&, const isa::PredecodedInstr&, Cycle,
                    CorePort&);
  void h_lui(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_auipc(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_alu_imm(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_alu_reg(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_mul(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_div(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_jal(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_jalr(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_branch(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_load(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_load_s8(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_load_s16(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_store(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_csr(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_ecall(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_ebreak(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_fence(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_scfg_w(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_scfg_r(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_dma_src(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_dma_dst(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_dma_str(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_dma_cpy(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_dma_cpy2d(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  void h_dma_stat(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);

  /// The value `dmstat rd, sel` reads now for this hart.
  [[nodiscard]] u32 dma_stat(bool outstanding) const {
    return outstanding ? dma_->outstanding(hartid_) : dma_->completed(hartid_);
  }
  [[nodiscard]] u32 poll_read() const { return dma_stat(poll_outstanding_); }
  /// After the dmstat at poll site `site` retired: park when the loop
  /// branch will be taken and nothing but the DMA engine can end the spin.
  void try_park(Addr site, bool outstanding, u32 value);

  /// Shared tail of dmcpy/dmcpy2d once operands are read: validate, check
  /// queue space, issue, and write the transfer id into rd.
  void dma_issue(const isa::Instr& in, Cycle now, u32 row_bytes, u32 rows);

  /// Shared tail of an integer load once the effective address is accepted.
  bool load_issue(const isa::Instr& in, const isa::PredecodedInstr& pre,
                  Cycle now, CorePort& port, Cycle& ready_at, u64& value);

  const Program& prog_;
  Memory& mem_;
  Tcdm& tcdm_;
  const SimConfig& cfg_;
  PerfCounters& perf_;
  FpSubsystem& fp_;
  dma::Engine* dma_;
  const bool trace_;
  const bool gate_;  // SimConfig::gating(): parking allowed
  const u32 hartid_;
  const u32 lsu_req_; // this core's LSU requester id in the shared TCDM

  Addr pc_;
  std::array<u32, isa::kNumIntRegs> x_{};
  std::array<bool, isa::kNumIntRegs> busy_x_{};
  /// Outstanding delayed writebacks. Bounded by kNumIntRegs: issue stalls on
  /// a busy rd, so at most one write per register is in flight.
  std::array<Pending, isa::kNumIntRegs> pending_{};
  u32 pending_size_ = 0;
  u32 bubbles_ = 0;
  Cycle div_busy_until_ = 0;
  // Parked DMA poll loop: dmstat at poll_pc_, its branch at poll_pc_ + 4.
  bool parked_ = false;
  bool poll_outstanding_ = false;  // dmstat sel != 0
  u32 poll_value_ = 0;             // the DMA count the spin keeps reading
  Addr poll_pc_ = 0;
  HaltReason halt_ = HaltReason::kNone;
  std::string error_;
  std::string last_issue_;
};

} // namespace sch::sim
