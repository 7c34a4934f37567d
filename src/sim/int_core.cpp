#include "sim/int_core.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "isa/csr.hpp"
#include "isa/disasm.hpp"
#include "iss/exec_semantics.hpp"

namespace sch::sim {

using isa::ExecHandler;
using isa::Instr;
using isa::Mnemonic;
using isa::PredecodedInstr;

IntCore::IntCore(const Program& prog, Memory& mem, Tcdm& tcdm,
                 const SimConfig& cfg, PerfCounters& perf, FpSubsystem& fp,
                 u32 hartid, dma::Engine* dma)
    : prog_(prog), mem_(mem), tcdm_(tcdm), cfg_(cfg), perf_(perf), fp_(fp),
      dma_(dma), trace_(cfg.trace), gate_(cfg.gating()), hartid_(hartid),
      lsu_req_(Tcdm::requester_id(hartid, TcdmPortId::kCoreLsu)),
      pc_(prog.text_base) {}

void IntCore::fail(const std::string& message) {
  if (halt_ != HaltReason::kNone) return;
  halt_ = HaltReason::kError;
  std::ostringstream os;
  os << "pc=0x" << std::hex << pc_ << std::dec << ": " << message;
  error_ = os.str();
}

void IntCore::note_issue(const Instr& in) {
  if (trace_) last_issue_ = isa::disassemble(in);
}

void IntCore::schedule_write(u8 rd, u32 value, Cycle ready_at) {
  if (rd == 0) return;
  busy_x_[rd] = true;
  assert(pending_size_ < pending_.size() &&
         "pending writeback queue exceeds one in-flight write per register");
  pending_[pending_size_++] = {rd, value, ready_at};
}

void IntCore::commit_pending(Cycle now) {
  u32 i = 0;
  while (i < pending_size_) {
    if (pending_[i].ready_at <= now) {
      write_x(pending_[i].rd, pending_[i].value);
      busy_x_[pending_[i].rd] = false;
      ++perf_.rf_int_writes;
      pending_[i] = pending_[--pending_size_]; // swap-remove; order is free
    } else {
      ++i;
    }
  }
}

u32 IntCore::csr_read(u32 addr, Cycle now) const {
  switch (addr) {
    case isa::csr::kCycle:
    case isa::csr::kMcycle:
      return static_cast<u32>(now);
    case isa::csr::kInstret:
    case isa::csr::kMinstret:
      return static_cast<u32>(perf_.total_retired());
    case isa::csr::kMhartid:
      return hartid_;
    case isa::csr::kMnumharts:
      return cfg_.num_cores;
    case isa::csr::kSsrEnable:
      return fp_.ssr_enabled() ? 1u : 0u;
    case isa::csr::kChainMask:
      return fp_.chain_mask();
    default:
      return 0;
  }
}

void IntCore::csr_apply(u32 addr, u32 value) {
  switch (addr) {
    case isa::csr::kSsrEnable:
      fp_.set_ssr_enable((value & 1u) != 0);
      return;
    case isa::csr::kChainMask:
      fp_.set_chain_mask(value);
      return;
    default:
      return; // other CSRs are read-only or no-op in this model
  }
}

void IntCore::exec_offload(const Instr& in, const PredecodedInstr& pre,
                           [[maybe_unused]] Cycle now) {
  const isa::MnemonicInfo& mi = *pre.mi;
  // Integer operands are captured at offload time.
  const bool needs_rs1 = mi.rs1 == isa::RegClass::kInt;
  if (needs_rs1 && !ready_x(in.rs1)) {
    ++perf_.stall_int_raw;
    return;
  }
  // FP->int results write back asynchronously; guard in-order WAW.
  const bool writes_int = mi.rd == isa::RegClass::kInt;
  if (writes_int && !ready_x(in.rd)) {
    ++perf_.stall_int_raw;
    return;
  }
  if (!fp_.offload_ready()) {
    ++perf_.stall_offload_full;
    return;
  }

  FpOp op;
  op.in = in;
  op.mi = pre.mi;
  if (needs_rs1) {
    ++perf_.rf_int_reads;
    const u32 rs1 = read_x(in.rs1);
    op.int_operand = (pre.handler == ExecHandler::kFpLoad ||
                      pre.handler == ExecHandler::kFpStore)
                         ? rs1 + static_cast<u32>(pre.aux)
                         : rs1;
  }
  // Released by the FP writeback; x0 is exempt (the writeback drops it, so
  // marking it busy would wedge every later x0-reading instruction).
  if (writes_int && in.rd != 0) busy_x_[in.rd] = true;
  fp_.offload(op);
  ++perf_.offloads;
  if (trace_) last_issue_ = "offload " + isa::disassemble(in);
  pc_ += 4;
}

// --- handler-table targets --------------------------------------------------

void IntCore::h_unexpected(const Instr& in, const PredecodedInstr&, Cycle,
                           CorePort&) {
  fail("unhandled instruction on the integer core: " + isa::disassemble(in));
}

void IntCore::h_lui(const Instr& in, const PredecodedInstr& pre, Cycle,
                    CorePort&) {
  if (!ready_x(in.rd)) {
    ++perf_.stall_int_raw;
    return;
  }
  write_x(in.rd, static_cast<u32>(pre.aux));
  ++perf_.rf_int_writes;
  ++perf_.int_alu_ops;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

void IntCore::h_auipc(const Instr& in, const PredecodedInstr& pre, Cycle,
                      CorePort&) {
  if (!ready_x(in.rd)) {
    ++perf_.stall_int_raw;
    return;
  }
  write_x(in.rd, pc_ + static_cast<u32>(pre.aux));
  ++perf_.rf_int_writes;
  ++perf_.int_alu_ops;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

void IntCore::h_alu_imm(const Instr& in, const PredecodedInstr& pre, Cycle,
                        CorePort&) {
  if (!ready_x(in.rs1)) {
    ++perf_.stall_int_raw;
    return;
  }
  ++perf_.rf_int_reads;
  const u32 result =
      exec::int_op(in.mn, read_x(in.rs1), static_cast<u32>(pre.aux));
  if (!ready_x(in.rd)) {
    ++perf_.stall_int_raw;
    return;
  }
  write_x(in.rd, result);
  ++perf_.rf_int_writes;
  ++perf_.int_alu_ops;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

void IntCore::h_alu_reg(const Instr& in, const PredecodedInstr&, Cycle,
                        CorePort&) {
  if (!ready_x(in.rs1) || !ready_x(in.rs2)) {
    ++perf_.stall_int_raw;
    return;
  }
  perf_.rf_int_reads += 2;
  const u32 result = exec::int_op(in.mn, read_x(in.rs1), read_x(in.rs2));
  if (!ready_x(in.rd)) {
    ++perf_.stall_int_raw;
    return;
  }
  write_x(in.rd, result);
  ++perf_.rf_int_writes;
  ++perf_.int_alu_ops;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

void IntCore::h_mul(const Instr& in, const PredecodedInstr&, Cycle now,
                    CorePort&) {
  if (!ready_x(in.rs1) || !ready_x(in.rs2) || !ready_x(in.rd)) {
    ++perf_.stall_int_raw;
    return;
  }
  perf_.rf_int_reads += 2;
  const u32 result = exec::int_op(in.mn, read_x(in.rs1), read_x(in.rs2));
  schedule_write(in.rd, result, now + cfg_.int_mul_latency);
  ++perf_.int_mul_ops;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

void IntCore::h_div(const Instr& in, const PredecodedInstr&, Cycle now,
                    CorePort&) {
  if (!ready_x(in.rs1) || !ready_x(in.rs2) || !ready_x(in.rd)) {
    ++perf_.stall_int_raw;
    return;
  }
  perf_.rf_int_reads += 2;
  const u32 result = exec::int_op(in.mn, read_x(in.rs1), read_x(in.rs2));
  write_x(in.rd, result);
  ++perf_.rf_int_writes;
  div_busy_until_ = now + cfg_.int_div_latency; // blocking divider
  ++perf_.int_div_ops;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

bool IntCore::load_issue(const Instr& in, const PredecodedInstr& pre,
                         Cycle now, CorePort& port, Cycle& ready_at,
                         u64& value) {
  if (!ready_x(in.rs1) || !ready_x(in.rd)) {
    ++perf_.stall_int_raw;
    return false;
  }
  const Addr ea = read_x(in.rs1) + static_cast<u32>(pre.aux);
  if (!mem_.valid(ea, pre.mem_bytes)) {
    fail("load from unmapped address");
    return false;
  }
  // Program-order interlock against offloaded FP stores to this address.
  if (fp_.mem_hazard(ea, pre.mem_bytes, /*int_is_write=*/false)) {
    ++perf_.stall_int_lsu;
    return false;
  }
  if (Memory::in_tcdm(ea)) {
    if (port.used) {
      ++perf_.stall_int_lsu;
      return false;
    }
    if (!tcdm_.request(lsu_req_, ea, false)) {
      ++perf_.stall_int_lsu;
      return false;
    }
    port.used = true;
    ready_at = now + 1 + cfg_.load_latency;
  } else {
    ready_at = now + cfg_.main_mem_latency;
  }
  ++perf_.rf_int_reads;
  value = mem_.load(ea, pre.mem_bytes);
  return true;
}

void IntCore::h_load(const Instr& in, const PredecodedInstr& pre, Cycle now,
                     CorePort& port) {
  Cycle ready_at = 0;
  u64 v = 0;
  if (!load_issue(in, pre, now, port, ready_at, v)) return;
  schedule_write(in.rd, static_cast<u32>(v), ready_at);
  ++perf_.int_loads;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

void IntCore::h_load_s8(const Instr& in, const PredecodedInstr& pre, Cycle now,
                        CorePort& port) {
  Cycle ready_at = 0;
  u64 v = 0;
  if (!load_issue(in, pre, now, port, ready_at, v)) return;
  const u32 sext = static_cast<u32>(static_cast<i32>(static_cast<i8>(v)));
  schedule_write(in.rd, sext, ready_at);
  ++perf_.int_loads;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

void IntCore::h_load_s16(const Instr& in, const PredecodedInstr& pre,
                         Cycle now, CorePort& port) {
  Cycle ready_at = 0;
  u64 v = 0;
  if (!load_issue(in, pre, now, port, ready_at, v)) return;
  const u32 sext = static_cast<u32>(static_cast<i32>(static_cast<i16>(v)));
  schedule_write(in.rd, sext, ready_at);
  ++perf_.int_loads;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

void IntCore::h_store(const Instr& in, const PredecodedInstr& pre, Cycle,
                      CorePort& port) {
  if (!ready_x(in.rs1) || !ready_x(in.rs2)) {
    ++perf_.stall_int_raw;
    return;
  }
  const Addr ea = read_x(in.rs1) + static_cast<u32>(pre.aux);
  if (!mem_.valid(ea, pre.mem_bytes)) {
    fail("store to unmapped address");
    return;
  }
  // Program-order interlock against offloaded FP loads/stores to this
  // address: the store must not overtake an older queued fld/fsd.
  if (fp_.mem_hazard(ea, pre.mem_bytes, /*int_is_write=*/true)) {
    ++perf_.stall_int_lsu;
    return;
  }
  if (Memory::in_tcdm(ea)) {
    if (port.used) {
      ++perf_.stall_int_lsu;
      return;
    }
    if (!tcdm_.request(lsu_req_, ea, true)) {
      ++perf_.stall_int_lsu;
      return;
    }
    port.used = true;
  }
  perf_.rf_int_reads += 2;
  mem_.store(ea, read_x(in.rs2), pre.mem_bytes);
  ++perf_.int_stores;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

void IntCore::h_branch(const Instr& in, const PredecodedInstr& pre, Cycle,
                       CorePort&) {
  if (!ready_x(in.rs1) || !ready_x(in.rs2)) {
    ++perf_.stall_int_raw;
    return;
  }
  perf_.rf_int_reads += 2;
  ++perf_.branches;
  ++perf_.int_instrs;
  note_issue(in);
  if (exec::branch_taken(in.mn, read_x(in.rs1), read_x(in.rs2))) {
    pc_ += static_cast<u32>(pre.aux);
    bubbles_ = cfg_.taken_branch_penalty;
  } else {
    pc_ += 4;
  }
}

void IntCore::h_jal(const Instr& in, const PredecodedInstr& pre, Cycle,
                    CorePort&) {
  if (!ready_x(in.rd)) {
    ++perf_.stall_int_raw;
    return;
  }
  const u32 link = pc_ + 4;
  pc_ += static_cast<u32>(pre.aux);
  write_x(in.rd, link);
  ++perf_.rf_int_writes;
  bubbles_ = cfg_.taken_branch_penalty;
  ++perf_.int_instrs;
  note_issue(in);
}

void IntCore::h_jalr(const Instr& in, const PredecodedInstr& pre, Cycle,
                     CorePort&) {
  if (!ready_x(in.rs1)) {
    ++perf_.stall_int_raw;
    return;
  }
  if (!ready_x(in.rd)) {
    ++perf_.stall_int_raw;
    return;
  }
  const u32 link = pc_ + 4;
  ++perf_.rf_int_reads;
  pc_ = (read_x(in.rs1) + static_cast<u32>(pre.aux)) & ~1u;
  write_x(in.rd, link);
  ++perf_.rf_int_writes;
  bubbles_ = cfg_.taken_branch_penalty;
  ++perf_.int_instrs;
  note_issue(in);
}

void IntCore::h_csr(const Instr& in, const PredecodedInstr& pre, Cycle now,
                    CorePort&) {
  const u32 addr = static_cast<u32>(pre.aux);
  // Stream/chaining CSR writes serialize against in-flight FP work, so
  // enabling/disabling SSRs or chaining never races the FPU pipeline.
  if (isa::csr::is_stream_csr(addr) && !fp_.quiescent()) {
    ++perf_.stall_csr_barrier;
    return;
  }
  u32 operand = 0;
  const bool reg_form = in.mn == Mnemonic::kCsrrw ||
                        in.mn == Mnemonic::kCsrrs || in.mn == Mnemonic::kCsrrc;
  if (reg_form) {
    if (!ready_x(in.rs1)) {
      ++perf_.stall_int_raw;
      return;
    }
    ++perf_.rf_int_reads;
    operand = read_x(in.rs1);
  } else {
    operand = in.rs1; // zimm
  }
  if (!ready_x(in.rd)) {
    ++perf_.stall_int_raw;
    return;
  }
  const u32 old = csr_read(addr, now);
  switch (in.mn) {
    case Mnemonic::kCsrrw: case Mnemonic::kCsrrwi:
      csr_apply(addr, operand);
      break;
    case Mnemonic::kCsrrs: case Mnemonic::kCsrrsi:
      if (operand != 0) csr_apply(addr, old | operand);
      break;
    default:
      if (operand != 0) csr_apply(addr, old & ~operand);
  }
  write_x(in.rd, old);
  ++perf_.csr_ops;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

void IntCore::h_ecall(const Instr&, const PredecodedInstr&, Cycle, CorePort&) {
  halt_ = HaltReason::kEcall;
}

void IntCore::h_ebreak(const Instr&, const PredecodedInstr&, Cycle, CorePort&) {
  halt_ = HaltReason::kEbreak;
}

void IntCore::h_fence(const Instr& in, const PredecodedInstr&, Cycle,
                      CorePort&) {
  // fence: wait for FP-subsystem quiescence (memory ordering barrier).
  if (!fp_.quiescent()) {
    ++perf_.stall_csr_barrier;
    return;
  }
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

void IntCore::h_scfg_w(const Instr& in, const PredecodedInstr&, Cycle,
                       CorePort&) {
  if (!ready_x(in.rs1)) {
    ++perf_.stall_int_raw;
    return;
  }
  ++perf_.rf_int_reads;
  const Status s = fp_.cfg_write(in.imm, read_x(in.rs1));
  if (!s.is_ok()) {
    fail(s.message());
    return;
  }
  ++perf_.csr_ops;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

void IntCore::h_scfg_r(const Instr& in, const PredecodedInstr&, Cycle,
                       CorePort&) {
  if (!ready_x(in.rd)) {
    ++perf_.stall_int_raw;
    return;
  }
  write_x(in.rd, fp_.cfg_read(in.imm));
  ++perf_.rf_int_writes;
  ++perf_.csr_ops;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

// --- Xdma ------------------------------------------------------------------

void IntCore::h_dma_src(const Instr& in, const PredecodedInstr&, Cycle,
                        CorePort&) {
  if (!ready_x(in.rs1)) {
    ++perf_.stall_int_raw;
    return;
  }
  if (dma_ == nullptr) {
    fail("dmsrc without a cluster DMA engine");
    return;
  }
  ++perf_.rf_int_reads;
  dma_->set_src(hartid_, read_x(in.rs1));
  ++perf_.csr_ops;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

void IntCore::h_dma_dst(const Instr& in, const PredecodedInstr&, Cycle,
                        CorePort&) {
  if (!ready_x(in.rs1)) {
    ++perf_.stall_int_raw;
    return;
  }
  if (dma_ == nullptr) {
    fail("dmdst without a cluster DMA engine");
    return;
  }
  ++perf_.rf_int_reads;
  dma_->set_dst(hartid_, read_x(in.rs1));
  ++perf_.csr_ops;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

void IntCore::h_dma_str(const Instr& in, const PredecodedInstr&, Cycle,
                        CorePort&) {
  if (!ready_x(in.rs1) || !ready_x(in.rs2)) {
    ++perf_.stall_int_raw;
    return;
  }
  if (dma_ == nullptr) {
    fail("dmstr without a cluster DMA engine");
    return;
  }
  perf_.rf_int_reads += 2;
  dma_->set_strides(hartid_, static_cast<i32>(read_x(in.rs1)),
                    static_cast<i32>(read_x(in.rs2)));
  ++perf_.csr_ops;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

void IntCore::dma_issue(const Instr& in, Cycle now, u32 row_bytes, u32 rows) {
  // Cheap queue check first: a retry against a full queue must not re-walk
  // the O(rows) footprint validation every cycle (the latches cannot change
  // while this hart is stalled here).
  if (!dma_->can_issue(hartid_)) {
    ++perf_.stall_dma_full;
    dma_->note_queue_full();
    return;
  }
  const Status valid =
      dma::validate_copy(mem_, dma_->snapshot(hartid_, row_bytes, rows));
  if (!valid.is_ok()) {
    fail(valid.message());
    return;
  }
  const u32 id = dma_->issue(hartid_, row_bytes, rows, now);
  write_x(in.rd, id);
  ++perf_.rf_int_writes;
  ++perf_.csr_ops;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
}

void IntCore::h_dma_cpy(const Instr& in, const PredecodedInstr&, Cycle now,
                        CorePort&) {
  if (!ready_x(in.rs1) || !ready_x(in.rd)) {
    ++perf_.stall_int_raw;
    return;
  }
  if (dma_ == nullptr) {
    fail("dmcpy without a cluster DMA engine");
    return;
  }
  ++perf_.rf_int_reads;
  dma_issue(in, now, read_x(in.rs1), 1);
}

void IntCore::h_dma_cpy2d(const Instr& in, const PredecodedInstr&, Cycle now,
                          CorePort&) {
  if (!ready_x(in.rs1) || !ready_x(in.rs2) || !ready_x(in.rd)) {
    ++perf_.stall_int_raw;
    return;
  }
  if (dma_ == nullptr) {
    fail("dmcpy2d without a cluster DMA engine");
    return;
  }
  perf_.rf_int_reads += 2;
  dma_issue(in, now, read_x(in.rs1), read_x(in.rs2));
}

void IntCore::h_dma_stat(const Instr& in, const PredecodedInstr& pre, Cycle,
                         CorePort&) {
  if (!ready_x(in.rd)) {
    ++perf_.stall_int_raw;
    return;
  }
  if (dma_ == nullptr) {
    fail("dmstat without a cluster DMA engine");
    return;
  }
  const bool outstanding = pre.aux != 0;
  const u32 value = dma_stat(outstanding);
  write_x(in.rd, value);
  ++perf_.rf_int_writes;
  ++perf_.csr_ops;
  ++perf_.int_instrs;
  note_issue(in);
  pc_ += 4;
  if (gate_ && (pre.flags & isa::preflag::kDmaPollSite) != 0) {
    try_park(pc_ - 4, outstanding, value);
  }
}

void IntCore::try_park(Addr site, bool outstanding, u32 value) {
  // While parked the loop only rewrites rd with `value`, so its branch keeps
  // its outcome; no writeback may land and the FP side must stay inert
  // (it runs no tick while parked), so an unfinished FP op or stream, or a
  // pending register write, keeps the core on the normal path.
  if (pending_size_ != 0 || !fp_.idle() || !fp_.streams_idle()) return;
  const Instr& br = prog_.instrs[prog_.text_index(site + 4)];
  if (!ready_x(br.rs1) || !ready_x(br.rs2)) return;
  if (!exec::branch_taken(br.mn, read_x(br.rs1), read_x(br.rs2))) return;
  parked_ = true;
  poll_outstanding_ = outstanding;
  poll_value_ = value;
  poll_pc_ = site;
}

Cycle IntCore::next_event(Cycle now) const {
  if (halt_ != HaltReason::kNone) return kNever;
  if (parked_ && poll_read() == poll_value_) return kNever;
  return now + bubbles_ + 1;
}

u64 IntCore::skip(u64 n) {
  if (halt_ != HaltReason::kNone) return n;
  if (n <= bubbles_) {
    bubbles_ -= static_cast<u32>(n);
    perf_.branch_bubbles += n;
    return n;
  }
  assert(parked_);
  // The parked loop is periodic: phase 0 issues the dmstat, phase 1 the
  // taken branch, phases 2 .. period-1 are its bubbles.
  const u64 pen = cfg_.taken_branch_penalty;
  const u64 period = pen + 2;
  const u64 phase =
      bubbles_ > 0 ? 2 + (pen - bubbles_) : (pc_ == poll_pc_ ? 0 : 1);
  const auto count = [&](u64 k) -> u64 {  // skipped ticks in phase k
    const u64 first = (k + period - phase) % period;
    return first < n ? (n - 1 - first) / period + 1 : 0;
  };
  const u64 dmstats = count(0);
  const u64 branches = count(1);
  perf_.rf_int_writes += dmstats;
  perf_.csr_ops += dmstats;
  perf_.rf_int_reads += 2 * branches;
  perf_.branches += branches;
  perf_.int_instrs += dmstats + branches;
  perf_.branch_bubbles += n - dmstats - branches;

  const u64 next = (phase + n) % period;
  pc_ = next == 1 ? poll_pc_ + 4 : poll_pc_;
  bubbles_ = next >= 2 ? static_cast<u32>(pen - (next - 2)) : 0;
  const u64 last = (phase + n - 1) % period;
  return last <= 1 ? 0 : std::min(n, last - 1);
}

const IntCore::Handler
    IntCore::kHandlers[static_cast<usize>(ExecHandler::kCount)] = {
        &IntCore::h_unexpected, // kInvalid (rejected before dispatch)
        &IntCore::h_lui,        // kLui
        &IntCore::h_auipc,      // kAuipc
        &IntCore::h_alu_imm,    // kIntAluImm
        &IntCore::h_alu_reg,    // kIntAluReg
        &IntCore::h_mul,        // kIntMul
        &IntCore::h_div,        // kIntDiv
        &IntCore::h_jal,        // kJal
        &IntCore::h_jalr,       // kJalr
        &IntCore::h_branch,     // kBranch
        &IntCore::h_load,       // kLoad
        &IntCore::h_load_s8,    // kLoadSext8
        &IntCore::h_load_s16,   // kLoadSext16
        &IntCore::h_store,      // kStore
        &IntCore::h_csr,        // kCsr
        &IntCore::h_ecall,      // kEcall
        &IntCore::h_ebreak,     // kEbreak
        &IntCore::h_fence,      // kFence
        &IntCore::h_unexpected, // kFpLoad (FP-domain: offloaded, not here)
        &IntCore::h_unexpected, // kFpStore
        &IntCore::h_unexpected, // kFpMac
        &IntCore::h_unexpected, // kFpDiv
        &IntCore::h_unexpected, // kFpSqrt
        &IntCore::h_unexpected, // kFpCmp
        &IntCore::h_unexpected, // kFpCvtF2I
        &IntCore::h_unexpected, // kFpCvtI2F
        &IntCore::h_unexpected, // kFrep
        &IntCore::h_scfg_w,     // kScfgW
        &IntCore::h_scfg_r,     // kScfgR
        &IntCore::h_dma_src,    // kDmaSrc
        &IntCore::h_dma_dst,    // kDmaDst
        &IntCore::h_dma_str,    // kDmaStr
        &IntCore::h_dma_cpy,    // kDmaCpy
        &IntCore::h_dma_cpy2d,  // kDmaCpy2d
        &IntCore::h_dma_stat,   // kDmaStat
};

void IntCore::tick(Cycle now, CorePort& port) {
  if (trace_) last_issue_.clear();
  if (halt_ != HaltReason::kNone) return;
  if (now < div_busy_until_) {
    ++perf_.int_div_busy;
    return;
  }
  if (bubbles_ > 0) {
    --bubbles_;
    ++perf_.branch_bubbles;
    return;
  }
  const u32 idx = prog_.text_index(pc_);
  if (idx == Program::kNoIndex) {
    halt_ = HaltReason::kOffText;
    return;
  }
  const PredecodedInstr& pre = prog_.pre[idx];
  if (pre.handler == ExecHandler::kInvalid) {
    fail("illegal instruction encoding");
    return;
  }
  const Instr& in = prog_.instrs[idx];
  if (pre.fp_domain) {
    exec_offload(in, pre, now);
  } else {
    (this->*kHandlers[static_cast<usize>(pre.handler)])(in, pre, now, port);
  }
}

} // namespace sch::sim
