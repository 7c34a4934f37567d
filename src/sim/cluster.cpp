#include "sim/cluster.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace sch::sim {

Cluster::Cluster(Program program, Memory& memory, const SimConfig& config)
    : Cluster(
          [&] {
            std::vector<Program> programs;
            programs.push_back(std::move(program));
            return programs;
          }(),
          memory, config) {}

Cluster::Cluster(std::vector<Program> programs, Memory& memory,
                 const SimConfig& config)
    : cfg_(config),
      gate_(config.gating()),
      mem_(memory),
      // One requester block per core plus the cluster DMA engine's port.
      tcdm_(config.tcdm,
            std::max<u32>(config.num_cores, 1) * kTcdmPortsPerCore + 1),
      dma_(dma::EngineConfig{config.main_mem_latency,
                             config.main_mem_bytes_per_cycle,
                             config.dma_queue_depth, 1024},
           memory, std::max<u32>(config.num_cores, 1),
           Tcdm::dma_requester_id(std::max<u32>(config.num_cores, 1))) {
  const Status valid = cfg_.validate();
  if (!valid.is_ok()) throw std::invalid_argument(valid.message());
  if (programs.empty()) {
    throw std::invalid_argument("Cluster: at least one program is required");
  }
  if (programs.size() != 1 && programs.size() != cfg_.num_cores) {
    throw std::invalid_argument(
        "Cluster: need one program total or one per core (" +
        std::to_string(programs.size()) + " programs for " +
        std::to_string(cfg_.num_cores) + " cores)");
  }
  cores_.reserve(cfg_.num_cores);
  for (u32 h = 0; h < cfg_.num_cores; ++h) {
    Program prog = programs.size() == 1 ? programs[0] : std::move(programs[h]);
    cores_.push_back(
        std::make_unique<Core>(std::move(prog), mem_, tcdm_, cfg_, h, &dma_));
  }
}

bool Cluster::fully_halted() const {
  for (const auto& core : cores_) {
    if (!core->fully_halted()) return false;
  }
  return true;
}

TickCounters Cluster::tick_counters() const {
  TickCounters sum;
  for (const auto& core : cores_) {
    sum.core_ticks += core->tick_counters().core_ticks;
    sum.fp_gated += core->tick_counters().fp_gated;
    sum.skipped += core->tick_counters().skipped;
    sum.parked += core->tick_counters().parked;
  }
  sum.jumped_cycles = jumped_cycles_;
  return sum;
}

u64 Cluster::progress() const {
  u64 p = dma_.stats().bytes_moved + dma_.stats().startup_cycles;
  for (const auto& core : cores_) {
    p += core->perf().total_retired() + core->perf().offloads;
  }
  return p;
}

PerfCounters Cluster::perf() const {
  if (cores_.size() == 1) return cores_[0]->perf();
  PerfCounters agg;
  for (const auto& core : cores_) agg += core->perf();
  agg.cycles = cycle_; // cluster cycles, not the sum of active spans
  return agg;
}

void Cluster::apply_faults() {
  for (const Fault& f : cfg_.faults->faults) {
    switch (f.kind) {
      case FaultKind::kFlipFpReg:
        if (f.cycle == cycle_ && f.hart < num_cores()) {
          cores_[f.hart]->fp_mut().fregs()[f.reg % isa::kNumFpRegs] ^= f.bits;
        }
        break;
      case FaultKind::kDropChainEntry:
        if (f.cycle == cycle_ && f.hart < num_cores()) {
          cores_[f.hart]->fp_mut().chain_mut().drop(f.reg % isa::kNumFpRegs);
        }
        break;
      case FaultKind::kStallTcdmBank:
        if (cycle_ >= f.cycle && cycle_ - f.cycle < f.duration) {
          tcdm_.force_bank_busy(f.bank);
        }
        break;
      case FaultKind::kTruncateDmaBeat:
        if (f.cycle == cycle_) {
          dma_.inject_beat_drop(static_cast<u32>(f.duration));
        }
        break;
    }
  }
}

void Cluster::tick() {
  ++cycle_;
  tcdm_.begin_cycle();
  if (cfg_.faults != nullptr) apply_faults();

  // Rotate the service order each cycle so no requester is statically
  // favored in the bank arbiter (fair round-robin): the rotation covers the
  // cores plus one slot for the cluster DMA engine, which contends for
  // banks like any other requester but can never starve a core. An idle
  // engine makes no requests, so with DMA off the cores see exactly the
  // pre-Xdma arbitration.
  const u32 n = num_cores();
  const u32 slots = n + 1;
  u32 slot = static_cast<u32>(cycle_ % slots);
  for (u32 k = 0; k < slots; ++k) {
    if (slot < n) {
      cores_[slot]->tick(cycle_);
    } else {
      dma_.tick(cycle_, tcdm_);
    }
    if (++slot == slots) slot = 0;
  }

  // Progress watchdog across the whole cluster (a spinning barrier still
  // retires branches and a draining DMA still moves bytes or burns startup
  // latency, so only a true wedge trips it -- even a transfer whose
  // startup alone exceeds deadlock_cycles counts as progress).
  const u64 retired = progress();
  if (retired != last_progress_retired_) {
    last_progress_retired_ = retired;
    last_progress_cycle_ = cycle_;
  } else if (cycle_ - last_progress_cycle_ > cfg_.deadlock_cycles) {
    const PerfCounters p = perf();
    // Report the first still-running core's pc (the wedged one, usually).
    Addr pc = cores_[0]->int_core().pc();
    halt_hart_ = 0;
    for (u32 h = 0; h < num_cores(); ++h) {
      if (!cores_[h]->fully_halted()) {
        pc = cores_[h]->int_core().pc();
        halt_hart_ = static_cast<i32>(h);
        break;
      }
    }
    deadlocked_ = true;
    halt_pc_ = static_cast<i64>(pc);
    std::ostringstream os;
    os << "deadlock: no instruction retired for " << cfg_.deadlock_cycles
       << " cycles at cycle " << cycle_ << " (pc=0x" << std::hex << pc
       << std::dec << ", chain-empty=" << p.stall_chain_empty
       << ", ssr-empty=" << p.stall_ssr_empty
       << ", chain-full=" << p.stall_chain_full << ")";
    halt_ = HaltReason::kError;
    error_ = os.str();
  }

  for (u32 h = 0; h < n; ++h) {
    if (cores_[h]->has_error()) {
      halt_ = HaltReason::kError;
      error_ = n == 1 ? cores_[h]->error()
                      : "hart " + std::to_string(h) + ": " + cores_[h]->error();
      halt_hart_ = static_cast<i32>(h);
      halt_pc_ = static_cast<i64>(cores_[h]->int_core().pc());
      break;
    }
  }
}

void Cluster::jump() {
  // Every core must be halted or parked: no next event of its own, so the
  // cluster horizon is the DMA engine's (a parked core wakes only on a
  // DMA completion, which cannot happen before it).
  for (const auto& core : cores_) {
    if (core->next_event(cycle_) != kNever) return;
  }
  const Cycle horizon = dma_.next_event(cycle_);
  if (horizon <= cycle_ + 1) return;
  // Skip the cycles before the horizon, but keep real the ticks that cross
  // the cycle budget, reach the next wall-clock check, or could fire the
  // watchdog (the first cycle past last_progress_cycle_ + deadlock_cycles).
  Cycle end = horizon - 1;
  end = std::min(end, cfg_.max_cycles - 1);
  if (cfg_.max_wall_ms != 0) end = std::min(end, next_wall_check_);
  if (cfg_.deadlock_cycles < kNever - last_progress_cycle_) {
    end = std::min(end, last_progress_cycle_ + cfg_.deadlock_cycles);
  }
  if (end <= cycle_) return;
  const u64 n = end - cycle_;
  u64 quiet = dma_.skip(n);
  for (const auto& core : cores_) quiet = std::min(quiet, core->skip(n));
  cycle_ = end;
  jumped_cycles_ += n;
  // Re-baseline the watchdog on the last skipped cycle that made progress,
  // exactly where the cycle-by-cycle run would have left it.
  if (quiet < n) {
    last_progress_retired_ = progress();
    last_progress_cycle_ = end - quiet;
  }
}

bool Cluster::step() {
  if (halt_ != HaltReason::kNone) return false;
  if (!started_) {
    for (const auto& core : cores_) core->load_image();
    started_ = true;
    if (cfg_.max_wall_ms != 0) wall_start_ = std::chrono::steady_clock::now();
  }
  // Wall-clock budget, checked off the hot path (every 4096 cycles).
  if (cfg_.max_wall_ms != 0 && cycle_ >= next_wall_check_) {
    next_wall_check_ = (cycle_ | 0xFFF) + 1;
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - wall_start_);
    if (static_cast<u64>(elapsed.count()) > cfg_.max_wall_ms) {
      halt_ = HaltReason::kMaxSteps;
      error_ = "wall-clock budget exhausted (" +
               std::to_string(cfg_.max_wall_ms) + " ms) at cycle " +
               std::to_string(cycle_);
      return false;
    }
  }
  if (gate_) jump();
  tick();
  if (halt_ != HaltReason::kNone) return false;
  // The cluster keeps ticking a draining DMA queue after every core has
  // halted, so a final copy-back still commits its bytes.
  if (fully_halted() && dma_.idle()) {
    halt_ = cores_[0]->halt_reason();
    return false;
  }
  if (cycle_ >= cfg_.max_cycles) {
    halt_ = HaltReason::kMaxSteps;
    error_ = "cycle budget exhausted";
    return false;
  }
  return true;
}

HaltReason Cluster::run() {
  while (step()) {
  }
  return halt_;
}

} // namespace sch::sim
