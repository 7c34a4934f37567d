#include "sim/core.hpp"

namespace sch::sim {

Core::Core(Program program, Memory& memory, Tcdm& tcdm,
           const SimConfig& config, u32 hartid, dma::Engine* dma)
    : prog_(std::move(program)),
      mem_(memory),
      tcdm_(tcdm),
      cfg_(config),
      hartid_(hartid),
      gate_(config.gating()) {
  prog_.ensure_predecoded();
  fp_ = std::make_unique<FpSubsystem>(cfg_, mem_, tcdm_, perf_, hartid_);
  core_ = std::make_unique<IntCore>(prog_, mem_, tcdm_, cfg_, perf_, *fp_,
                                    hartid_, dma);
  fp_->set_int_wb_sink([this](const IntWriteback& wb) {
    core_->schedule_write(wb.rd, wb.value, wb.ready_at);
  });
}

void Core::load_image() {
  mem_.load_image(prog_.data_base, prog_.data);
}

void Core::tick(Cycle now) {
  if (halted_at_ != 0) return; // drained; freeze per-core counters
  if (gate_) {
    // An idle core (parked poll loop, or bubbles with a quiescent FP side)
    // replays the cycle from counters. This runs in the core's rotation
    // slot, so a DMA completion earlier in the cycle is seen exactly when
    // the parked loop's dmstat would see it -- and then ends the parking.
    if (idle()) {
      skip(1);
      return;
    }
    core_->unpark();
  }
  ++ticks_.core_ticks;
  const bool fp_live = !gate_ || !fp_->idle();
  if (fp_live) fp_->begin_cycle(now);
  CorePort port;

  core_->commit_pending(now);
  if (fp_live) {
    fp_->tick(now, port);
  } else {
    fp_->skip(1);
    ++ticks_.fp_gated;
  }
  core_->tick(now, port);

  // SSR streamers fetch last: the core's LSU has bank priority within the
  // cycle; the three streamer ports rotate round-robin among themselves.
  // With the FP side idle they are re-checked after the integer tick, which
  // may have just armed a stream.
  if (fp_live || !fp_->streams_idle()) {
    static constexpr TcdmPortId kSsrPorts[3] = {
        TcdmPortId::kSsr0, TcdmPortId::kSsr1, TcdmPortId::kSsr2};
    for (u32 k = 0; k < ssr::kNumSsrs; ++k) {
      const u32 i = (ssr_rr_ + k) % ssr::kNumSsrs;
      fp_->streamer(i).tick_fetch(now, tcdm_, mem_,
                                  Tcdm::requester_id(hartid_, kSsrPorts[i]));
    }
  }
  ssr_rr_ = (ssr_rr_ + 1) % ssr::kNumSsrs;

  ++perf_.cycles;
  if (fully_halted()) halted_at_ = now;
}

u64 Core::skip(u64 n) {
  if (halted_at_ != 0) return n;
  perf_.cycles += n;
  ticks_.skipped += n;
  if (core_->parked()) ticks_.parked += n;
  fp_->skip(n);
  ssr_rr_ = static_cast<u32>((ssr_rr_ + n % ssr::kNumSsrs) % ssr::kNumSsrs);
  return core_->skip(n);
}

ArchState Core::arch_state() const {
  ArchState s;
  s.pc = core_->pc();
  for (u8 r = 0; r < isa::kNumIntRegs; ++r) s.x[r] = core_->regs()[r];
  s.f = fp_->fregs();
  return s;
}

} // namespace sch::sim
