// Microarchitectural parameters of the cycle-level core model. Defaults
// reproduce the Snitch configuration of the paper (3-stage FPU, 32-bank
// TCDM, 3 SSRs, FREP sequencer, pseudo dual-issue).
#pragma once

#include <memory>

#include "common/status.hpp"
#include "common/types.hpp"
#include "mem/tcdm.hpp"
#include "sim/fault_plan.hpp"
#include "ssr/streamer.hpp"

namespace sch::sim {

struct SimConfig {
  /// Pipelined FP compute depth (paper: 3 stages; "chaining benefits are
  /// increased for functional units with deeper pipelines").
  u32 fpu_depth = 3;
  /// Iterative (unpipelined) FP operation latencies.
  u32 fdiv_latency = 11;
  u32 fsqrt_latency = 21;

  /// Integer multiplier latency (pipelined).
  u32 int_mul_latency = 2;
  /// Integer divider latency (blocking).
  u32 int_div_latency = 20;

  /// Offload queue depth between the integer core and the FP subsystem.
  u32 fp_queue_depth = 8;
  /// FREP sequencer ring-buffer capacity (instructions).
  u32 seq_buffer_depth = 16;

  /// Extra cycles from TCDM grant to loaded data (1 = data next cycle,
  /// usable the cycle after: 2-cycle load-to-use).
  u32 load_latency = 1;
  /// Fixed latency of non-TCDM (bulk) memory accesses. Also the startup
  /// latency of every DMA transfer touching main memory.
  u32 main_mem_latency = 10;
  /// Main-memory bandwidth: bytes the DMA engine can stream per cycle once
  /// a transfer is past its startup latency.
  u32 main_mem_bytes_per_cycle = 8;
  /// Descriptor-FIFO depth of the cluster DMA engine; a dmcpy against a
  /// full queue retries (stall_dma_full) until a slot frees up.
  u32 dma_queue_depth = 4;

  /// Taken-branch fetch bubble.
  u32 taken_branch_penalty = 1;

  /// Forbid same-cycle chain-FIFO pop->push handoff (ablation A3).
  bool strict_chain_handoff = false;

  /// Cores in the cluster, all sharing the banked TCDM (each contributes its
  /// LSU port + three SSR ports to the arbiter). 1 reproduces the paper's
  /// single-core configuration bit-exactly.
  u32 num_cores = 1;
  /// Upper bound on num_cores (requester bookkeeping stays sane).
  static constexpr u32 kMaxCores = 64;

  TcdmConfig tcdm{};
  ssr::StreamerConfig ssr{};

  u64 max_cycles = 200'000'000;
  /// Abort when no instruction retires for this many cycles (deadlock
  /// detector for chain-FIFO underflow / exhausted-stream stalls).
  u64 deadlock_cycles = 50'000;
  /// Host wall-clock budget per run in milliseconds (0 = unlimited). Checked
  /// every few thousand cycles/steps by both engines; exceeding it halts
  /// with a failed budget_exceeded report, never an abort. Off by default so
  /// reports stay bit-identical across hosts; the fuzz harness sets it.
  u64 max_wall_ms = 0;

  /// Deliberate state corruptions applied by the cycle engine (see
  /// sim/fault_plan.hpp). Null = no faults; the ISS never applies them.
  std::shared_ptr<const FaultPlan> faults;

  /// Host-speed fast path: the activity-gated tick (see sim/cluster.hpp).
  /// Idle FP sides and SSR streamers are not ticked, a core spinning on a
  /// DMA poll loop is parked and replayed from counters, and the clock
  /// jumps in closed form while every core is halted or parked and the DMA
  /// engine is idle or burning startup latency. Timing-invisible by
  /// construction (skipped work changes no observable state) and disabled
  /// whenever anything could watch individual cycles: api::Engine clears it
  /// when observers are attached, and gating() is false under a fault plan
  /// or tracing. The fast-path-equivalence suite pins off-vs-on reports
  /// bit-identical.
  bool fast_forward = true;

  /// Forwarded into IssConfig::fast_dispatch by api::Engine: the functional
  /// ISS half of a run executes through the threaded superblock loop.
  /// Architecturally invisible; exposed here so the equivalence suite can
  /// force the portable step loop through one RunRequest knob.
  bool fast_dispatch = true;

  /// Maintain the per-cycle issue/stall strings that trace observers
  /// (api::TraceObserver, Fig. 1c/Fig. 2 views) consume. Costs string
  /// building on the hot path; enable for short runs only.
  bool trace = false;

  /// fast_forward in effect: no fault plan can land mid-skip and no trace
  /// records the skipped cycles.
  [[nodiscard]] bool gating() const {
    return fast_forward && faults == nullptr && !trace;
  }

  /// Structural sanity check. A zero depth on any of the queues below does
  /// not fail loudly at runtime -- it deadlocks the scoreboard or indexes an
  /// empty ring buffer -- so configuration errors are rejected up front with
  /// a message. Called by api::Engine before every run and by the Simulator
  /// constructor (which throws std::invalid_argument on failure).
  [[nodiscard]] Status validate() const {
    if (fpu_depth == 0) {
      return Status::error("SimConfig: fpu_depth must be >= 1 (a zero-stage "
                           "FPU pipeline cannot hold an op in flight)");
    }
    if (fp_queue_depth == 0) {
      return Status::error("SimConfig: fp_queue_depth must be >= 1 (offload "
                           "with a zero-entry queue deadlocks the int core)");
    }
    if (seq_buffer_depth == 0) {
      return Status::error("SimConfig: seq_buffer_depth must be >= 1 (the "
                           "FREP sequencer needs ring-buffer capacity)");
    }
    if (tcdm.num_banks == 0) {
      return Status::error("SimConfig: tcdm.num_banks must be >= 1 (bank "
                           "arbitration over zero banks divides by zero)");
    }
    if (main_mem_latency == 0) {
      return Status::error("SimConfig: main_mem_latency must be >= 1 (a "
                           "zero-latency bulk memory defeats the model)");
    }
    if (main_mem_bytes_per_cycle == 0) {
      return Status::error("SimConfig: main_mem_bytes_per_cycle must be >= 1 "
                           "(zero bandwidth wedges every DMA transfer)");
    }
    if (dma_queue_depth == 0) {
      return Status::error("SimConfig: dma_queue_depth must be >= 1 (a "
                           "zero-entry DMA queue deadlocks every dmcpy)");
    }
    if (ssr.data_fifo_depth == 0 || ssr.idx_queue_depth == 0 ||
        ssr.write_fifo_depth == 0) {
      return Status::error("SimConfig: ssr FIFO depths must be >= 1 (the "
                           "streamers are ring buffers over fixed storage)");
    }
    if (max_cycles == 0) {
      return Status::error("SimConfig: max_cycles must be >= 1");
    }
    if (num_cores == 0 || num_cores > kMaxCores) {
      return Status::error("SimConfig: num_cores must be in 1..64 (a cluster "
                           "needs at least one core)");
    }
    return Status::ok();
  }
};

} // namespace sch::sim
