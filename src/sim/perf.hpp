// Performance counters with stall attribution. The FPU-utilization metric
// (Fig. 3 left) is fpu_ops / cycles; the stall taxonomy feeds EXPERIMENTS.md
// and the energy model's activity factors.
#pragma once

#include <iterator>

#include "common/types.hpp"

namespace sch::sim {

/// Where a counter appears in a RunReport: at the top level of a row
/// (`cycles`, `fpu_ops`), in its `stalls` object or in its `mix` object.
enum class PerfGroup : u8 { kTop, kStall, kMix };

// The counter table: X(field, json_key, group), one row per PerfCounters
// field in declaration order. The struct, operator+=, RunReport::to_json,
// the `schsim sim` printout and tools/check_report_schema.py (which parses
// these rows) all expand it, so a new counter is a one-line edit here.
// Keep one row per line; comments must be /* */ inside the macro.
#define SCH_PERF_COUNTERS(X)                                                                           \
  X(cycles, "cycles", kTop)                                                                            \
  /* Retire counts. */                                                                                 \
  X(int_instrs, "int_instrs", kMix)              /* executed on the integer core (non-offloaded) */    \
  X(fp_instrs, "fp_instrs", kMix)                /* issued by the FP subsystem (compute + fld/fsd) */  \
  X(offloads, "offloads", kMix)                  /* instructions pushed into the FP queue */           \
  X(fpu_ops, "fpu_ops", kTop)                    /* FP compute operations entering the FPU pipeline */ \
  /* Instruction mix (for the energy model). */                                                        \
  X(int_alu_ops, "int_alu_ops", kMix)                                                                  \
  X(int_mul_ops, "int_mul_ops", kMix)                                                                  \
  X(int_div_ops, "int_div_ops", kMix)                                                                  \
  X(int_loads, "int_loads", kMix)                                                                      \
  X(int_stores, "int_stores", kMix)                                                                    \
  X(branches, "branches", kMix)                                                                        \
  X(csr_ops, "csr_ops", kMix)                                                                          \
  X(fp_mac_ops, "fp_mac_ops", kMix)              /* pipelined FP compute */                            \
  X(fp_div_ops, "fp_div_ops", kMix)              /* div + sqrt */                                      \
  X(fp_loads, "fp_loads", kMix)                                                                        \
  X(fp_stores, "fp_stores", kMix)                                                                      \
  /* Register-file activity (energy model). */                                                         \
  X(rf_int_reads, "rf_int_reads", kMix)                                                                \
  X(rf_int_writes, "rf_int_writes", kMix)                                                              \
  X(rf_fp_reads, "rf_fp_reads", kMix)                                                                  \
  X(rf_fp_writes, "rf_fp_writes", kMix)                                                                \
  /* FP issue-stall attribution (cycles where an FP instruction was available */                       \
  /* but could not issue). */                                                                          \
  X(stall_fp_raw, "fp_raw", kStall)              /* scoreboard RAW on a normal register */             \
  X(stall_fp_waw, "fp_waw", kStall)              /* scoreboard WAW on a normal register */             \
  X(stall_chain_empty, "chain_empty", kStall)    /* chain FIFO valid bit clear (consumer early) */     \
  X(stall_chain_full, "chain_full", kStall)      /* writeback backpressure (producer early) */         \
  X(stall_ssr_empty, "ssr_empty", kStall)        /* read-stream FIFO empty */                          \
  X(stall_ssr_wfull, "ssr_wfull", kStall)        /* write-stream FIFO full at writeback */             \
  X(stall_fpu_busy, "fpu_busy", kStall)          /* structural: div unit / frozen pipeline */          \
  X(stall_fp_lsu, "fp_lsu", kStall)              /* fld/fsd TCDM port or bank denied */                \
  X(fp_queue_empty, "fp_queue_empty", kStall)    /* FP issue idle with nothing queued */               \
  /* Integer-core stalls. */                                                                           \
  X(stall_offload_full, "offload_full", kStall)  /* FP queue full */                                   \
  X(stall_int_raw, "int_raw", kStall)            /* load-use / FP->int / mul in flight */              \
  X(stall_int_lsu, "int_lsu", kStall)            /* TCDM port or bank denied */                        \
  X(stall_csr_barrier, "csr_barrier", kStall)    /* stream-CSR write awaiting FP quiescence */         \
  X(stall_dma_full, "dma_full", kStall)          /* dmcpy retrying against a full DMA queue */         \
  X(branch_bubbles, "branch_bubbles", kStall)                                                          \
  X(int_div_busy, "int_div_busy", kStall)        /* blocking divider cycles */

struct PerfCounters {
#define SCH_PERF_FIELD(name, key, group) u64 name = 0;
  SCH_PERF_COUNTERS(SCH_PERF_FIELD)
#undef SCH_PERF_FIELD

  [[nodiscard]] double fpu_utilization() const {
    return cycles == 0 ? 0.0 : static_cast<double>(fpu_ops) / static_cast<double>(cycles);
  }
  [[nodiscard]] u64 total_retired() const { return int_instrs + fp_instrs; }

  /// Field-wise sum (cluster aggregation); `cycles` is summed too — the
  /// cluster overwrites it with its own cycle count afterwards.
  PerfCounters& operator+=(const PerfCounters& o) {
#define SCH_PERF_ADD(name, key, group) name += o.name;
    SCH_PERF_COUNTERS(SCH_PERF_ADD)
#undef SCH_PERF_ADD
    return *this;
  }

  /// Field-wise equality (defaulted, so a new counter is included
  /// automatically). The fast-path equivalence suite pins reports produced
  /// with the host-speed fast paths off vs on bit-identical through this.
  [[nodiscard]] bool operator==(const PerfCounters&) const = default;
};

/// One row of the counter table, for consumers that iterate it at run time.
struct PerfCounterInfo {
  const char* key;
  PerfGroup group;
  u64 PerfCounters::*field;
};

inline constexpr PerfCounterInfo kPerfCounterTable[] = {
#define SCH_PERF_INFO(name, key, group) {key, PerfGroup::group, &PerfCounters::name},
    SCH_PERF_COUNTERS(SCH_PERF_INFO)
#undef SCH_PERF_INFO
};

// A field declared outside the table would be missed by every consumer.
static_assert(sizeof(PerfCounters) == std::size(kPerfCounterTable) * sizeof(u64),
              "every PerfCounters field must be a row of SCH_PERF_COUNTERS");

} // namespace sch::sim
