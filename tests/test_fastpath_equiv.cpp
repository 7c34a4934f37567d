// Fast-path equivalence suite: every host-speed optimization in the two
// engines -- the ISS's threaded superblock dispatch (fast_dispatch), the
// TCDM bank-mask arbiter (tcdm.fast_arb) and the cluster's activity-gated
// tick (fast_forward: idle FP/SSR units skipped, DMA-polling cores parked
// and replayed from counters, clock jumps while every core is halted or
// parked) -- must be TIMING-INVISIBLE. Each toggle is forced off
// individually against the all-on default and the resulting RunReports
// must be bit-identical: cycles, the full PerfCounters block (aggregate and
// per core), TCDM contention stats, DMA stats, energy, ISS instruction
// counts, lockstep verdicts and failure classification.
//
// Three workload sources:
//  * a registry-kernel sample covering chaining, FREP, indirect streams,
//    DMA double buffering (parking and clock jumps, including the exact
//    dma_stream benchmark shapes) and 2- and 4-core clusters (the bank-mask
//    arbiter under contention);
//  * hand-written poll-forever clusters, whose every core parks on a
//    transfer that is never issued: they must hit the cycle budget -- or,
//    with branch bubbles longer than the watchdog window, the watchdog --
//    at the same cycle with the clock jumping;
//  * pinned-seed differential-fuzz programs over the full block
//    vocabulary, run exactly like the fuzz campaign (both engines in
//    lockstep with full-memory compare).
//
// The TickCounters tests pin the gating's structure with noise-free work
// counters, so a regression fails here even when wall time hides it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/engine.hpp"
#include "asm/builder.hpp"
#include "fuzz/fuzz.hpp"
#include "isa/csr.hpp"
#include "kernels/registry.hpp"
#include "sim/cluster.hpp"

namespace sch::api {
namespace {

struct Toggles {
  bool fast_dispatch;
  bool fast_arb;
  bool fast_forward;
};

constexpr Toggles kAllOn{true, true, true};
constexpr Toggles kNoDispatch{false, true, true};
constexpr Toggles kNoFastArb{true, false, true};
constexpr Toggles kNoFastForward{true, true, false};

RunReport run_with(RunRequest request, const Toggles& t) {
  request.config.fast_dispatch = t.fast_dispatch;
  request.config.tcdm.fast_arb = t.fast_arb;
  request.config.fast_forward = t.fast_forward;
  return run(request);
}

/// Field-wise report equality. Doubles compare exactly: both runs execute
/// the identical arithmetic over identical counters, so any difference is
/// a fast-path leak, not a rounding artifact.
void expect_identical(const RunReport& fast, const RunReport& slow,
                      const std::string& what) {
  EXPECT_EQ(fast.ok, slow.ok) << what;
  EXPECT_EQ(fast.error, slow.error) << what;
  EXPECT_EQ(fast.failure.kind, slow.failure.kind) << what;
  EXPECT_EQ(fast.cycles, slow.cycles) << what;
  EXPECT_EQ(fast.iss_instructions, slow.iss_instructions) << what;
  EXPECT_EQ(fast.mismatches, slow.mismatches) << what;
  EXPECT_EQ(fast.lockstep_mismatches, slow.lockstep_mismatches) << what;
  EXPECT_TRUE(fast.perf == slow.perf) << what << ": aggregate perf differs";
  EXPECT_EQ(fast.fpu_utilization, slow.fpu_utilization) << what;

  EXPECT_EQ(fast.num_cores, slow.num_cores) << what;
  ASSERT_EQ(fast.cores.size(), slow.cores.size()) << what;
  for (usize i = 0; i < fast.cores.size(); ++i) {
    EXPECT_EQ(fast.cores[i].cycles, slow.cores[i].cycles)
        << what << ": core " << i;
    EXPECT_EQ(fast.cores[i].fpu_utilization, slow.cores[i].fpu_utilization)
        << what << ": core " << i;
    EXPECT_TRUE(fast.cores[i].perf == slow.cores[i].perf)
        << what << ": core " << i << " perf differs";
  }

  EXPECT_EQ(fast.tcdm_reads, slow.tcdm_reads) << what;
  EXPECT_EQ(fast.tcdm_writes, slow.tcdm_writes) << what;
  EXPECT_EQ(fast.tcdm_conflicts, slow.tcdm_conflicts) << what;
  EXPECT_EQ(fast.tcdm_out_of_range, slow.tcdm_out_of_range) << what;
  EXPECT_TRUE(fast.tcdm_top_banks == slow.tcdm_top_banks)
      << what << ": conflict histogram differs";

  EXPECT_EQ(fast.dma.transfers, slow.dma.transfers) << what;
  EXPECT_EQ(fast.dma.bytes, slow.dma.bytes) << what;
  EXPECT_EQ(fast.dma.busy_cycles, slow.dma.busy_cycles) << what;
  EXPECT_EQ(fast.dma.startup_cycles, slow.dma.startup_cycles) << what;
  EXPECT_EQ(fast.dma.tcdm_conflicts, slow.dma.tcdm_conflicts) << what;
  EXPECT_EQ(fast.dma.queue_full_stalls, slow.dma.queue_full_stalls) << what;
  EXPECT_EQ(fast.dma.achieved_bytes_per_cycle,
            slow.dma.achieved_bytes_per_cycle)
      << what;

  EXPECT_EQ(fast.energy.breakdown.total_pj, slow.energy.breakdown.total_pj)
      << what;
  EXPECT_EQ(fast.energy.breakdown.int_core_pj,
            slow.energy.breakdown.int_core_pj)
      << what;
  EXPECT_EQ(fast.energy.breakdown.fpu_pj, slow.energy.breakdown.fpu_pj) << what;
  EXPECT_EQ(fast.energy.breakdown.tcdm_pj, slow.energy.breakdown.tcdm_pj)
      << what;
  EXPECT_EQ(fast.energy.breakdown.chain_pj, slow.energy.breakdown.chain_pj)
      << what;
  EXPECT_EQ(fast.energy.power_mw, slow.energy.power_mw) << what;
  EXPECT_EQ(fast.energy.fpu_ops_per_joule, slow.energy.fpu_ops_per_joule)
      << what;
}

void expect_toggle_invisible(const RunRequest& request,
                             const std::string& label) {
  const RunReport all_on = run_with(request, kAllOn);
  expect_identical(all_on, run_with(request, kNoDispatch),
                   label + " [fast_dispatch off]");
  expect_identical(all_on, run_with(request, kNoFastArb),
                   label + " [tcdm.fast_arb off]");
  expect_identical(all_on, run_with(request, kNoFastForward),
                   label + " [fast_forward off]");
}

// --- registry-kernel sample --------------------------------------------------

struct KernelCase {
  const char* kernel;
  const char* variant;
  u32 num_cores;
  kernels::SizeMap sizes = {};
  u32 main_mem_latency = sim::SimConfig{}.main_mem_latency;
};

// The dma_stream benchmark: 4 cores behind a 200-cycle main memory.
constexpr u32 kDmaStreamLatency = 200;
const kernels::SizeMap kDmaStreamAxpy = {{"n", 16384}, {"tile", 64}};
const kernels::SizeMap kDmaStreamGemv = {{"m", 256}, {"n", 48}, {"rtile", 8}};

// Chaining, FREP, indirect gather, DMA double buffering (parking, clock
// jumps) and multi-core TCDM contention are all represented.
const KernelCase kKernelCases[] = {
    {"vecop", "chained+frep", 1},
    {"gemm", "chained", 1},
    {"conv2d", "chained", 1},
    {"box3d1r", "Chaining+", 1},
    {"axpy", "chained_dma", 1},
    {"axpy", "chained_dbuf", 1},
    {"gemv", "chained_dbuf", 1},
    {"gemv", "chained_dbuf", 2},
    {"vecop", "chained_par", 4},
    {"gemv", "chained_par", 4},
    {"axpy", "chained_dbuf", 4},
    {"axpy", "chained_dbuf", 4, kDmaStreamAxpy, kDmaStreamLatency},
    {"gemv", "chained_dbuf", 4, kDmaStreamGemv, kDmaStreamLatency},
};

TEST(FastPathEquiv, KernelSampleBitIdenticalWithEachFastPathOff) {
  for (const KernelCase& c : kKernelCases) {
    RunRequest request =
        RunRequest::for_kernel(c.kernel, c.variant, c.sizes, EngineSel::kBoth);
    request.config.num_cores = c.num_cores;
    request.config.main_mem_latency = c.main_mem_latency;
    expect_toggle_invisible(request,
                            std::string(c.kernel) + "/" + c.variant + "@" +
                                std::to_string(c.num_cores) + " mem=" +
                                std::to_string(c.main_mem_latency));
  }
}

// --- poll-forever clusters ----------------------------------------------------

/// Every hart waits for a first completed transfer (`dmstat; blt`) that no
/// hart ever issues. `stagger` puts an mhartid-long delay loop first, so
/// the cores park at different phases of their poll loops.
Program poll_forever(bool stagger) {
  ProgramBuilder b;
  if (stagger) {
    b.csrr(isa::kA0, isa::csr::kMhartid);
    b.label("delay");
    b.beqz(isa::kA0, "armed");
    b.addi(isa::kA0, isa::kA0, -1);
    b.j("delay");
    b.label("armed");
  }
  b.li(isa::kT0, 1);
  b.label("poll");
  b.dmstat(isa::kT1, 0);
  b.blt(isa::kT1, isa::kT0, "poll");
  b.ecall();
  return b.build();
}

RunRequest poll_forever_request(bool stagger) {
  RunRequest request =
      RunRequest::for_program(poll_forever(stagger), "poll-forever");
  request.config.num_cores = 4;
  request.config.max_cycles = 300'000;  // several watchdog windows of jumps
  return request;
}

TEST(FastPathEquiv, PollForeverHitsCycleBudgetAtSameCycle) {
  const RunRequest request = poll_forever_request(/*stagger=*/true);
  const RunReport report = run_with(request, kAllOn);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failure.kind, FailureKind::kBudgetExceeded) << report.error;
  EXPECT_EQ(report.cycles, request.config.max_cycles);
  expect_toggle_invisible(request, "poll-forever");
}

TEST(FastPathEquiv, PollForeverWatchdogFiresAtSameCycle) {
  // Bubbles longer than the watchdog window: a parked loop retires nothing
  // for taken_branch_penalty cycles, so the watchdog fires mid-period --
  // inside what would otherwise be one clock jump. (No delay loop: its own
  // taken branches would trip the watchdog before any core parks.)
  RunRequest request = poll_forever_request(/*stagger=*/false);
  request.config.taken_branch_penalty = 64;
  request.config.deadlock_cycles = 40;
  const RunReport report = run_with(request, kAllOn);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failure.kind, FailureKind::kDeadlock) << report.error;
  expect_toggle_invisible(request, "poll-forever, watchdog");
}

// --- noise-free work counters -------------------------------------------------

sim::TickCounters tick_counters_of(const char* kernel, const char* variant,
                                   const kernels::SizeMap& sizes,
                                   const sim::SimConfig& config,
                                   u64& core_cycles) {
  const kernels::KernelEntry* entry = kernels::Registry::instance().find(kernel);
  const kernels::BuiltKernel built =
      entry->build(variant, entry->resolve_sizes(sizes));
  Memory mem;
  sim::Cluster cluster(built.program, mem, config);
  EXPECT_NE(cluster.run(), HaltReason::kError) << cluster.error();
  core_cycles = 0;
  for (u32 h = 0; h < cluster.num_cores(); ++h) {
    core_cycles += cluster.core_at(h).perf().cycles;
  }
  return cluster.tick_counters();
}

TEST(TickCounters, DmaStreamAxpyTicksAtMostHalfItsCoreCyclesInFull) {
  sim::SimConfig config;
  config.num_cores = 4;
  config.main_mem_latency = kDmaStreamLatency;
  u64 core_cycles = 0;
  const sim::TickCounters t = tick_counters_of("axpy", "chained_dbuf",
                                               kDmaStreamAxpy, config, core_cycles);
  EXPECT_EQ(t.core_ticks + t.skipped, core_cycles);
  EXPECT_LE(2 * t.core_ticks, core_cycles)
      << t.core_ticks << " full ticks of " << core_cycles << " core-cycles";
  EXPECT_GT(t.parked, 0u);
  EXPECT_GT(t.jumped_cycles, 0u);

  config.fast_forward = false;  // the ungated tick runs every core-cycle
  const sim::TickCounters off = tick_counters_of(
      "axpy", "chained_dbuf", kDmaStreamAxpy, config, core_cycles);
  EXPECT_EQ(off.core_ticks, core_cycles);
  EXPECT_EQ(off.fp_gated + off.skipped + off.jumped_cycles, 0u);
}

TEST(TickCounters, SingleCoreStencilNeverParksOrJumps) {
  u64 core_cycles = 0;
  const sim::TickCounters t =
      tick_counters_of("box3d1r", "Chaining+", {}, sim::SimConfig{}, core_cycles);
  EXPECT_EQ(t.parked, 0u);
  EXPECT_EQ(t.jumped_cycles, 0u);
  EXPECT_EQ(t.core_ticks + t.skipped, core_cycles);
}

// --- pinned-seed fuzz programs -----------------------------------------------

// Mirrors fuzz::run_spec (differ.cpp): both engines in lockstep, full
// final-memory compare, the campaign's cycle/deadlock budgets. Rebuilt here
// because run_spec does not expose the SimConfig fast-path knobs.
RunRequest fuzz_request(const fuzz::ProgramSpec& spec, u64 seed) {
  RunRequest request = RunRequest::for_programs(
      fuzz::materialize(spec), "fuzz/seed=" + std::to_string(seed),
      EngineSel::kBoth);
  request.lockstep_compare_memory = true;
  request.config.max_cycles = 2'000'000;
  request.config.deadlock_cycles = 20'000;
  return request;
}

TEST(FastPathEquiv, FuzzProgramsBitIdenticalWithEachFastPathOff) {
  constexpr u64 kCampaignSeed = 0xFA57'0001;
  constexpr u32 kRuns = 100;
  for (u32 i = 0; i < kRuns; ++i) {
    const u64 seed = kCampaignSeed + i;
    const fuzz::ProgramSpec spec = fuzz::generate_spec(seed);
    expect_toggle_invisible(fuzz_request(spec, seed),
                            "fuzz seed " + std::to_string(seed));
  }
}

} // namespace
} // namespace sch::api
