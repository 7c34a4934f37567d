// Watchdog coverage: a wedged program must FAIL (a classified RunReport,
// never an abort or a hang) on every engine and cluster size, and the
// legitimate long-spin patterns the kernels rely on must stay green.
#include <gtest/gtest.h>

#include <vector>

#include "api/engine.hpp"
#include "asm/builder.hpp"
#include "isa/csr.hpp"
#include "sim/cluster.hpp"

namespace sch {
namespace {

using api::EngineSel;
using api::FailureKind;
using api::RunReport;
using api::RunRequest;

/// The canonical wedge: pop a chained register that nothing ever pushes.
/// Every hart executes it (single-program replication), so it deadlocks at
/// any core count. On the cycle engine the FP issue stage starves
/// (stall_chain_empty) until the watchdog fires; the ISS detects the
/// empty-FIFO pop immediately.
Program wedged_consumer() {
  ProgramBuilder b;
  const Addr cst = b.data_f64({1.0});
  b.la(isa::kT0, cst);
  b.fld(3, isa::kT0, 0);
  b.li(isa::kT1, 1u << 16);
  b.csrw(isa::csr::kChainMask, isa::kT1);
  b.fadd_d(24, 16, 3);  // pop f16: the FIFO is empty and stays empty
  b.csrwi(isa::csr::kChainMask, 0);
  b.ecall();
  return b.build();
}

TEST(Watchdog, WedgedChainConsumerFailsOnEveryEngineAndClusterSize) {
  for (const EngineSel engine :
       {EngineSel::kIss, EngineSel::kCycle, EngineSel::kBoth}) {
    for (const u32 cores : {1u, 4u}) {
      SCOPED_TRACE(std::string(api::engine_name(engine)) + "/" +
                   std::to_string(cores) + " cores");
      RunRequest req = RunRequest::for_program(wedged_consumer(), "wedge",
                                               engine);
      req.config.num_cores = cores;
      req.config.deadlock_cycles = 2000;
      req.config.max_cycles = 200000;
      const RunReport r = api::run(req);
      ASSERT_FALSE(r.ok);
      EXPECT_EQ(r.failure.kind, FailureKind::kDeadlock) << r.error;
      EXPECT_GE(r.failure.hart, 0);
    }
  }
}

TEST(Watchdog, BarrierSpinFalsePositivePinnedGreen) {
  // Hart 1 spin-waits on a TCDM flag that hart 0 publishes only after a
  // long delay. The spin loop retires instructions every cycle, so the
  // progress watchdog must NOT fire even with a tight deadlock budget --
  // this is the paper kernels' barrier idiom.
  const Addr flag = memmap::kTcdmBase + 0x100;
  ProgramBuilder writer;
  writer.li(isa::kT2, 3000);
  writer.label("delay");
  writer.addi(isa::kT2, isa::kT2, -1);
  writer.bnez(isa::kT2, "delay");
  writer.la(isa::kT0, flag);
  writer.li(isa::kT1, 1);
  writer.sw(isa::kT1, isa::kT0, 0);
  writer.ecall();

  ProgramBuilder spinner;
  spinner.la(isa::kT0, flag);
  spinner.label("spin");
  spinner.lw(isa::kT1, isa::kT0, 0);
  spinner.beq(isa::kT1, isa::kZero, "spin");
  spinner.ecall();

  RunRequest req = RunRequest::for_programs(
      {writer.build(), spinner.build()}, "barrier-spin", EngineSel::kCycle);
  req.config.deadlock_cycles = 2000;  // < the writer's delay in cycles
  req.config.max_cycles = 200000;
  const RunReport r = api::run(req);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.failure.kind, FailureKind::kNone);
}

TEST(Watchdog, LongRetiringLoopOutlivesTightDeadlockBudget) {
  // A counted loop much longer than deadlock_cycles keeps retiring, so it
  // must complete: the watchdog watches progress, not wall length.
  ProgramBuilder b;
  b.li(isa::kT2, 20000);
  b.label("loop");
  b.addi(isa::kT2, isa::kT2, -1);
  b.bnez(isa::kT2, "loop");
  b.ecall();
  RunRequest req = RunRequest::for_program(b.build(), "long-loop",
                                           EngineSel::kCycle);
  req.config.deadlock_cycles = 2000;
  const RunReport r = api::run(req);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(Watchdog, CycleBudgetClassifiedAsBudgetExceeded) {
  // An infinite self-loop trips max_cycles (not the deadlock watchdog: a
  // taken branch retires). The failure must be classified as a budget.
  ProgramBuilder b;
  b.label("forever");
  b.jal(isa::kZero, "forever");
  RunRequest req = RunRequest::for_program(b.build(), "spin-forever",
                                           EngineSel::kCycle);
  req.config.max_cycles = 5000;
  req.config.deadlock_cycles = 100000;  // keep the watchdog out of the way
  const RunReport r = api::run(req);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.failure.kind, FailureKind::kBudgetExceeded) << r.error;
}

TEST(Watchdog, IssStepBudgetDerivedFromCycleBudget) {
  // The same spin on the ISS: the engine derives max_steps from max_cycles,
  // so an ISS-only run cannot hang either.
  ProgramBuilder b;
  b.label("forever");
  b.jal(isa::kZero, "forever");
  RunRequest req = RunRequest::for_program(b.build(), "spin-forever-iss",
                                           EngineSel::kIss);
  req.config.max_cycles = 5000;
  const RunReport r = api::run(req);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.failure.kind, FailureKind::kBudgetExceeded) << r.error;
}

TEST(Watchdog, WallClockBudgetHaltsBothEngines) {
  // With an (absurdly small) wall budget, an infinite loop must come back
  // as a failed budget_exceeded report on either engine, never a hang.
  for (const EngineSel engine : {EngineSel::kCycle, EngineSel::kIss}) {
    SCOPED_TRACE(api::engine_name(engine));
    ProgramBuilder b;
    b.label("forever");
    b.jal(isa::kZero, "forever");
    RunRequest req = RunRequest::for_program(b.build(), "wall-budget", engine);
    req.config.max_cycles = ~u64{0};  // only the wall clock can stop it
    req.config.max_wall_ms = 1;
    req.config.deadlock_cycles = ~u64{0} >> 1;
    const RunReport r = api::run(req);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.failure.kind, FailureKind::kBudgetExceeded) << r.error;
  }
}

TEST(Watchdog, WallClockBudgetSurvivesClockJumps) {
  // Four cores park on a transfer that is never issued, so the cluster
  // crosses almost every cycle in clock jumps. The wall-clock check is keyed
  // on crossing a 4096-cycle boundary and jumps stop at that boundary, so
  // the budget still ends the run (stepping is bounded here so that a
  // regression fails instead of hanging).
  ProgramBuilder b;
  b.li(isa::kT0, 1);
  b.label("poll");
  b.dmstat(isa::kT1, 0);
  b.blt(isa::kT1, isa::kT0, "poll");
  b.ecall();
  sim::SimConfig cfg;
  cfg.num_cores = 4;
  cfg.max_cycles = ~u64{0};  // only the wall clock can stop it
  cfg.max_wall_ms = 1;
  Memory mem;
  sim::Cluster cluster(b.build(), mem, cfg);
  u64 steps = 0;
  while (cluster.step() && ++steps < 50'000'000) {
  }
  EXPECT_EQ(cluster.halt_reason(), HaltReason::kMaxSteps);
  EXPECT_NE(cluster.error().find("wall-clock budget exhausted"),
            std::string::npos)
      << cluster.error();
  EXPECT_GT(cluster.tick_counters().jumped_cycles, 0u);
}

} // namespace
} // namespace sch
