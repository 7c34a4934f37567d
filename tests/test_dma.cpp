// Xdma coverage: instruction forms through the assembler/disassembler, the
// functional ISS semantics (instant copy, dmstat), the cycle-level engine
// (real transfer cycles, latency/bandwidth sensitivity, 2-D copies), TCDM
// arbitration with the DMA requester present, bus-error reporting through
// the api layer, the dbuf-beats-naive acceptance criterion at 1 and 4
// cores, and multi-core dbuf determinism across host thread counts.
#include <gtest/gtest.h>

#include "api/engine.hpp"
#include "asm/assembler.hpp"
#include "asm/builder.hpp"
#include "dma/dma.hpp"
#include "isa/decode.hpp"
#include "isa/disasm.hpp"
#include "isa/reg.hpp"
#include "iss/iss.hpp"
#include "kernels/registry.hpp"
#include "mem/memory.hpp"
#include "mem/tcdm.hpp"
#include "sim/cluster.hpp"
#include "ssr/ssr_config.hpp"

namespace sch {
namespace {

// --- instruction forms -------------------------------------------------------

TEST(DmaIsa, AssemblerAcceptsAllForms) {
  const auto res = assembler::assemble(
      "dmsrc a0\n"
      "dmdst a1\n"
      "dmstr t0, t1\n"
      "dmcpy a2, a3\n"
      "dmcpy2d a4, a5, a6\n"
      "dmstat t2, 1\n");
  ASSERT_TRUE(res.ok()) << res.status().message();
  const Program& p = res.value();
  ASSERT_EQ(p.num_instrs(), 6u);
  EXPECT_EQ(p.instrs[0].mn, isa::Mnemonic::kDmSrc);
  EXPECT_EQ(p.instrs[0].rs1, isa::kA0);
  EXPECT_EQ(p.instrs[2].mn, isa::Mnemonic::kDmStr);
  EXPECT_EQ(p.instrs[2].rs2, isa::kT1);
  EXPECT_EQ(p.instrs[3].rd, isa::kA2);
  EXPECT_EQ(p.instrs[5].imm, 1);
  // Every word decodes back to itself and disassembles to parseable text.
  for (u32 w : p.words) {
    const isa::Instr in = isa::decode(w);
    ASSERT_TRUE(in.valid());
    const auto round = assembler::assemble(isa::disassemble(in) + "\n");
    ASSERT_TRUE(round.ok()) << isa::disassemble(in);
    EXPECT_EQ(round.value().words[0], w) << isa::disassemble(in);
  }
}

// --- shared test programs ----------------------------------------------------

/// Copy `n` doubles from a main-memory array into the bottom of the TCDM,
/// drain, and read dmstat(0) into a0.
Program make_copy_program(const std::vector<double>& values) {
  ProgramBuilder b(memmap::kTextBase, memmap::kMainBase);
  const Addr src = b.data_f64(values);
  b.la(isa::kT0, src);
  b.dmsrc(isa::kT0);
  b.li(isa::kT0, static_cast<i64>(memmap::kTcdmBase));
  b.dmdst(isa::kT0);
  b.li(isa::kT1, static_cast<i64>(values.size() * 8));
  b.dmcpy(isa::kA1, isa::kT1);
  b.label("drain");
  b.dmstat(isa::kT2, 1);
  b.bnez(isa::kT2, "drain");
  b.dmstat(isa::kA0, 0);
  b.ecall();
  return b.build();
}

// --- functional ISS ----------------------------------------------------------

TEST(DmaIss, InstantCopyAndStatus) {
  const std::vector<double> values{1.5, -2.25, 3.0, 4.75};
  Memory mem;
  Iss iss(make_copy_program(values), mem);
  ASSERT_EQ(iss.run(), HaltReason::kEcall) << iss.error();
  const auto got = mem.read_f64_block(memmap::kTcdmBase, 4);
  EXPECT_EQ(got, values);
  EXPECT_EQ(iss.state().x[isa::kA1], 1u);  // dmcpy returned id 1
  EXPECT_EQ(iss.state().x[isa::kA0], 1u);  // one transfer completed
  EXPECT_EQ(iss.state().x[isa::kT2], 0u);  // drain saw nothing outstanding
}

TEST(DmaIss, TwoDimensionalCopyGathersStridedRows) {
  // Gather column 0 of a 4x4 row-major matrix into contiguous TCDM words.
  ProgramBuilder b(memmap::kTextBase, memmap::kMainBase);
  std::vector<double> m(16);
  for (u32 i = 0; i < 16; ++i) m[i] = static_cast<double>(i);
  const Addr src = b.data_f64(m);
  b.la(isa::kT0, src);
  b.dmsrc(isa::kT0);
  b.li(isa::kT0, static_cast<i64>(memmap::kTcdmBase));
  b.dmdst(isa::kT0);
  b.li(isa::kT0, 32); // source row stride: 4 doubles
  b.li(isa::kT1, 8);  // destination stride: contiguous
  b.dmstr(isa::kT0, isa::kT1);
  b.li(isa::kT0, 8);  // one double per row
  b.li(isa::kT1, 4);  // four rows
  b.dmcpy2d(isa::kA1, isa::kT0, isa::kT1);
  b.ecall();
  Memory mem;
  Iss iss(b.build(), mem);
  ASSERT_EQ(iss.run(), HaltReason::kEcall) << iss.error();
  EXPECT_EQ(mem.read_f64_block(memmap::kTcdmBase, 4),
            (std::vector<double>{0.0, 4.0, 8.0, 12.0}));
}

// --- cycle-level engine ------------------------------------------------------

TEST(DmaCycle, TransferMovesBytesAndCostsCycles) {
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  Memory mem;
  sim::SimConfig cfg;
  cfg.main_mem_latency = 20;
  cfg.main_mem_bytes_per_cycle = 8;
  sim::Cluster cluster(make_copy_program(values), mem, cfg);
  ASSERT_EQ(cluster.run(), HaltReason::kEcall) << cluster.error();
  EXPECT_EQ(mem.read_f64_block(memmap::kTcdmBase, 8), values);
  const dma::EngineStats& s = cluster.dma().stats();
  EXPECT_EQ(s.transfers_completed, 1u);
  EXPECT_EQ(s.bytes_moved, 64u);
  // 20 startup cycles + 64 bytes at 8 B/cycle.
  EXPECT_GE(s.busy_cycles, 28u);
  EXPECT_GT(s.startup_cycles, 0u);
  EXPECT_GT(s.achieved_bytes_per_cycle(), 0.0);
  ASSERT_EQ(cluster.dma().records().size(), 1u);
  EXPECT_EQ(cluster.dma().records()[0].bytes, 64u);
  // The TCDM side of the transfer shows up in the bank stats as the DMA
  // requester's writes.
  const u32 dma_req = Tcdm::dma_requester_id(1);
  EXPECT_GT(cluster.tcdm().stats().grants_per_port[dma_req], 0u);
}

TEST(DmaCycle, LatencyAndBandwidthShapeRuntime) {
  const std::vector<double> values(64, 1.0);
  const auto run_cycles = [&](u32 latency, u32 bw) {
    Memory mem;
    sim::SimConfig cfg;
    cfg.main_mem_latency = latency;
    cfg.main_mem_bytes_per_cycle = bw;
    sim::Cluster cluster(make_copy_program(values), mem, cfg);
    EXPECT_EQ(cluster.run(), HaltReason::kEcall) << cluster.error();
    return cluster.cycles();
  };
  const Cycle fast = run_cycles(1, 64);
  const Cycle slow_latency = run_cycles(200, 64);
  const Cycle slow_bw = run_cycles(1, 1);
  EXPECT_LT(fast, slow_latency);
  EXPECT_LT(fast, slow_bw);
  // The latency penalty is at least the extra startup cycles.
  EXPECT_GE(slow_latency - fast, 150u);
}

TEST(DmaCycle, ClusterDrainsQueueAfterCoreHalts) {
  // The program issues a copy and halts WITHOUT polling; the cluster must
  // keep ticking until the engine drains so the bytes still land.
  ProgramBuilder b(memmap::kTextBase, memmap::kMainBase);
  const Addr src = b.data_f64({42.0, 43.0});
  b.la(isa::kT0, src);
  b.dmsrc(isa::kT0);
  b.li(isa::kT0, static_cast<i64>(memmap::kTcdmBase));
  b.dmdst(isa::kT0);
  b.li(isa::kT1, 16);
  b.dmcpy(isa::kA1, isa::kT1);
  b.ecall();
  Memory mem;
  sim::SimConfig cfg;
  cfg.main_mem_latency = 50;
  sim::Cluster cluster(b.build(), mem, cfg);
  ASSERT_EQ(cluster.run(), HaltReason::kEcall) << cluster.error();
  EXPECT_EQ(cluster.dma().stats().transfers_completed, 1u);
  EXPECT_EQ(mem.read_f64_block(memmap::kTcdmBase, 2),
            (std::vector<double>{42.0, 43.0}));
}

TEST(DmaCycle, TcdmToTcdmSameBankCopyCompletes) {
  // Regression: a TCDM-to-TCDM copy whose source and destination share a
  // bank used to self-conflict forever (the granted read occupied the bank
  // the write then needed). The staged-write path must make progress.
  ProgramBuilder b; // data base = TCDM
  const Addr src = b.data_f64({1.5, 2.5, 3.5, 4.5});
  const Addr dst = src; // same words: same banks by construction
  b.la(isa::kT0, src);
  b.dmsrc(isa::kT0);
  b.la(isa::kT0, dst);
  b.dmdst(isa::kT0);
  b.li(isa::kT1, 32);
  b.dmcpy(isa::kA1, isa::kT1);
  b.label("drain");
  b.dmstat(isa::kT2, 1);
  b.bnez(isa::kT2, "drain");
  b.ecall();
  Memory mem;
  sim::Cluster cluster(b.build(), mem, {});
  ASSERT_EQ(cluster.run(), HaltReason::kEcall) << cluster.error();
  EXPECT_LT(cluster.cycles(), 200u); // finished promptly, no livelock
  EXPECT_EQ(cluster.dma().stats().transfers_completed, 1u);
  EXPECT_GT(cluster.dma().stats().tcdm_conflicts, 0u); // the staged writes
  EXPECT_EQ(mem.read_f64_block(dst, 4),
            (std::vector<double>{1.5, 2.5, 3.5, 4.5}));
}

TEST(DmaCycle, OverlappingCopyKeepsForwardByteOrder) {
  // A copy whose destination overlaps its source's tail re-reads bytes it
  // has already written (forward byte order, as the ISS's instant copy);
  // one overlapping the head never does. Both must leave memory byte-for-
  // byte equal to the ISS's, including the odd-length last beat.
  for (const i32 shift : {3, -3}) {
    SCOPED_TRACE(shift);
    ProgramBuilder b(memmap::kTextBase, memmap::kMainBase);
    const Addr buf = b.data_f64({1.5, -2.25, 3.0, 4.75, 5.5, -6.125});
    const Addr src = buf + 16;  // room on both sides
    b.la(isa::kT0, src);
    b.dmsrc(isa::kT0);
    b.la(isa::kT0, static_cast<Addr>(static_cast<i32>(src) + shift));
    b.dmdst(isa::kT0);
    b.li(isa::kT1, 19);
    b.dmcpy(isa::kA1, isa::kT1);
    b.label("drain");
    b.dmstat(isa::kT2, 1);
    b.bnez(isa::kT2, "drain");
    b.ecall();
    api::RunRequest req = api::RunRequest::for_program(b.build(), "overlap",
                                                       api::EngineSel::kBoth);
    req.lockstep_compare_memory = true;
    const api::RunReport r = api::run(req);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.lockstep_mismatches, 0u);
  }
}

// --- TCDM arbitration with the DMA requester ---------------------------------

TEST(DmaTcdm, DmaRequesterContendsWithoutCorruptingAccounting) {
  // One core's worth of ports plus the DMA requester.
  Tcdm t({}, Tcdm::dma_requester_id(1) + 1);
  ASSERT_EQ(t.num_requesters(), 5u);
  const u32 lsu = Tcdm::requester_id(0, TcdmPortId::kCoreLsu);
  const u32 ssr0 = Tcdm::requester_id(0, TcdmPortId::kSsr0);
  const u32 dmar = Tcdm::dma_requester_id(1);
  const Addr addr = memmap::kTcdmBase; // everything attacks bank 0

  // Cycle A: the LSU goes first (its invocation-order priority) and wins;
  // the DMA and SSR0 both lose.
  t.begin_cycle();
  EXPECT_TRUE(t.request(lsu, addr, false));
  EXPECT_FALSE(t.request(dmar, addr, true));
  EXPECT_FALSE(t.request(ssr0, addr, false));
  // Cycle B: the rotation puts the DMA first; the core ports lose.
  t.begin_cycle();
  EXPECT_TRUE(t.request(dmar, addr, true));
  EXPECT_FALSE(t.request(lsu, addr, false));
  EXPECT_EQ(t.stats().grants_per_port[lsu], 1u);
  EXPECT_EQ(t.stats().grants_per_port[dmar], 1u);
  EXPECT_EQ(t.stats().conflicts_per_port[dmar], 1u);
  EXPECT_EQ(t.stats().conflicts_per_port[lsu], 1u);
  EXPECT_EQ(t.stats().conflicts_per_port[ssr0], 1u);
  // The conflict histogram accounts DMA-caused conflicts like any other.
  const auto top = t.top_conflict_banks(4);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, t.bank_of(addr));
  EXPECT_EQ(top[0].second, 3u);
}

TEST(DmaTcdm, DbufRunSharesBanksWithoutStarvation) {
  // End to end: in a dbuf run both the DMA requester and the core's SSR
  // ports keep getting grants (rotating fairness; nobody is starved), and
  // DMA bank conflicts are accounted in the global histogram sum.
  api::RunRequest req = api::RunRequest::for_kernel(
      "axpy", "chained_dbuf", {{"n", 512}, {"tile", 64}});
  req.config.main_mem_latency = 5; // keep the DMA streaming (contending) often
  struct Probe : api::Observer {
    u64 dma_grants = 0, ssr_grants = 0, conflict_sum = 0, conflicts = 0;
    void on_halt(const api::RunReport&, const sim::Simulator* sim,
                 const Memory*) override {
      ASSERT_NE(sim, nullptr);
      const TcdmStats& s = sim->tcdm().stats();
      dma_grants = s.grants_per_port[Tcdm::dma_requester_id(1)];
      ssr_grants = s.grants_per_port[Tcdm::requester_id(0, TcdmPortId::kSsr0)];
      for (u64 c : s.conflicts_per_bank) conflict_sum += c;
      conflicts = s.conflicts;
    }
  } probe;
  req.observers.push_back(&probe);
  const api::RunReport report = api::run(req);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_GT(probe.dma_grants, 0u);
  EXPECT_GT(probe.ssr_grants, 0u);
  EXPECT_EQ(probe.conflict_sum, probe.conflicts);
}

// --- failure paths through the api layer -------------------------------------

TEST(DmaErrors, UnmappedCopyFailsTheReportOnBothEngines) {
  ProgramBuilder b;
  b.li(isa::kT0, 0x0100); // below every mapped region
  b.dmsrc(isa::kT0);
  b.li(isa::kT0, static_cast<i64>(memmap::kTcdmBase));
  b.dmdst(isa::kT0);
  b.li(isa::kT1, 64);
  b.dmcpy(isa::kA1, isa::kT1);
  b.ecall();
  const Program prog = b.build();
  for (const api::EngineSel sel : {api::EngineSel::kIss, api::EngineSel::kCycle}) {
    const api::RunReport report =
        api::run(api::RunRequest::for_program(prog, "dma-bus-error", sel));
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.error.find("bus error"), std::string::npos) << report.error;
  }
}

TEST(DmaErrors, ZeroByteCopyFails) {
  ProgramBuilder b;
  b.li(isa::kT0, static_cast<i64>(memmap::kTcdmBase));
  b.dmsrc(isa::kT0);
  b.dmdst(isa::kT0);
  b.dmcpy(isa::kA1, isa::kZero);
  b.ecall();
  const api::RunReport report = api::run(
      api::RunRequest::for_program(b.build(), "dma-zero", api::EngineSel::kCycle));
  EXPECT_FALSE(report.ok);
}

TEST(EngineErrors, UnmappedSsrStreamFailsReportInsteadOfThrowing) {
  // Regression: a read stream pointed at a hole in the address map used to
  // throw std::out_of_range from Memory::load out of Engine::run.
  ProgramBuilder b;
  using ssr::CfgReg;
  b.li(isa::kT0, 7);
  b.scfgw(isa::kT0, ssr::cfg_index(0, CfgReg::kBound0));
  b.li(isa::kT0, 8);
  b.scfgw(isa::kT0, ssr::cfg_index(0, CfgReg::kStride0));
  b.li(isa::kT0, 0x0100); // unmapped stream base
  b.scfgw(isa::kT0, ssr::cfg_index(0, CfgReg::kRptr0));
  b.csrwi(isa::csr::kSsrEnable, 1);
  b.fadd_d(isa::kFt3, isa::kFt0, isa::kFt0);
  b.ecall();
  const Program prog = b.build();
  for (const api::EngineSel sel : {api::EngineSel::kIss, api::EngineSel::kCycle}) {
    const api::RunReport report =
        api::run(api::RunRequest::for_program(prog, "ssr-bus-error", sel));
    EXPECT_FALSE(report.ok) << api::engine_name(sel);
    EXPECT_NE(report.error.find("bus error"), std::string::npos)
        << api::engine_name(sel) << ": " << report.error;
  }
}

// --- acceptance: overlap beats copy-then-compute -----------------------------

api::RunReport run_dbuf_variant(const std::string& kernel,
                                const std::string& variant, u32 cores) {
  api::RunRequest req = api::RunRequest::for_kernel(
      kernel, variant, {{"n", 1024}, {"tile", 64}}, api::EngineSel::kBoth);
  req.config.num_cores = cores;
  req.config.main_mem_latency = 50;
  req.config.main_mem_bytes_per_cycle = 8;
  return api::run(req);
}

TEST(DbufAcceptance, OverlapBeatsCopyThenComputeOnOneAndFourCores) {
  for (const u32 cores : {1u, 4u}) {
    const api::RunReport naive = run_dbuf_variant("axpy", "chained_dma", cores);
    const api::RunReport dbuf = run_dbuf_variant("axpy", "chained_dbuf", cores);
    ASSERT_TRUE(naive.ok) << naive.error;
    ASSERT_TRUE(dbuf.ok) << dbuf.error;
    EXPECT_LT(dbuf.cycles, naive.cycles) << cores << " cores";
    // Both variants moved the same bytes; the win is overlap, not traffic.
    EXPECT_EQ(dbuf.dma.bytes, naive.dma.bytes);
    EXPECT_GT(dbuf.dma.transfers, 0u);
  }
}

TEST(DbufAcceptance, GemvOverlapBeatsCopyThenCompute) {
  for (const u32 cores : {1u, 4u}) {
    api::RunRequest naive_req = api::RunRequest::for_kernel(
        "gemv", "chained_dma", {{"m", 64}, {"n", 24}, {"rtile", 8}},
        api::EngineSel::kBoth);
    naive_req.config.num_cores = cores;
    naive_req.config.main_mem_latency = 50;
    api::RunRequest dbuf_req = naive_req;
    dbuf_req.variant = "chained_dbuf";
    const api::RunReport naive = api::run(naive_req);
    const api::RunReport dbuf = api::run(dbuf_req);
    ASSERT_TRUE(naive.ok) << naive.error;
    ASSERT_TRUE(dbuf.ok) << dbuf.error;
    EXPECT_LT(dbuf.cycles, naive.cycles) << cores << " cores";
  }
}

// --- determinism -------------------------------------------------------------

TEST(DbufDeterminism, FourCoreRunIsBitIdenticalAcrossThreadCounts) {
  const auto make_request = [] {
    api::RunRequest req = api::RunRequest::for_kernel(
        "axpy", "chained_dbuf", {{"n", 1024}, {"tile", 64}});
    req.config.num_cores = 4;
    req.config.main_mem_latency = 50;
    return req;
  };
  const auto fingerprint = [](const api::RunReport& r) {
    api::RunReport copy = r;
    copy.wall_s = 0; // the only nondeterministic field
    return copy.to_json().dump();
  };
  api::Engine one(api::EngineConfig{.threads = 1});
  api::Engine four(api::EngineConfig{.threads = 4});
  std::vector<api::RunRequest> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(make_request());
  const auto reports_one = one.run_batch(batch);
  std::vector<api::RunRequest> batch2;
  for (int i = 0; i < 4; ++i) batch2.push_back(make_request());
  const auto reports_four = four.run_batch(batch2);
  ASSERT_TRUE(reports_one[0].ok) << reports_one[0].error;
  const std::string want = fingerprint(reports_one[0]);
  for (const auto& r : reports_one) EXPECT_EQ(fingerprint(r), want);
  for (const auto& r : reports_four) EXPECT_EQ(fingerprint(r), want);
}

// --- DMA-off invariance ------------------------------------------------------

TEST(DmaOff, QueueDepthAndBandwidthDoNotPerturbDmaFreeRuns) {
  // A workload that never issues a transfer must be cycle-for-cycle
  // identical under any DMA/main-memory bandwidth configuration.
  const auto cycles_with = [](u32 depth, u32 bw) {
    api::RunRequest req = api::RunRequest::for_kernel("axpy", "chained", {});
    req.config.dma_queue_depth = depth;
    req.config.main_mem_bytes_per_cycle = bw;
    const api::RunReport r = api::run(req);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.dma.transfers, 0u);
    return r.cycles;
  };
  const u64 base = cycles_with(4, 8);
  EXPECT_EQ(cycles_with(1, 1), base);
  EXPECT_EQ(cycles_with(64, 512), base);
}

} // namespace
} // namespace sch
