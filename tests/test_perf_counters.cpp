// The counter table (SCH_PERF_COUNTERS in sim/perf.hpp): operator+= and
// RunReport::to_json cover every row, and the FP-side cycle identity that
// the stall taxonomy promises holds on the baseline kernels.
#include <gtest/gtest.h>

#include <string>

#include "api/engine.hpp"
#include "kernels/registry.hpp"
#include "sim/perf.hpp"

namespace sch::api {
namespace {

using sim::PerfCounterInfo;
using sim::PerfCounters;
using sim::PerfGroup;
using sim::kPerfCounterTable;

/// Section of a report row that carries counters of `group`.
const Json* group_section(const Json& row, PerfGroup group) {
  switch (group) {
    case PerfGroup::kTop: return &row;
    case PerfGroup::kStall: return row.get("stalls");
    case PerfGroup::kMix: return row.get("mix");
  }
  return nullptr;
}

/// Every row appears in exactly one place of `row`, with its value.
void expect_every_row(const Json& row, const PerfCounters& p, const std::string& where) {
  usize grouped = 0;
  for (const PerfCounterInfo& c : kPerfCounterTable) {
    const Json* section = group_section(row, c.group);
    ASSERT_NE(section, nullptr) << where;
    const Json* value = section->get(c.key);
    ASSERT_NE(value, nullptr) << where << " lacks " << c.key;
    EXPECT_EQ(static_cast<u64>(value->as_i64()), p.*c.field) << where << "." << c.key;
    if (c.group == PerfGroup::kTop) {
      EXPECT_EQ(row.get("stalls")->get(c.key), nullptr) << where << "." << c.key;
      EXPECT_EQ(row.get("mix")->get(c.key), nullptr) << where << "." << c.key;
    } else {
      ++grouped;
    }
  }
  EXPECT_EQ(row.get("stalls")->members().size() + row.get("mix")->members().size(),
            grouped)
      << where;
}

TEST(PerfCounterTable, SumAndReportEveryRow) {
  // Distinct values per row, so a row read from the wrong field shows.
  PerfCounters a;
  PerfCounters b;
  u64 v = 1;
  for (const PerfCounterInfo& c : kPerfCounterTable) {
    a.*c.field = v;
    b.*c.field = 1000 * v;
    ++v;
  }
  PerfCounters sum = a;
  sum += b;
  v = 1;
  for (const PerfCounterInfo& c : kPerfCounterTable) {
    EXPECT_EQ(sum.*c.field, 1001 * v) << c.key;
    ++v;
  }

  RunReport r;
  r.ok = true;
  r.perf = sum;
  r.cycles = sum.cycles;
  r.num_cores = 2;
  for (const PerfCounters& p : {a, b}) {
    RunReport::CoreReport core;
    core.cycles = p.cycles;
    core.perf = p;
    r.cores.push_back(core);
  }
  const Json j = r.to_json();
  expect_every_row(j, sum, "row");
  const Json::Array& cores = j.get("cores")->items();
  ASSERT_EQ(cores.size(), 2u);
  expect_every_row(cores[0], a, "cores[0]");
  expect_every_row(cores[1], b, "cores[1]");
}

/// Every FP-side cycle of a core is an issue, one of the eight FP stall
/// causes, or an empty FP queue. Checked on the non-chained variants only:
/// chained variants still count some cycles in two buckets.
TEST(PerfCounterTable, BaselineFpCycleIdentity) {
  usize checked = 0;
  for (const kernels::KernelEntry* entry : kernels::Registry::instance().entries()) {
    for (const std::string& variant : entry->variants) {
      if (variant.find("chain") != std::string::npos ||
          variant.find("Chain") != std::string::npos) {
        continue;
      }
      for (const u32 cores : {1u, 4u}) {
        RunRequest request =
            RunRequest::for_kernel(entry->name, variant, {}, EngineSel::kCycle);
        request.config.num_cores = cores;
        const RunReport report = run(request);
        const std::string where =
            entry->name + "/" + variant + "@" + std::to_string(cores);
        ASSERT_TRUE(report.ok) << where << ": " << report.error;
        ASSERT_EQ(report.cores.size(), cores) << where;
        for (usize h = 0; h < report.cores.size(); ++h) {
          const PerfCounters& p = report.cores[h].perf;
          const u64 fp_side = p.fp_instrs + p.stall_fp_raw + p.stall_fp_waw +
                              p.stall_chain_empty + p.stall_chain_full +
                              p.stall_ssr_empty + p.stall_ssr_wfull +
                              p.stall_fpu_busy + p.stall_fp_lsu + p.fp_queue_empty;
          EXPECT_EQ(fp_side, p.cycles) << where << " hart " << h;
        }
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 32u);  // 16 non-chained variants x {1, 4} cores
}

} // namespace
} // namespace sch::api
