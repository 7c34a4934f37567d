#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload fig3_sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root. The first run configures and builds the
simulator library and the benchmark into .bench_build/perfbench (Release);
later runs only re-check the build. Each workload runs in its own process.
The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics": every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1. A
per-layer metric of a layer the workload does not exercise reads 0;
LAYER_METRICS lists the ones each workload must produce.

Steadiness mode runs a workload N times, each with another seed, and prints
each end-to-end metric's median, quartiles, min/max and quartile spread
against its bound:

    python3 perfbench/run.py --steady 10 --workload all --seconds 20
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170

# The per-layer metrics each workload measures. A traced run that leaves one
# out, or reports one not listed for it, fails; every other per-layer metric
# of BENCHMARK.json belongs to a layer the workload does not exercise and
# reads 0.
COMMON_LAYER_METRICS = ["unit_ms.p50", "unit_ms.p90", "trace.overhead_pct", "trace.spans"]
LAYER_METRICS = {
    "fig3_sweep": [
        "sim_mcycles_per_s", "iss_mips", "sim_kcycles", "paper_err_pp", "claim_err_pp",
        "api.sim_run_ms.p50", "api.sim_run_ms.p90", "sim.host_ns_per_cycle",
        "iss.host_ns_per_instr", "kernels.build_ms", "core.chain_stall_frac",
        "ssr.stall_frac", "sim.fp_raw_stall_frac", "sim.fp_idle_frac",
        "mem.tcdm_conflicts_per_kcycle", "sim.fpu_util_chaining_plus", "energy.pj_per_flop"],
    "dma_stream": [
        "sim_mcycles_per_s", "sim_kcycles", "api.sim_run_ms.p50", "api.sim_run_ms.p90",
        "sim.host_ns_per_cycle", "kernels.build_ms", "sim.fp_idle_frac",
        "sim.dma_full_stall_frac", "mem.tcdm_conflicts_per_kcycle", "dma.busy_frac",
        "dma.startup_per_kcycle", "dma.bytes_per_cycle"],
    "fuzz_lockstep": [
        "runs_per_s", "fuzz.generate_us", "fuzz.materialize_us", "verify.analyze_us",
        "iss.run_us", "sim.run_us", "api.lockstep_run_ms.p50", "api.lockstep_run_ms.p90",
        "api.mem_compare_ms", "verify.error_findings", "verify.incomplete_frac"],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build(target="perfbench"):
    """Configure (once) and build; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def provenance():
    """Commit and dirty flag when the checkout is a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    def git(*args):
        try:
            proc = subprocess.run(["git", "-C", ROOT, *args], stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True, env=env,
                                  check=False, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None
    commit = git("rev-parse", "HEAD")
    if commit is None:
        return "unknown", False
    return commit, bool(git("status", "--porcelain", "--untracked-files=no"))


def run_workload(spec, workload, seed, seconds, trace, min_units=None, spans=None,
                 echo=True):
    """Run one workload process; return its checked result object or None."""
    commit, dirty = provenance()
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--commit", commit, "--dirty", "1" if dirty else "0"]
    if min_units is not None:
        cmd += ["--min-units", str(min_units)]
    if spans is not None:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {workload} exited with code {proc.returncode}")
        return None
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: the workload's last line is not JSON")
        return None
    return check_result(spec, raw, workload, trace)


def check_result(spec, raw, workload, trace):
    """Keep exactly the metrics BENCHMARK.json declares for this mode."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    measured = COMMON_LAYER_METRICS + LAYER_METRICS[workload] if trace else None
    metrics = {}
    for m in declared:
        got = raw["metrics"].get(m["name"])
        if trace and (got is None) == (m["name"] in measured):
            log(f"perfbench: per-layer metric {m['name']} is "
                + ("missing" if got is None else "not listed for " + workload))
            return None
        if got is None:
            if not trace:
                log(f"perfbench: end-to-end metric {m['name']} is missing")
                return None
            got = {"value": 0, "unit": m["unit"]}  # layer not exercised here
        value = got["value"]
        if got["unit"] != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            log(f"perfbench: metric {m['name']} is malformed: {got}")
            return None
        if not trace and value <= 0:
            log(f"perfbench: end-to-end metric {m['name']} is not positive: {value}")
            return None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": bool(raw["correct"]) and raw["failed"] == 0,
            "attempted": int(raw["attempted"]), "failed": int(raw["failed"]),
            "metrics": metrics}


def steady(spec, workloads, runs, seconds, seed_base):
    """Run each workload `runs` times with distinct seeds; print the spread
    of every end-to-end metric against its bound. Returns True when every
    spread but setup_s's is within a third of its bound."""
    ok = True
    summary = {}
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        failed = 0
        for i in range(runs):
            res = run_workload(spec, workload, seed_base + i, seconds, False, echo=False)
            if res is None:
                return False
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
            log(f"  {workload} seed {seed_base + i}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()))
        print(f"\n{workload}: {runs} runs, {failed} failed operations")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'min':>12}{'max':>12}"
              f"{'spread':>9}{'bound':>7}  verdict")
        summary[workload] = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "TOO NOISY")
            if m["name"] == "setup_s":
                verdict += " (not gated on spread)"
            elif spread >= m["bound"] / 3:
                ok = False
            print(f"  {m['name']:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{min(v):>12.5g}"
                  f"{max(v):>12.5g}{spread:>9.3f}{m['bound']:>7.2f}  {verdict}")
            summary[workload][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                            "min": min(v), "max": max(v),
                                            "spread": spread, "bound": m["bound"]}
        if failed:
            ok = False
    print(json.dumps({"steadiness": summary}))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-units", type=int, default=None,
                    help="lower the 100-unit minimum (smoke tests only)")
    ap.add_argument("--spans", default=None, help="write the traced run's spans here")
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="steadiness mode: N runs per workload, seeds --seed..--seed+N-1")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not build():
        return 1
    if args.steady:
        workloads = names if args.workload == "all" else [args.workload]
        return 0 if steady(spec, workloads, args.steady, seconds, args.seed) else 1
    if args.workload not in names:
        log(f"perfbench: unknown workload {args.workload!r}; choose from {names}")
        return 2
    res = run_workload(spec, args.workload, args.seed, seconds, args.trace == 1,
                       args.min_units, args.spans)
    if res is None:
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
