#!/usr/bin/env python3
"""Validate a scenario/engine JSON report against the pinned RunReport schema.

Usage: check_report_schema.py report.json [report2.json ...]

The schema version and the row key set are pinned here, in
src/api/run_report.hpp (kSchemaVersion) and in the golden test in
tests/test_api.cpp; all three must move together. The "stalls" and "mix"
key sets are read from the counter table in src/sim/perf.hpp.
"""
import json
import os
import re
import sys

SCHEMA_VERSION = 5

# Required keys of one RunReport row and their JSON types. "error" and
# "failure" are present only on failed rows, so they are checked
# conditionally.
# v2 adds "num_cores", the per-core "cores" sections and the TCDM
# "out_of_range"/"top_banks" keys; every v1 key is unchanged.
# v3 adds the "dma" section and the "dma_full" stall key.
# v4 adds the structured "failure" section (kind/hart/pc/cycle) on failed
# rows; ok rows must not carry one.
# v5 exports the whole counter table in "stalls" and a new "mix" object.
ROW_KEYS = {
    "schema": int,
    "name": str,
    "kernel": str,
    "variant": str,
    "engine": str,
    "ok": bool,
    "cycles": int,
    "retired": int,
    "fpu_ops": int,
    "fpu_utilization": (int, float),
    "useful_flops": int,
    "iss_instructions": int,
    "mismatches": int,
    "lockstep_mismatches": int,
    "stalls": dict,
    "mix": dict,
    "tcdm": dict,
    "dma": dict,
    "num_cores": int,
    "cores": list,
    "energy": dict,
    "regs": dict,
    "wall_s": (int, float),
}
# Counter-table rows, X(field, "json_key", kGroup), give the stalls/mix keys.
PERF_HPP = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "..", "src", "sim", "perf.hpp")
with open(PERF_HPP) as f:
    PERF_ROWS = re.findall(r'^\s*X\((\w+), "(\w+)", k(Top|Stall|Mix)\)',
                           f.read(), re.M)
COUNTER_SECTIONS = [
    (section, [key for _, key, g in PERF_ROWS if g == group])
    for section, group in (("stalls", "Stall"), ("mix", "Mix"))
]
TCDM_KEYS = ["reads", "writes", "conflicts", "out_of_range", "top_banks"]
DMA_KEYS = [
    "transfers", "bytes", "busy_cycles", "startup_cycles", "tcdm_conflicts",
    "queue_full_stalls", "achieved_bytes_per_cycle",
]
CORE_KEYS = ["hart", "cycles", "retired", "fpu_ops", "fpu_utilization", "stalls",
             "mix"]
ENERGY_KEYS = ["power_mw", "energy_per_cycle_pj", "fpu_ops_per_joule"]
REGS_KEYS = ["fp_used", "accumulator", "chained", "ssr"]
ENGINES = {"iss", "cycle", "both"}
FAILURE_KINDS = {
    "validation", "bus_error", "deadlock", "lockstep_mismatch",
    "golden_mismatch", "budget_exceeded", "internal",
}


def fail(path, message):
    print(f"{path}: SCHEMA ERROR: {message}", file=sys.stderr)
    sys.exit(1)


def need_keys(path, where, section, keys):
    for key in keys:
        if key not in section:
            fail(path, f"{where} missing '{key}'")


def check_counters(path, where, section, keys):
    """`section` holds exactly `keys`, each a non-negative integer."""
    if not isinstance(section, dict):
        fail(path, f"{where} is not an object")
    if set(section) != set(keys):
        fail(path, f"{where}: missing {sorted(set(keys) - set(section))}, "
                   f"unexpected {sorted(set(section) - set(keys))}")
    for key, value in section.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            fail(path, f"{where}.{key} = {value!r} is not a non-negative int")


def check_row(path, i, row):
    where = f"results[{i}]"
    for key, ty in ROW_KEYS.items():
        if key not in row:
            fail(path, f"{where}: missing key '{key}'")
        if not isinstance(row[key], ty) or isinstance(row[key], bool) != (ty is bool):
            fail(path, f"{where}: key '{key}' has type {type(row[key]).__name__}")
    if row["schema"] != SCHEMA_VERSION:
        fail(path, f"{where}: schema {row['schema']} != pinned {SCHEMA_VERSION}")
    if row["engine"] not in ENGINES:
        fail(path, f"{where}: unknown engine '{row['engine']}'")
    if not row["ok"]:
        if "error" not in row:
            fail(path, f"{where}: failed row without an 'error' message")
        if "failure" not in row:
            fail(path, f"{where}: failed row without a 'failure' section")
        failure = row["failure"]
        if failure.get("kind") not in FAILURE_KINDS:
            fail(path, f"{where}: failure.kind '{failure.get('kind')}' not in "
                       f"{sorted(FAILURE_KINDS)}")
        for key in ("hart", "pc", "cycle"):
            if not isinstance(failure.get(key), int) or \
                    isinstance(failure.get(key), bool):
                fail(path, f"{where}: failure.{key} must be an integer")
    elif "failure" in row:
        fail(path, f"{where}: ok row carries a 'failure' section")
    for section, keys in (("tcdm", TCDM_KEYS), ("dma", DMA_KEYS),
                          ("energy", ENERGY_KEYS), ("regs", REGS_KEYS)):
        need_keys(path, f"{where}.{section}", row[section], keys)
    for entry in row["tcdm"]["top_banks"]:
        need_keys(path, f"{where}.tcdm.top_banks entry", entry,
                  ("bank", "conflicts"))
    if row["num_cores"] < 1:
        fail(path, f"{where}: num_cores {row['num_cores']} < 1")
    # The cycle engine reports one core section per core; the ISS-only
    # engine reports none.
    if row["cores"] and len(row["cores"]) != row["num_cores"]:
        fail(path, f"{where}: {len(row['cores'])} core sections for "
                   f"num_cores={row['num_cores']}")
    for section, keys in COUNTER_SECTIONS:
        check_counters(path, f"{where}.{section}", row[section], keys)
    for h, core in enumerate(row["cores"]):
        need_keys(path, f"{where}.cores[{h}]", core, CORE_KEYS)
        if core["hart"] != h:
            fail(path, f"{where}: cores[{h}] has hart={core['hart']}")
        for section, keys in COUNTER_SECTIONS:
            check_counters(path, f"{where}.cores[{h}].{section}", core[section],
                           keys)


def check_report(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA_VERSION:
        fail(path, f"top-level schema {doc.get('schema')} != pinned {SCHEMA_VERSION}")
    for key in ("scenario", "jobs", "failures", "workers", "results"):
        if key not in doc:
            fail(path, f"missing top-level key '{key}'")
    rows = doc["results"]
    if len(rows) != doc["jobs"]:
        fail(path, f"jobs={doc['jobs']} but {len(rows)} result rows")
    failures = sum(1 for row in rows if not row.get("ok", False))
    if failures != doc["failures"]:
        fail(path, f"failures={doc['failures']} but {failures} failed rows")
    for i, row in enumerate(rows):
        check_row(path, i, row)
    print(f"{path}: ok ({len(rows)} rows, schema {SCHEMA_VERSION})")


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in sys.argv[1:]:
        check_report(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
