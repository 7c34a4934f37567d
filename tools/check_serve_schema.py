#!/usr/bin/env python3
"""Validate a `schsim serve` NDJSON response transcript.

Every response line must be a self-contained JSON object with a known
"type"; report rows embedded in "report" lines must satisfy the pinned
RunReport row schema (imported from check_report_schema.py, so the two
checkers can never drift apart).

Two modes:

  check_serve_schema.py TRANSCRIPT.ndjson [...]
      Validate saved `schsim run --stream` transcripts (their done lines
      carry no "cache" block: a stream has no report cache).

  check_serve_schema.py --run SCHSIM [--port P] REQUESTS.ndjson
      Launch `SCHSIM serve` as a subprocess, feed it the request file,
      validate everything it answers, and additionally check the protocol
      contract: one terminal response (done / error / pong / stats /
      dropped / bye) per non-blank request line, and for every
      "id"-carrying request, a terminal line echoing that id. Stats and
      done lines carry exactly the report-cache counters. Without --port
      the requests go over stdin; with --port P (0 = any free port) the
      daemon listens on TCP, the checker reads the port from its
      "listening on 127.0.0.1:N" log line, replays the requests on one
      connection, then ends the daemon with a shutdown op on a second.

Exit codes: 0 ok, 1 schema violation, 2 bad input / subprocess failure.
"""

import argparse
import json
import re
import select
import socket
import subprocess
import sys
import time

import check_report_schema as report_schema

LINE_TYPES = {"report", "done", "error", "pong", "stats", "dropped", "bye"}
TERMINAL_TYPES = {"done", "error", "pong", "stats", "dropped", "bye"}
ROLLUP_KEYS = [
    "jobs", "ok", "failures", "geomean_cycles", "total_cycles",
    "total_iss_instructions", "total_useful_flops", "fpu_utilization", "tcdm",
]
CACHE_COUNTER_KEYS = ["hits", "misses", "evictions", "entries"]


class SchemaError(Exception):
    pass


def need(line, key, types, where):
    if key not in line:
        raise SchemaError(f"{where}: missing key '{key}'")
    value = line[key]
    if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in (
                types if isinstance(types, tuple) else (types,))):
        raise SchemaError(
            f"{where}: key '{key}' has type {type(value).__name__}")
    return value


def check_cache_counters(cache, where):
    # The daemon has one cache, the report memo; nothing else may appear.
    if set(cache) != {"report"}:
        raise SchemaError(f"{where}: keys {sorted(cache)} (want ['report'])")
    for key in CACHE_COUNTER_KEYS:
        need(cache["report"], key, int, f"{where}.report")


def check_failure(failure, where):
    kind = need(failure, "kind", str, where)
    if kind not in report_schema.FAILURE_KINDS:
        raise SchemaError(f"{where}: failure kind '{kind}' not in "
                          f"{sorted(report_schema.FAILURE_KINDS)}")
    for key in ("hart", "pc", "cycle"):
        need(failure, key, int, where)


def check_line(path, n, line, served):
    """`served`: the line came from the daemon (not `schsim run --stream`)."""
    where = f"line {n}"
    if not isinstance(line, dict):
        raise SchemaError(f"{where}: not a JSON object")
    ltype = need(line, "type", str, where)
    if ltype not in LINE_TYPES:
        raise SchemaError(f"{where}: unknown type '{ltype}'")
    if "id" not in line:
        raise SchemaError(f"{where}: missing key 'id'")

    if ltype == "report":
        seq = need(line, "seq", int, where)
        of = need(line, "of", int, where)
        need(line, "cached", bool, where)
        if not 0 <= seq < of:
            raise SchemaError(f"{where}: seq {seq} outside [0, {of})")
        row = need(line, "report", dict, where)
        # check_report_schema exits on violation; that IS the failure path.
        report_schema.check_row(path, n, row)
        for key in ("sizes", "sim"):
            need(row, key, dict, f"{where}.report")
        need(row, "repeat", int, f"{where}.report")
    elif ltype == "done":
        need(line, "jobs", int, where)
        need(line, "failures", int, where)
        need(line, "wall_s", (int, float), where)
        rollup = need(line, "rollup", dict, where)
        for key in ROLLUP_KEYS:
            need(rollup, key, (int, float, dict), f"{where}.rollup")
        for key in ("p50", "p90", "p99"):
            need(rollup["fpu_utilization"], key, (int, float),
                 f"{where}.rollup.fpu_utilization")
        for key in ("reads", "writes", "conflicts", "top_banks"):
            if key not in rollup["tcdm"]:
                raise SchemaError(f"{where}: rollup.tcdm missing '{key}'")
        if served:
            check_cache_counters(need(line, "cache", dict, where),
                                 f"{where}.cache")
        elif "cache" in line:
            raise SchemaError(f"{where}: a --stream done line has no 'cache'")
    elif ltype == "error":
        need(line, "error", str, where)
        check_failure(need(line, "failure", dict, where), f"{where}.failure")
    elif ltype == "stats":
        check_cache_counters(need(line, "cache", dict, where), f"{where}.cache")
        served = need(line, "served", dict, where)
        for key in ("requests", "jobs", "failures"):
            need(served, key, int, f"{where}.served")


def check_transcript(path, text, request_lines=None):
    """Validate one transcript; returns (lines, reports, terminals).

    With `request_lines` the transcript is a daemon's answer to them;
    without, a saved `schsim run --stream` transcript."""
    reports = 0
    terminals = 0
    terminal_ids = []
    n = 0
    for raw in text.splitlines():
        if not raw.strip():
            continue
        n += 1
        try:
            line = json.loads(raw)
        except ValueError as e:
            raise SchemaError(f"line {n}: not valid JSON: {e}") from e
        check_line(path, n, line, served=request_lines is not None)
        if line["type"] == "report":
            reports += 1
        if line["type"] in TERMINAL_TYPES:
            terminals += 1
            terminal_ids.append(line["id"])

    if request_lines is not None:
        expected = [l for l in request_lines if l.strip("\r\n \t")]
        if terminals != len(expected):
            raise SchemaError(
                f"{terminals} terminal responses for {len(expected)} requests")
        # Every id-carrying request must get a terminal response echoing
        # its id.
        want_ids = []
        for req in expected:
            try:
                doc = json.loads(req)
            except ValueError:
                continue  # malformed on purpose; answered with id null
            if isinstance(doc, dict) and "id" in doc:
                want_ids.append(doc["id"])
        got = list(terminal_ids)
        for want in want_ids:
            if want in got:
                got.remove(want)
            else:
                raise SchemaError(f"no terminal response for request id "
                                  f"{want!r}")
    print(f"{path}: ok ({n} lines, {reports} reports, {terminals} terminal)")
    return n, reports, terminals


TIMEOUT_S = 300


def tcp_exchange(port, payload):
    """Send `payload` on a fresh connection, half-close, read to EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S) as s:
        s.sendall(payload.encode())
        s.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                return b"".join(chunks).decode()
            chunks.append(chunk)


def read_listen_port(proc):
    """The port from the daemon's `listening on 127.0.0.1:N` log line."""
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stderr], [], [], 1.0)
        if not ready:
            continue
        line = proc.stderr.readline()
        if not line:
            return None  # daemon exited before listening
        m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if m:
            return int(m.group(1))
    return None


def serve_tcp(cmd, request_lines):
    """Run the requests against `cmd` (a `serve --port P` daemon) over TCP;
    returns (transcript, error message or None)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        port = read_listen_port(proc)
        if port is None:
            return None, "daemon never logged its listening port"
        transcript = tcp_exchange(port, "".join(request_lines))
        bye = tcp_exchange(port, '{"op":"shutdown","id":"end"}\n')
        if '"bye"' not in bye:
            return None, f"shutdown op answered {bye!r}"
        proc.wait(timeout=TIMEOUT_S)
        if proc.returncode != 0:
            return None, f"exited {proc.returncode}"
        return transcript, None
    except (OSError, subprocess.TimeoutExpired) as e:
        return None, str(e)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


def run_mode(schsim, requests_path, port):
    with open(requests_path, encoding="utf-8") as f:
        request_lines = f.readlines()
    cmd = [schsim, "serve"]
    if port is None:
        proc = subprocess.run(cmd, input="".join(request_lines),
                              capture_output=True, text=True, timeout=TIMEOUT_S)
        transcript = proc.stdout
        error = (f"exited {proc.returncode}\n{proc.stderr}"
                 if proc.returncode != 0 else None)
    else:
        cmd += ["--port", str(port)]
        transcript, error = serve_tcp(cmd, request_lines)
    if error is not None:
        print(f"check_serve_schema: `{' '.join(cmd)}`: {error}", file=sys.stderr)
        return 2
    label = f"{requests_path} -> {' '.join(cmd[1:])}"
    try:
        check_transcript(label, transcript, request_lines)
    except SchemaError as e:
        print(f"{label}: SCHEMA ERROR: {e}", file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="+",
                        help="transcripts, or the request file with --run")
    parser.add_argument("--run", metavar="SCHSIM", default=None,
                        help="launch `SCHSIM serve` and validate its output "
                             "for the given request file")
    parser.add_argument("--port", type=int, default=None,
                        help="with --run: serve over TCP on this port "
                             "(0 = any free port) instead of stdin")
    args = parser.parse_args()

    if args.run is not None:
        if len(args.paths) != 1:
            print("check_serve_schema: --run takes exactly one request file",
                  file=sys.stderr)
            return 2
        return run_mode(args.run, args.paths[0], args.port)

    for path in args.paths:
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            print(f"check_serve_schema: cannot read {path}: {e}",
                  file=sys.stderr)
            return 2
        try:
            check_transcript(path, text)
        except SchemaError as e:
            print(f"{path}: SCHEMA ERROR: {e}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
