#!/usr/bin/env python3
"""Builds and runs the parspan benchmark for one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark binary is compiled from source
with CMake into $CARGO_TARGET_DIR (default .bench_build), then run once.
Its '#' lines (run environment) are passed through, and the last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A traced run also leaves its spans as Chrome trace-event JSON under
<build dir>/traces/ (open it in chrome://tracing or ui.perfetto.dev); the
per-layer metrics are computed from that file by per_layer() below.

Workloads and metrics are described in perfbench/NOTES.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("spanner-churn", "ultra-churn", "sparsifier-churn", "served-rw")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_id(root):
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        top, _, commit = out.stdout.strip().partition("\n")
        if out.returncode == 0 and os.path.samefile(top, root) and commit:
            return commit
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def build(build_dir):
    """Configures and builds the benchmark binary; returns its path or None."""
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"perfbench: cannot run {cmd[0]}: {e}")
            return None
        if done.returncode != 0:
            log("perfbench: build failed")
            return None
    exe = os.path.join(cmake_dir, "perfbench")
    return exe if os.path.exists(exe) else None


# --- Per-layer metrics from the Chrome trace ---------------------------------

def pct(values, q):
    """Element at index round(q*(n-1)) of the sorted values, as the benchmark
    binary computes percentiles; 0 when empty."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(len(v) - 1, int(q * (len(v) - 1) + 0.5))]


def per_layer(trace_path):
    with open(trace_path) as f:
        trace = json.load(f)
    spans, counters = [], {}
    for e in trace["traceEvents"]:
        if e["ph"] == "X":
            spans.append(e)
        elif e["ph"] == "C":
            counters.setdefault(e["name"], {}).update(e["args"])
    other = trace.get("otherData", {})
    by_id = {e["args"]["id"]: e for e in spans}

    def named(name):
        return [e for e in spans if e["name"] == name]

    def under(e):
        parent = by_id.get(e["args"]["parent"])
        return parent["name"] if parent else ""

    def counter(group, key):
        return float(counters.get(group, {}).get(key, 0.0))

    updates = named("core.update")
    w1 = [e for e in updates if under(e) == "parallel.replay_w1"]
    wn = [e for e in updates if under(e) == "parallel.replay_wN"]
    at_n = [e for e in updates if under(e) != "parallel.replay_w1"]
    edges = sum(e["args"].get("edges", 0) for e in at_n)
    diff = sum(e["args"].get("diff", 0) for e in at_n)
    rebuild = [e for e in at_n if e["args"].get("rebuild")]
    at_n_us = sum(e["dur"] for e in at_n)
    wn_us = sum(e["dur"] for e in wn)

    query_us = pct([e["dur"] for e in named("service.query")], 0.5)
    net_read_us = pct([e["dur"] for e in named("net.read")], 0.5)
    acked = counter("durability", "acked_edges")

    m = {
        "core.recourse_per_edge": (diff / edges if edges else 0.0, "edges/edge"),
        "core.rebuilds": (counter("core", "rebuilds"), "count"),
        "core.partitions": (counter("core", "partitions"), "count"),
        "core.rebuild_batch_share":
            (len(rebuild) / len(at_n) if at_n else 0.0, "ratio"),
        "core.rebuild_time_share":
            (sum(e["dur"] for e in rebuild) / at_n_us if at_n_us else 0.0,
             "ratio"),
        "core.sparsifier_err":
            (float(other.get("core.sparsifier_err", 0.0)), "ratio"),
        "parallel.speedup_nv1":
            (sum(e["dur"] for e in w1) / wn_us if wn_us else 0.0, "x"),
        "parallel.cpu_util":
            (sum(e["args"].get("cpu_us", 0) for e in wn) / wn_us
             if wn_us else 0.0, "cores"),
        "service.submit_ms":
            (pct([e["dur"] for e in named("net.submit_for")], 0.5) / 1e3, "ms"),
        "service.flush_ms":
            (pct([e["dur"] for e in named("net.flush")], 0.5) / 1e3, "ms"),
        "service.query_us_p50": (query_us, "us"),
        "service.edges_timed_out": (counter("service", "edges_timed_out"), "count"),
        "net.retry_afters": (counter("net", "retry_afters"), "count"),
        "net.protocol_errors": (counter("net", "protocol_errors"), "count"),
        "net.read_overhead_us":
            (net_read_us - query_us if net_read_us else 0.0, "us"),
        "durability.records_logged":
            (counter("durability", "records_logged"), "count"),
        "durability.wal_bytes_per_edge":
            (counter("durability", "wal_bytes") / acked if acked else 0.0,
             "B/edge"),
        "replication.ship_ms":
            (pct([e["dur"] for e in named("replication.ship")], 0.5) / 1e3, "ms"),
        "replication.apply_ms":
            (pct([e["dur"] for e in named("replication.apply")], 0.5) / 1e3, "ms"),
        "replication.records_shipped":
            (counter("replication", "records_shipped"), "count"),
        "replication.snapshot_resyncs":
            (counter("replication", "snapshot_resyncs"), "count"),
        "replication.duplicates_dropped":
            (counter("replication", "duplicates_dropped"), "count"),
        "replication.rejects": (counter("replication", "rejects"), "count"),
        "trace.overhead_pct":
            (float(other.get("trace.overhead_pct", 0.0)), "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (numbers are not comparable)")
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(root, ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    exe = build(build_dir)
    if exe is None:
        return 2

    tmp = os.path.join(build_dir, f"tmp-{os.getpid()}")
    trace_path = os.path.join(build_dir, "traces", f"{args.workload}.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp, "--commit", source_id(root)]
    if args.trace:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        cmd += ["--trace-out", trace_path]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench: no result (exit code {done.returncode})")
        return done.returncode or 4
    if args.trace:
        result["metrics"] = per_layer(trace_path)
    print(json.dumps(result), flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
