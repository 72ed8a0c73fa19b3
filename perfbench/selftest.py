#!/usr/bin/env python3
"""Self-test of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

Checks that
  * every name in BENCHMARK.json is well formed (and every unit),
  * a tiny-size run of every workload passes all its output checks, at two
    different seeds, untraced and traced,
  * each such run prints exactly the end-to-end metrics (--trace 0) or the
    per-layer metrics (--trace 1) that BENCHMARK.json lists, with the
    listed units.
Exits non-zero on the first failure class found, after reporting all.
"""
import json
import os
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEEDS = (1, 2)


def run(workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return done.returncode, None, done.stderr
    try:
        return done.returncode, json.loads(lines[-1]), done.stderr
    except ValueError:
        return done.returncode, None, done.stderr


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []
    groups = {0: bench["end_to_end"], 1: bench["per_layer"]}
    names = [m["name"] for g in groups.values() for m in g]
    names += [w["name"] for w in bench["workloads"]]
    for name in names:
        if not NAME.match(name):
            problems.append(f"malformed name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for g in groups.values():
        for m in g:
            if not UNIT.match(m["unit"]):
                problems.append(f"malformed unit {m['unit']!r} of {m['name']}")

    for w in bench["workloads"]:
        for seed in SEEDS:
            for trace in (0, 1):
                tag = f"{w['name']} seed {seed} trace {trace}"
                code, res, err = run(w["name"], seed, trace)
                if res is None:
                    problems.append(f"{tag}: no result (exit {code})\n{err}")
                    continue
                if set(res) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{tag}: result keys {sorted(res)}")
                if code != 0 or not res["correct"] or res["failed"] != 0:
                    problems.append(f"{tag}: checks failed (exit {code})\n{err}")
                if res["attempted"] < 1:
                    problems.append(f"{tag}: nothing attempted")
                want = {m["name"]: m["unit"] for m in groups[trace]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != want:
                    missing = sorted(set(want) - set(got))
                    extra = sorted(set(got) - set(want))
                    units = sorted(k for k in set(want) & set(got)
                                   if want[k] != got[k])
                    problems.append(f"{tag}: missing {missing} extra {extra} "
                                    f"wrong units {units}")
                if trace == 0 and res["metrics"].get(
                        "ok_ops_ratio", {}).get("value") != 1:
                    problems.append(f"{tag}: ok_ops_ratio != 1")
                print(f"{tag}: {'ok' if not problems else 'see below'}",
                      flush=True)
    for p in problems:
        print("FAIL:", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
