#!/usr/bin/env python3
"""Smoke check of the benchmark, run from the repository root:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and
traced, and checks that

* each run ends with a correct result line,
* the untraced run emits every end-to-end metric, and the traced run
  every per-layer metric, each with the unit BENCHMARK.json gives,
* the traced run wrote its span file, and every traced request closes:
  the self times of its layer spans sum to within CLOSURE_TOLERANCE of
  the request's end-to-end time.

Exits non-zero on the first failure.
"""

import json
import subprocess
import sys
from collections import defaultdict

SECONDS = "1"
SEED = "7"
CLOSURE_TOLERANCE = 0.05


def run(command, workload, trace):
    argv = command + ["--workload", workload, "--seed", SEED, "--seconds", SECONDS, "--trace", trace]
    out = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def self_times(events):
    """Self time of every span: its duration minus the union of its
    children's intervals."""
    children = defaultdict(list)
    for e in events:
        if e["args"]["parent"] is not None:
            children[e["args"]["parent"]].append((e["ts"], e["ts"] + e["dur"]))
    out = {}
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        covered, cursor = 0.0, start
        for a, b in sorted(children[e["args"]["id"]]):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out[e["args"]["id"]] = e["dur"] - covered
    return out


def check_closure(path):
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e["ph"] == "X"]
    selfs = self_times(events)
    by_request = defaultdict(list)
    for e in events:
        by_request[e["args"]["request"]].append(e)
    checked, misses = 0, []
    for request, spans in by_request.items():
        roots = [s for s in spans if s["args"]["parent"] is None]
        layers = [s for s in spans if s["args"]["parent"] is not None]
        if not layers:
            continue
        assert len(roots) == 1, f"request {request} has {len(roots)} root spans"
        root = roots[0]["dur"]
        total = sum(selfs[s["args"]["id"]] for s in layers)
        # Timestamps carry three decimals of a microsecond.
        slack = CLOSURE_TOLERANCE * root + 0.002 * len(spans)
        if abs(root - total) > slack:
            misses.append(f"request {request}: layers {total:.1f} us of {root:.1f} us")
        checked += 1
    assert checked > 0, f"{path} holds no traced requests"
    # The only time outside every layer span is the benchmark's own glue
    # between calls; on a loaded 2-vCPU host its thread is sometimes
    # descheduled there, so one request in 50 may miss.
    assert len(misses) <= max(1, checked // 50), f"{path}: {len(misses)} of {checked} requests do not close: {misses[:3]}"
    return checked


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, listed in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            result = run(command, workload, trace)
            assert result["correct"] and result["failed"] == 0, f"{workload} trace {trace}: {result}"
            assert result["attempted"] >= 1
            got = result["metrics"]
            for m in listed:
                assert m["name"] in got, f"{workload} trace {trace}: missing {m['name']}"
                assert got[m["name"]]["unit"] == m["unit"], f"{workload}: {m['name']} unit {got[m['name']]['unit']}"
            extra = set(got) - {m["name"] for m in listed}
            assert not extra, f"{workload} trace {trace}: undeclared metrics {sorted(extra)}"
            print(f"ok  {workload} trace {trace}: {len(got)} metrics")
        spans = f"perfbench/out/{workload}-seed{SEED}.spans.json"
        print(f"ok  {workload}: {check_closure(spans)} traced requests close within {CLOSURE_TOLERANCE:.0%}")


if __name__ == "__main__":
    try:
        main()
    except (AssertionError, subprocess.CalledProcessError) as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
