#!/usr/bin/env python3
"""Checks benchmark results against the metric table in BENCHMARK.json.

A result is one workload's JSON line from mwx_e2e:
  {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": v, "unit": u}}}
An untraced result must carry every end_to_end metric, a traced one every
per_layer metric, each with a finite value and the unit BENCHMARK.json gives.

Usage: check_output.py FILE...
  FILE is a BENCH_e2e.json / BENCH_e2e_trace.json written by run.py.
Exits 1 and lists every problem if any result fails the check.
"""
import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def problems(result, trace, spec):
    """Returns a list of what is wrong with one workload's result."""
    if not isinstance(result, dict) or set(result) != KEYS:
        return [f"result keys are not {sorted(KEYS)}"]
    out = []
    if not isinstance(result["correct"], bool):
        out.append("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            out.append(f"'{key}' is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        out.append("'attempted' is below 1")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"] if isinstance(result["metrics"], dict) else {}
    for m in wanted:
        got = metrics.get(m["name"])
        if not isinstance(got, dict):
            out.append(f"{m['name']}: missing")
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            out.append(f"{m['name']}: value {value!r} is not a finite number")
        if not got.get("unit"):
            out.append(f"{m['name']}: no unit")
        elif got["unit"] != m["unit"]:
            out.append(f"{m['name']}: unit {got['unit']!r}, BENCHMARK.json says {m['unit']!r}")
    return out


def main(paths):
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    bad = 0
    for path in paths:
        doc = json.loads(pathlib.Path(path).read_text())
        workloads = doc.get("workloads") or {}
        if not workloads:
            print(f"{path}: no workload results", file=sys.stderr)
            bad += 1
        for name, result in workloads.items():
            for p in problems(result, doc.get("trace", False), spec):
                print(f"{path}: {name}: {p}", file=sys.stderr)
                bad += 1
    if bad:
        return 1
    print(f"ok: {', '.join(paths)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
