#!/usr/bin/env python3
"""Builds the repository benchmark and runs its workloads, each in a fresh process.

Usage (through run.sh / repeat.sh):
  run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke]
      One workload: its result line (JSON) is the last line on stdout.
      No --workload: all four in turn, then a table of every metric.
      Writes BENCH_e2e.json (BENCH_e2e_trace.json when traced) at the repo root;
      a traced run also writes TRACE_e2e_<workload>.json there.
  repeat.sh N [--sets K] [--workload W] [--seed S] [--seconds N] [--out FILE]
      K sets (default 1) of N rounds; round i runs the workloads in forward or
      reverse order, alternately, each with its own seed.  Prints every
      metric's median, quartiles, quartile spread and (max - min) / median per
      set and over all runs, and how far the set medians differ against the
      bounds in BENCHMARK.json.  Writes FILE (default BENCH_e2e_repeat.json).

The build goes to build/e2e (a CMake project of its own, bench/e2e).  Exit
status is nonzero when the build fails, a run fails, or a result is
incorrect or incomplete.
"""
import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build" / "e2e"
BINARY = BUILD / "mwx_e2e"
WORKLOADS = ["al1000", "gas16k", "droplet200k", "serve_mix"]

sys.dont_write_bytecode = True  # leave nothing behind in bench/e2e
sys.path.insert(0, str(HERE))
import check_output  # noqa: E402


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    configured = any((BUILD / f).exists() for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "mwx_e2e", "-j", "4"],
                   check=True, stdout=sys.stderr)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_one(workload, seed, seconds, trace, smoke, spec):
    """Runs one workload in a fresh process; returns (exit code, result or None)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        log(f"{workload}: no result line (exit {proc.returncode})")
        return proc.returncode or 1, None
    bad = check_output.problems(result, trace, spec)
    for p in bad:
        log(f"{workload}: {p}")
    code = proc.returncode
    if bad or not result["correct"]:
        code = code or 1
    return code, result


def header(args, spec):
    return {"bench": "e2e", "git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "hardware_concurrency": os.cpu_count(),
            "seconds": args.seconds, "smoke": args.smoke, "trace": args.trace,
            "end_to_end": spec["end_to_end"]}


def write_json(name, doc):
    path = ROOT / name
    path.write_text(json.dumps(doc, indent=2) + "\n")
    log(f"wrote {path}")


def run(args, spec):
    names = [args.workload] if args.workload else WORKLOADS
    doc = header(args, spec) | {"seed": args.seed, "workloads": {}}
    status = 0
    for name in names:
        code, result = run_one(name, args.seed, args.seconds, args.trace, args.smoke, spec)
        status = status or code
        if result is not None:
            doc["workloads"][name] = result
    write_json("BENCH_e2e_trace.json" if args.trace else "BENCH_e2e.json", doc)
    if args.workload:
        if name in doc["workloads"]:
            print(json.dumps(doc["workloads"][name]))
        return status
    for name, result in doc["workloads"].items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, vu in result["metrics"].items():
            print(f"  {metric} = {vu['value']:.6g} {vu['unit']}")
    return status


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    scale = abs(med) if med else 1.0
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / scale,
            "range_over_median": (max(values) - min(values)) / scale,
            "values": values}


def stats_of(runs):
    """{workload: {metric: summary}} over a list of (workload, seed, result)."""
    by = {}
    for workload, _, result in runs:
        for metric, vu in result["metrics"].items():
            by.setdefault(workload, {}).setdefault(metric, []).append(vu["value"])
    return {w: {m: summarize(v) for m, v in ms.items()} for w, ms in by.items()}


def repeat(args, spec):
    names = [args.workload] if args.workload else WORKLOADS
    sets = []
    status = 0
    seed = args.seed
    for s in range(args.sets):
        runs = []
        for i in range(args.repeat):
            order = names if i % 2 == 0 else names[::-1]
            for name in order:
                t0 = time.monotonic()
                code, result = run_one(name, seed, args.seconds, args.trace, args.smoke, spec)
                log(f"set {s} round {i} {name} seed {seed}: exit {code}, "
                    f"{time.monotonic() - t0:.1f} s wall")
                status = status or code
                if result is not None:
                    runs.append((name, seed, result))
            seed += 1
        sets.append(runs)

    bound = {m["name"]: m for m in spec["end_to_end"]}
    doc = header(args, spec) | {"first_seed": args.seed, "rounds_per_set": args.repeat,
                                "sets": [], "all": stats_of([r for s in sets for r in s])}
    for runs in sets:
        doc["sets"].append({"seeds": sorted({seed for _, seed, _ in runs}),
                            "stats": stats_of(runs)})
    print(f"{'workload':12} {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'rng/med':>8}  (over all {sum(len(s) for s in sets)} runs)")
    for w, ms in doc["all"].items():
        for m, st in ms.items():
            print(f"{w:12} {m:28} {st['median']:12.6g} {st['q1']:12.6g} {st['q3']:12.6g} "
                  f"{st['iqr_over_median']:8.4f} {st['range_over_median']:8.4f}")
    if len(sets) > 1 and not args.trace:
        a, b = doc["sets"][0]["stats"], doc["sets"][1]["stats"]
        doc["set_medians"] = {}
        print("\nset 0 vs set 1 medians against the bounds in BENCHMARK.json:")
        for w in a:
            for m in a[w]:
                if m not in bound or m not in b.get(w, {}):
                    continue
                ma, mb = a[w][m]["median"], b[w][m]["median"]
                diff = abs(mb - ma) / abs(ma)
                ok = diff < bound[m]["bound"]
                doc["set_medians"].setdefault(w, {})[m] = {
                    "set0": ma, "set1": mb, "diff_over_median": diff, "bound": bound[m]["bound"],
                    "within_bound": ok}
                print(f"  {w:12} {m:16} {ma:12.6g} {mb:12.6g} diff {diff:.4f} "
                      f"bound {bound[m]['bound']} {'ok' if ok else 'EXCEEDS'}")
    write_json(args.out, doc)
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", nargs="?", const="1", default="0", choices=["0", "1"])
    p.add_argument("--smoke", action="store_true", help="tiny sizes, same output schema")
    p.add_argument("--repeat", type=int, help="rounds per set (repeat.sh)")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--out", default="BENCH_e2e_repeat.json")
    args = p.parse_args()
    args.trace = args.trace == "1"

    spec = check_output.load_spec()
    if args.seconds is None:
        args.seconds = 1 if args.smoke else spec["run_seconds"]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    if args.repeat:
        return repeat(args, spec)
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
