#!/usr/bin/env bash
# CI gate, eight stages: the tier-1 verify (full build with -Werror + test
# suite, including the 100k-atom RebuildScale determinism cases, the §V-A
# LocalityClaims cases on the three Table II machines and the closed-loop
# ServeTrafficTest cases); smoke runs of the counters/report and planner
# emitters, of the mwx_serve CLI and of the repository benchmark
# (bench/e2e); the forced-scalar preset's full suite;
# the tsan preset's concurrency suites
# (ThreadPool/TraceRing/ForChunks/Reentrancy/Serve/SceneCache/
# RebuildParallel/StepPipeline/NeighborBuild/PhaseDispatch, and the
# engine's AllQueueModes bit-identity test), which pin the lock-free
# pool paths (run_phase's claim word and slot table, the spin-then-park
# waits on the pool's wake word), the shutdown drain, the trace ring's merge-at-read protocol, the
# chunked fan-out, the re-entrant shared-pool/serve stack, the chunked
# rebuild pipeline, the fused, pipelined step phases and the per-chunk
# neighbor-row stashes; and the asan preset's kernel/force/force-buffer
# (calloc'd slot block and its page residency)/engine/reduction/rebuild/
# locality/scene/pool/chunked-fan-out/step-pipeline/neighbor-build suites.
# Every preset is configured with -DMWX_WERROR=ON: a new warning fails CI.
# Each ctest case has a time limit (execution.timeout in CMakePresets.json),
# so a lost wake-up fails its case instead of hanging the stage.
set -euo pipefail
cd "$(dirname "$0")"

jobs=${JOBS:-$(nproc)}
repo_root=$(pwd)

echo "== tier-1: configure + build (-Werror) + ctest (default preset) =="
# The default build is warning-free; -Werror keeps it that way.
cmake --preset default -DMWX_WERROR=ON
cmake --build --preset default --parallel "${jobs}"
ctest --preset default -j "${jobs}"

echo "== counters smoke: PMU conservation + run report =="
# The observability gate: run a short Al-1000 workload through both backends,
# assert the conservation law (per-phase/per-core counter domains must tile
# the machine-global aggregates — mwx_run --check exits nonzero otherwise),
# and exercise the mwx-report joiner end to end.  The native provider is
# allowed to be the labelled "fallback" (perf_event_open is commonly denied
# in containers); only an *unlabelled* or missing provider fails.
cmake --build --preset default --parallel "${jobs}" --target mwx_run
counters_dir=$(mktemp -d)
(cd "${counters_dir}" && "${repo_root}/build/tools/mwx_run" Al-1000 200 4 --name ci --check)
python3 "${repo_root}/tools/mwx-report" --dir "${counters_dir}" --name ci
python3 - "${counters_dir}" <<'EOF'
import json, os, sys
d = sys.argv[1]
with open(os.path.join(d, "REPORT_ci.json")) as f:
    report = json.load(f)
assert report["schema_version"] == 2
assert report["conservation_ok"] is True, "conservation re-verification failed"
assert report["conservation"]["checked"], "conservation was not actually checked"
assert len(report["conservation"]["fields"]) >= 15, "too few fields checked"
native = report["providers"]["native"]
if native == "perf_event":
    print("native provider: perf_event (real hardware counters)")
elif native == "fallback":
    print("native provider: fallback (perf_event denied — acceptable, not a failure)")
else:
    raise AssertionError(f"unlabelled native provider: {native}")
md = open(os.path.join(d, "REPORT_ci.md")).read()
assert "Per-phase memory behaviour" in md and "Conservation" in md
assert len(md) > 500, "markdown report suspiciously small"
print("REPORT_ci OK: conservation holds,", len(report["summary"]), "summary metrics")
EOF
rm -rf "${counters_dir}"

echo "== planner smoke: what-if predictions vs measured extremes =="
# The prescriptive half of the observability stack: one instrumented Al-1000
# run, the full machine x discipline x pinning grid ranked, and the ranked
# extremes validated against actual simulated runs.  mwx_run --plan exits
# nonzero itself when a validated extreme misses --plan-tol, so the tolerance
# gate needs no re-parsing here; the python block asserts the PLAN artifact
# schema and that mwx-report picked the plan section up.
planner_dir=$(mktemp -d)
(cd "${planner_dir}" && "${repo_root}/build/tools/mwx_run" Al-1000 120 4 --name plan --plan --plan-tol 15)
python3 "${repo_root}/tools/mwx-report" --dir "${planner_dir}" --name plan
python3 - "${planner_dir}" <<'EOF'
import json, os, sys
d = sys.argv[1]
with open(os.path.join(d, "PLAN_plan.json")) as f:
    plan = json.load(f)
assert plan["kind"] == "plan" and plan["schema_version"] == 2
assert plan["phase_names"]["4"] == "forces", "phase-name table missing from PLAN"
ref = plan["reference"]
assert ref["benchmark"] == "Al-1000" and ref["self_parallelism"] > 1.0
tags = {(p["tag"], p["rebuild_step"]) for p in plan["profile"]}
assert (4, False) in tags, "forces phase class missing"
assert any(t in tags for t in [(8, True), (9, True)]), "rebuild phase classes missing"
for p in plan["profile"]:
    assert p["work_cycles"] >= 0 and p["self_parallelism"] >= 1.0
configs = plan["configs"]
assert len(configs) >= 12, f"only {len(configs)} configs ranked"
assert [c["rank"] for c in configs] == list(range(1, len(configs) + 1))
seconds = [c["predicted_seconds"] for c in configs]
assert seconds == sorted(seconds), "ranking not sorted by predicted wall time"
validated = [c for c in configs if c["validated"]]
assert len(validated) >= 2, "ranked extremes were not validated"
worst = max(abs(c["error_pct"]) for c in validated)
assert worst <= plan["search"]["tolerance_pct"], f"validated error {worst:.1f}% over tolerance"
assert plan["best"] == configs[0]["config"]
md = open(os.path.join(d, "REPORT_plan.md")).read()
assert "What-if plan" in md and configs[0]["config"] in md
with open(os.path.join(d, "REPORT_plan.json")) as f:
    assert f.read().find('"plan"') >= 0
print(f"PLAN OK: {len(configs)} configs, {len(validated)} validated, worst error {worst:.1f}%")
EOF
rm -rf "${planner_dir}"

echo "== serve smoke: multi-tenant scheduler CLI =="
# The simulation-as-a-service acceptance gate at the CLI.  mwx_serve runs >=8
# concurrent jobs from 2 tenants over one shared pool — once uninterrupted
# and once with preempt_slice=7 so every job is preempted and resumes its
# parked engine mid-run — and exits nonzero unless every job's energies are
# bitwise-identical to a dedicated single-engine pool.  Closed-loop traffic
# through both scheduler disciplines is the ServeTrafficTest suite (tier-1).
cmake --build --preset default --parallel "${jobs}" --target mwx_serve_cli
serve_dir=$(mktemp -d)
(cd "${serve_dir}" && "${repo_root}/build/tools/mwx_serve" Al-1000 8 20 4 2)
(cd "${serve_dir}" && "${repo_root}/build/tools/mwx_serve" Al-1000 8 20 4 2 7)
rm -rf "${serve_dir}"

echo "== e2e smoke: the repository benchmark at tiny sizes =="
# bench/e2e/run.sh builds its own CMake project into build/e2e and runs every
# BENCHMARK.json workload in a fresh process; it exits nonzero when a
# correctness gate fails (step-10 energy bits, NVE drift, serve jobs bitwise
# against a dedicated pool).  check_output.py then validates each result
# against BENCHMARK.json: every end-to-end metric (untraced run) or
# per-layer metric (traced run) present, finite and in its declared unit.
bench/e2e/run.sh --smoke
python3 bench/e2e/check_output.py BENCH_e2e.json
bench/e2e/run.sh --smoke --trace
python3 bench/e2e/check_output.py BENCH_e2e_trace.json

echo "== forced-scalar: build + ctest with MWX_AVX2=OFF (scalar preset) =="
# The bit-identity suites must hold in both ISAs: the native kernels and lane
# loops are value-preserving claims about *expressions*, not about AVX2.
cmake --preset scalar -DMWX_WERROR=ON
cmake --build --preset scalar --parallel "${jobs}"
ctest --preset scalar -j "${jobs}"

echo "== tsan: concurrency suites (tsan preset) =="
cmake --preset tsan -DMWX_WERROR=ON
cmake --build --preset tsan --parallel "${jobs}"
ctest --preset tsan -j "${jobs}"

echo "== asan: kernel/force/engine/locality/scene/pool/serve suites (asan preset) =="
# ASan + UBSan (no recovery): the LJ kernel reads CSR rows four entries at a
# time and the Coulomb block reads the packed arrays eight at a time; any
# read past a row, a buffer or a lane mask's intent fails here.  The
# SparseReduce and RebuildParallel suites run the reduction at 300 slots and
# the chunked rebuild passes down to empty and single-atom inputs.  The
# ThreadPool/ForChunks/Reentrancy/PhaseDispatch suites run the pool's
# spin-then-park waits, run_phase's slot records, the chunked fan-out and
# the shared-pool stack under the same checks.  NeighborBuild runs the count
# kernel's stash appends (including growth from empty) and the fill's row
# copies.  The ForceBuffers suites pair the force slots' calloc block with
# its free, and check that ASan's allocator, like glibc's, maps a 48 MB
# block fresh so unwritten slots stay non-resident.  The Serve suites run
# preempted jobs, whose parked engines change owner across driver threads.
cmake --preset asan -DMWX_WERROR=ON
cmake --build --preset asan --parallel "${jobs}" --target mwx_tests
ctest --preset asan -j "${jobs}"

echo "CI OK"
