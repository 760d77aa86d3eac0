#!/usr/bin/env bash
# CI gate, ten stages: the tier-1 verify (full build with -Werror + test
# suite); smoke runs of the locality, counters/report, planner, serve and
# 100k-atom rebuild emitters and of the repository benchmark (bench/e2e);
# the forced-scalar preset's full suite; the tsan preset's concurrency suites
# (StealDeque/ThreadPool/TaskQueue/QueueModes/Latch/Barrier/TraceRing/
# JobHandle/ForChunks/Reentrancy/Serve/SceneCache/RebuildParallel/
# StepPipeline/NeighborBuild/PhaseDispatch), which pin the lock-free
# executor paths (run_phase's claim word among them), the
# idempotent-shutdown fix, the trace ring's merge-at-read protocol, the
# chunked fan-out, the re-entrant shared-pool/serve stack, the chunked
# rebuild pipeline, the fused, pipelined step phases and the per-chunk
# neighbor-row stashes; and the asan preset's kernel/force/engine/reduction/
# rebuild/locality/scene/executor/chunked-fan-out/step-pipeline/
# neighbor-build suites.
set -euo pipefail
cd "$(dirname "$0")"

jobs=${JOBS:-$(nproc)}

echo "== tier-1: configure + build (-Werror) + ctest (default preset) =="
# The default build is warning-free; -Werror keeps it that way.
cmake --preset default -DMWX_WERROR=ON
cmake --build --preset default --parallel "${jobs}"
ctest --preset default -j "${jobs}"

echo "== bench smoke: locality emitter (tiny sizes) =="
# Keeps the BENCH_*.json perf emitters from rotting: run the locality bench
# for two simulated steps and validate the JSON it writes has the expected
# metric groups.
cmake --build --preset default --parallel "${jobs}" --target locality
repo_root=$(pwd)
smoke_dir=$(mktemp -d)
(cd "${smoke_dir}" && "${repo_root}/build/bench/locality" 2 >/dev/null)
python3 - "${smoke_dir}/BENCH_locality.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "locality", doc.get("bench")
# Artifact identity header (schema v2): every BENCH_*.json emitter carries it.
assert doc.get("schema_version") == 2, f"schema_version: {doc.get('schema_version')}"
assert doc.get("git_sha"), "git_sha missing or empty"
assert doc.get("provider") == "sim", f"provider: {doc.get('provider')}"
sim_groups = [k for k in doc if k.startswith("sim.")]
assert len(sim_groups) >= 3, f"expected >=3 sim.* machine groups, got {sim_groups}"
for g in sim_groups:
    keys = doc[g]
    for layout in ("java_objects", "reordered_objects", "packed_soa"):
        for state in ("reorder_off", "reorder_on"):
            for metric in ("l2_miss_pct", "l3_miss_pct", "ms_per_step"):
                k = f"{layout}.{state}.{metric}"
                assert k in keys, f"{g} missing {k}"
print("BENCH_locality.json OK:", len(sim_groups), "machine groups")
EOF
rm -rf "${smoke_dir}"

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

echo "== serve smoke: multi-tenant scheduler + traffic emitter =="
# The simulation-as-a-service acceptance gate.  mwx_serve runs >=8 concurrent
# jobs from 2 tenants over one shared pool — once uninterrupted and once with
# preempt_slice=7 so every job is checkpointed and resumed mid-run — and
# exits nonzero unless every job's energies are bitwise-identical to a
# dedicated single-engine pool.  serve_traffic then drives a closed-loop
# mixed batch (2 tenants x 4 clients x 2 jobs) through BOTH scheduler phases
# (fair-share vs preempt+deadline) and its BENCH_serve.json is
# schema-validated: per-phase per-tenant p50/p95/p99, preemption counters,
# deadline hit rate, sample-ring drops, cache stats, and the
# energy_bits_match verification flag covering preempted jobs.
cmake --build --preset default --parallel "${jobs}" --target mwx_serve_cli serve_traffic
serve_dir=$(mktemp -d)
(cd "${serve_dir}" && "${repo_root}/build/tools/mwx_serve" Al-1000 8 20 4 2)
(cd "${serve_dir}" && "${repo_root}/build/tools/mwx_serve" Al-1000 8 20 4 2 7)
(cd "${serve_dir}" && "${repo_root}/build/bench/serve_traffic" 2 4 2 4 >/dev/null)
python3 - "${serve_dir}/BENCH_serve.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "serve", doc.get("bench")
assert doc.get("schema_version") == 2, f"schema_version: {doc.get('schema_version')}"
assert doc.get("git_sha"), "git_sha missing or empty"
assert doc.get("provider") == "native", f"provider: {doc.get('provider')}"
for phase in ("fairshare", "preempt"):
    tenants = [k for k in doc if k.startswith(phase + ".tenant.")]
    assert len(tenants) >= 2, f"expected >=2 {phase} tenant groups, got {tenants}"
    for g in tenants:
        keys = doc[g]
        for metric in ("jobs", "weight", "p50_ms", "p95_ms", "p99_ms", "mean_ms",
                       "jobs_per_sec"):
            assert metric in keys, f"{g} missing {metric}"
        assert float(keys["p50_ms"]) <= float(keys["p95_ms"]) <= float(keys["p99_ms"]), \
            f"{g} percentiles not monotone"
assert float(doc["fairshare.sched"]["preemptions"]) == 0.0, \
    "fair-share phase must not preempt"
assert float(doc["preempt.sched"]["preemptions"]) > 0.0, \
    "preempt phase never preempted a bulk job"
th = doc["throughput"]
assert float(th["jobs_total"]) == 32.0, f"jobs_total: {th['jobs_total']}"
assert float(th["jobs_per_sec"]) > 0.0
assert float(th["failed_jobs"]) == 0.0, f"failed jobs: {th['failed_jobs']}"
dl = doc["deadline"]
assert float(dl["jobs"]) > 0.0, "preempt phase submitted no deadline jobs"
assert 0.0 <= float(dl["hit_rate"]) <= 1.0
assert float(doc["samples"]["dropped_total"]) > 0.0, \
    "bulk jobs should overflow the bounded sample ring"
comp = doc["compare"]
assert "small_p99_fairshare_ms" in comp and "small_p99_preempt_ms" in comp
cache = doc["cache"]
assert float(cache["hits"]) + float(cache["misses"]) > 0.0
assert float(doc["verify"]["energy_bits_match"]) == 1.0, \
    "shared-pool energies diverged from the dedicated-pool reference"
assert float(doc["verify"]["preempted_jobs_checked"]) > 0.0, \
    "no preempted-and-resumed job was verified"
print("BENCH_serve.json OK: both phases, preempted jobs bit-checked,"
      " deadline hit rate", doc["deadline"]["hit_rate"])
EOF
rm -rf "${serve_dir}"

echo "== scale smoke: 100k-atom chunked-rebuild determinism gate =="
# The workload-axis gate: a 100k-atom bulk crystal through every chunked
# rebuild pass (bin / prefix scan / Morton radix / scene serializer) at
# 1/2/4/T chunks.  scaling_atoms exits nonzero on ANY byte/bit divergence
# from the one-chunk run, so the schema check below only runs on verified
# output.
cmake --build --preset default --parallel "${jobs}" --target scaling_atoms
scale_dir=$(mktemp -d)
(cd "${scale_dir}" && "${repo_root}/build/bench/scaling_atoms" 100000 4 0 >/dev/null)
python3 - "${scale_dir}/BENCH_scaling.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "scaling", doc.get("bench")
assert doc.get("schema_version") == 2, f"schema_version: {doc.get('schema_version')}"
assert doc.get("git_sha"), "git_sha missing or empty"
assert doc.get("provider") == "native", f"provider: {doc.get('provider')}"
for n in (10000, 100000):
    rg = doc[f"rebuild.n{n}"]
    for phase in ("bin", "prefix", "sort", "scene"):
        for mode in ("one_chunk", "t_chunks"):
            k = f"{phase}_{mode}_ms"
            assert float(rg[k]) >= 0.0, f"rebuild.n{n} missing {k}"
    assert float(rg["scene_bytes"]) > 0.0
verify = doc["verify"]
assert verify, "verify group missing"
for key, flag in verify.items():
    assert float(flag) == 1.0, f"determinism flag {key} = {flag}"
assert "droplet_phases_identical" in verify, "droplet stress case missing"
print("BENCH_scaling.json OK:", len(verify), "determinism flags all 1")
EOF
rm -rf "${scale_dir}"

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
cmake --preset scalar
cmake --build --preset scalar --parallel "${jobs}"
ctest --preset scalar -j "${jobs}"

echo "== tsan: concurrency suites (tsan preset) =="
cmake --preset tsan
cmake --build --preset tsan --parallel "${jobs}"
ctest --preset tsan -j "${jobs}"

echo "== asan: kernel/force/engine/locality/scene/executor suites (asan preset) =="
# ASan + UBSan (no recovery): the LJ kernel reads CSR rows four entries at a
# time and the Coulomb block reads the packed arrays eight at a time; any
# read past a row, a buffer or a lane mask's intent fails here.  The
# SparseReduce and RebuildParallel suites run the reduction at 300 slots and
# the chunked rebuild passes down to empty and single-atom inputs.  The
# ThreadPool/JobHandle/TaskQueue/ForChunks/Reentrancy/PhaseDispatch suites
# run the executor's spin-then-park waits, run_phase, the chunked fan-out
# and the shared-pool stack under the same checks.  NeighborBuild runs the count kernel's stash
# appends (including growth from empty) and the fill's row copies.
cmake --preset asan
cmake --build --preset asan --parallel "${jobs}" --target mwx_tests
ctest --preset asan -j "${jobs}"

echo "CI OK"
