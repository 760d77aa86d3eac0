#!/usr/bin/env bash
# CI gate, seven stages: the tier-1 verify (full build with -Werror + test
# suite, including the 100k-atom RebuildScale determinism cases, the §V-A
# LocalityClaims cases on the three Table II machines, the planner's
# validated-extremes gate and the closed-loop ServeTrafficTest cases); smoke
# runs of the counters/report emitters, of the mwx_serve CLI and of the
# repository benchmark (bench/e2e); the forced-scalar preset's full suite;
# the tsan preset's concurrency suites
# (ThreadPool/TraceRing/ForChunks/Reentrancy/Serve/SceneCache/
# RebuildParallel/StepPipeline/NeighborBuild/PhaseDispatch/EnginePmu/
# EngineLanes, and the engine's AllQueueModes bit-identity test), which pin
# the probe lanes the caller and the workers write concurrently, the lock-free
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
# The observability gate: run a short Al-1000 workload through both backends
# and join its artifacts.  mwx_run exits nonzero when the per-phase/per-core
# counter domains fail to tile the machine-global totals (the conservation
# law, sim::Machine::conservation_violations).  mwx-report re-verifies the
# law from the PMU artifact's own conservation table and exits nonzero on a
# schema_version mismatch or an unlabelled provider; the native provider may
# be the labelled "fallback" (perf_event_open is commonly denied in
# containers).  --plan adds the report's what-if section without validation
# runs; the validated-extremes gate is a tier-1 test
# (PlannerTest.AcceptanceBestAndWorstPredictionsWithin15Pct).
cmake --build --preset default --parallel "${jobs}" --target mwx_run
counters_dir=$(mktemp -d)
(cd "${counters_dir}" && "${repo_root}/build/tools/mwx_run" Al-1000 200 4 --name ci --plan --plan-validate none)
python3 "${repo_root}/tools/mwx-report" --dir "${counters_dir}" --name ci
rm -rf "${counters_dir}"

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
