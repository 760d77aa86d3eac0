// perf::Planner — Kremlin-style what-if analysis over one instrumented run.
//
// The observability stack so far is descriptive: TraceRing says what each
// worker did and when, the PMU matrix says which phase missed in which cache
// on which core.  The planner makes it prescriptive.  From ONE instrumented
// run (a TraceSnapshot plus the matching PmuReport, either backend) it
// reconstructs the phase DAG the engine actually executed — per phase-class:
// total work, critical-path span (the longest owner chain inside a phase
// bracket), and self-parallelism work/span — and then *predicts* the wall
// time of that workload on every candidate (machine x queue discipline x
// pinning policy) without running it.
//
// A naive work/span projection T(N) = W/N + span is not enough for this
// workload (Acar et al., "Parallel Work Inflation, Memory Effects..."):
// parallel work inflates with memory behaviour.  The planner therefore
// decomposes each phase's measured busy cycles into compute + memory stall
// using the simulator's own pricing rules (sim/cost_model.hpp), remaps the
// measured miss counts onto the target machine's capacities through a
// log-capacity miss curve, re-prices the stalls with the target's latencies,
// and bounds the phase by the target's memory-controller bandwidth — the
// resource that actually pins Al-1000 (Section V).  Prediction per phase is
//
//   T = occurrences * (overheads + max(work_t/N_eff + acquisition,
//                                      span_t, serial_floor, dram_floor))
//
// with discipline-specific acquisition/serialization costs and a pinned-vs-
// OS-scheduled policy split (migration rate measured from the reference run;
// pinned threads instead wait out noise bursts).
//
// The module deliberately links only mwx_perf + mwx_topo: the simulator's
// parameter structs are header-only, so the planner can price machines it
// never instantiates.  Validation (actually running the predicted configs)
// lives in one caller: tools/mwx_run --plan --plan-validate.
#pragma once

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "perf/pmu.hpp"
#include "perf/trace_ring.hpp"
#include "sim/cost_model.hpp"
#include "sim/params.hpp"
#include "topo/machine_spec.hpp"

namespace mwx::perf {

// One candidate configuration: where to run and how to schedule.
struct PlanConfig {
  topo::MachineSpec spec;
  sim::Assignment assignment = sim::Assignment::Static;
  bool pinned = false;       // one thread per core vs OS-scheduled
  int n_threads = 1;
  int chunks_per_thread = 1;  // 1 static split; >1 enables dynamic balancing

  // "xeon_x7560_4s/steal/pinned/4t" — stable key used in PLAN json.
  [[nodiscard]] std::string label() const;
};

// Profile of one phase class: one engine phase tag, split by whether the
// occurrence sat on a neighbor-rebuild step (rebuild steps run a different
// schedule — overlap, bin, prefix — and a different force-phase shape).
struct PhaseProfile {
  int tag = 0;
  bool rebuild_step = false;
  long long occurrences = 0;
  double tasks = 0.0;             // total tasks over all occurrences
  double work_cycles = 0.0;       // total busy cycles (PMU, exact)
  double span_cycles = 0.0;       // sum over occurrences of the critical chain
  double max_task_cycles = 0.0;   // longest single task seen (span floor)

  // Memory behaviour, phase-tag totals apportioned to the class by work
  // share (counter domains are per tag, not per occurrence).
  double accesses = 0.0;
  double l1_misses = 0.0;
  double l2_misses = 0.0;
  double l3_misses = 0.0;
  double dram_fetches = 0.0;
  double dram_remote_fetches = 0.0;
  double dram_writebacks = 0.0;
  double dram_queue_cycles = 0.0;
  double queue_wait_cycles = 0.0;
  double steal_overhead_cycles = 0.0;
  double noise_stall_cycles = 0.0;

  // Filled by the profile builder from the stall decomposition.
  double compute_cycles = 0.0;    // work minus re-priced memory stall
  double stall_cycles = 0.0;      // memory stall at the reference machine

  [[nodiscard]] double self_parallelism() const {
    return span_cycles > 0.0 ? work_cycles / span_cycles : 1.0;
  }
};

// Everything profile_from() needs to know about the instrumented run that
// the trace/report cannot carry themselves.
struct RunMeta {
  std::string benchmark;
  int steps = 0;                   // 0 = infer from the trace
  int n_threads = 1;
  int slots = 1;                   // accumulation slots (Engine::n_slots())
  double measured_seconds = 0.0;   // simulated (or wall) seconds of the run
  topo::MachineSpec spec;          // machine the run executed on
  sim::CostParams cost;
  sim::SchedulerParams sched;
  sim::Assignment assignment = sim::Assignment::Static;
};

// The reconstructed DAG profile of one run.
struct RunProfile {
  RunMeta meta;
  std::vector<PhaseProfile> phases;  // ordered by (tag, rebuild_step)
  double serial_cycles = 0.0;        // master-only residue outside phases
  double total_work_cycles = 0.0;
  double critical_path_cycles = 0.0;  // serial + sum of phase spans
  long long observed_steps = 0;       // steps visible in the trace window
  std::uint64_t trace_dropped = 0;    // lapped ring records (profile scaled up)

  [[nodiscard]] double self_parallelism() const {
    return critical_path_cycles > 0.0 ? total_work_cycles / critical_path_cycles : 1.0;
  }
  [[nodiscard]] const PhaseProfile* find(int tag, bool rebuild_step) const;
};

// Predicted cost of one phase class under one config, with the binding
// constraint named so reports can say *why* a config loses.
struct PhasePrediction {
  int tag = 0;
  bool rebuild_step = false;
  double seconds = 0.0;
  const char* bound = "work";  // "work" | "span" | "dram" | "serial-queue" | "dispatch"
};

struct Prediction {
  PlanConfig config;
  double seconds = 0.0;            // predicted wall for the whole run
  double serial_seconds = 0.0;     // serial residue share of it
  double speedup = 0.0;            // vs predicted 1-thread run on same machine
  std::vector<PhasePrediction> phases;

  // Filled by callers that validate against an actual simulated run.
  bool validated = false;
  double measured_seconds = 0.0;
  [[nodiscard]] double error_pct() const {
    return validated && measured_seconds > 0.0
               ? 100.0 * (seconds - measured_seconds) / measured_seconds
               : 0.0;
  }
};

class Planner {
 public:
  // Reconstructs the phase DAG from one instrumented run.  Works with either
  // backend's artifacts: the sim provider gives exact busy cycles and the
  // full modelled memory counters; perf_event gives cycles + LLC misses;
  // the fallback provider gives thread CPU time only (the planner then runs
  // a pure work/span model with no memory correction).  A trace that
  // wrapped (dropped > 0) still profiles: per-occurrence shapes come from
  // the surviving window and totals from the (always complete) PMU matrix.
  [[nodiscard]] static RunProfile profile_from(const TraceSnapshot& trace,
                                               const PmuReport& pmu, const RunMeta& meta);

  explicit Planner(RunProfile profile);

  [[nodiscard]] const RunProfile& profile() const { return profile_; }

  // Predicts the run's wall time under `config` without executing it.
  [[nodiscard]] Prediction predict(const PlanConfig& config) const;

  // Predicts every candidate and returns them sorted fastest-first.
  [[nodiscard]] std::vector<Prediction> rank(const std::vector<PlanConfig>& configs) const;

  // The default search grid: every Table II machine x {static, queue, steal}
  // x {pinned, OS-scheduled} at `n_threads` workers (18 configs).
  [[nodiscard]] static std::vector<PlanConfig> default_grid(int n_threads);

 private:
  [[nodiscard]] double predict_cycles(const PlanConfig& config,
                                      std::vector<PhasePrediction>* out) const;

  RunProfile profile_;
  double migrations_per_phase_thread_ = 0.0;  // measured OS migration rate
};

// PLAN_<name>.json: schema-versioned what-if report — run profile summary,
// ranked configurations with predicted (and, where validated, measured) wall
// times, and the phase-name table.  `tolerance_pct` is the gate the CI
// planner-smoke stage asserts on validated extremes.
void write_plan_json(std::ostream& out, const std::string& name, const std::string& git_sha,
                     const RunProfile& profile, const std::vector<Prediction>& ranked,
                     double tolerance_pct, const std::map<int, std::string>& phase_names);

}  // namespace mwx::perf
