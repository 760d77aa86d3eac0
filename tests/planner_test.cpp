// perf::Planner — the what-if layer: phase-DAG reconstruction (work, span,
// self-parallelism) from one instrumented run, cross-machine prediction, and
// the PLAN_*.json artifact.  The acceptance gate of the planner PR lives
// here: from a single instrumented Al-1000 run the planner must rank the
// full (machine x discipline x pinning) grid and hit the measured wall time
// of the best- and worst-ranked configs within 15%.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "md/cost_table.hpp"
#include "md/engine.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/native_pmu.hpp"
#include "perf/planner.hpp"
#include "perf/trace_ring.hpp"
#include "sim/machine.hpp"
#include "topo/cpuset.hpp"
#include "topo/machine_spec.hpp"
#include "workloads/workloads.hpp"

namespace mwx::perf {
namespace {

struct InstrumentedRun {
  TraceSnapshot trace;
  PmuReport pmu;
  RunMeta meta;
};

md::Engine make_engine(const PlanConfig& c, int reorder_interval = 0) {
  workloads::BenchmarkSpec spec = workloads::make_al1000();
  md::EngineConfig cfg = spec.engine;
  cfg.n_threads = c.n_threads;
  cfg.assignment = c.assignment;
  cfg.chunks_per_thread = c.chunks_per_thread;
  cfg.reorder_interval = reorder_interval;
  return md::Engine(std::move(spec.system), cfg);
}

// One instrumented simulated run on the reference machine (the mwx_run
// convention: core i7, OS-scheduled, work stealing).
InstrumentedRun instrumented_run(int steps, int threads, int reorder_interval = 0,
                                 std::size_t ring_capacity = std::size_t{1} << 14) {
  PlanConfig ref;
  ref.spec = topo::core_i7_920();
  ref.assignment = sim::Assignment::WorkStealing;
  ref.n_threads = threads;
  ref.chunks_per_thread = 4;
  md::Engine engine = make_engine(ref, reorder_interval);

  TraceRing ring(threads + 1, ring_capacity);
  sim::MachineConfig mc;
  mc.spec = ref.spec;
  mc.n_threads = threads;
  mc.trace = &ring;
  sim::Machine machine(mc);
  engine.run_simulated(machine, steps);

  InstrumentedRun run;
  run.trace = ring.snapshot();
  run.pmu = machine.pmu_report();
  run.meta.benchmark = "Al-1000";
  run.meta.steps = steps;
  run.meta.n_threads = threads;
  run.meta.slots = engine.n_slots();
  run.meta.measured_seconds = machine.now_seconds();
  run.meta.spec = ref.spec;
  run.meta.assignment = ref.assignment;
  return run;
}

double run_config(const PlanConfig& c, int steps) {
  md::Engine engine = make_engine(c);
  sim::MachineConfig mc;
  mc.spec = c.spec;
  mc.n_threads = c.n_threads;
  mc.record_events = false;
  if (c.pinned) {
    for (int i = 0; i < c.n_threads; ++i) {
      mc.pin_masks.push_back(topo::CpuSet::of({c.spec.canonical_pu(i)}));
    }
  }
  sim::Machine machine(mc);
  engine.run_simulated(machine, steps);
  return machine.now_seconds();
}

TEST(PlannerTest, ProfileReconstructsPhaseDag) {
  const int steps = 40;
  InstrumentedRun run = instrumented_run(steps, 2);
  const RunProfile profile = Planner::profile_from(run.trace, run.pmu, run.meta);

  EXPECT_EQ(profile.observed_steps, steps);
  EXPECT_GT(profile.total_work_cycles, 0.0);
  EXPECT_GT(profile.critical_path_cycles, 0.0);
  EXPECT_GT(profile.serial_cycles, 0.0);  // master rebuild residue + GC
  // Work strictly exceeds the critical path: the run had real parallelism.
  EXPECT_GT(profile.self_parallelism(), 1.0);

  // The per-step pipeline phases, split by step class where both occur.
  for (int tag : {md::kPhaseForces, md::kPhaseReduceCorrectPredict}) {
    EXPECT_NE(profile.find(tag, false), nullptr) << "tag " << tag;
  }
  // One run_simulated call: predict-check opens it on the list-building
  // first step, and reduce-correct closes it.
  const PhaseProfile* open = profile.find(md::kPhasePredictCheck, true);
  ASSERT_NE(open, nullptr);
  EXPECT_EQ(open->occurrences, 1);
  EXPECT_EQ(profile.find(md::kPhasePredictCheck, false), nullptr);
  const PhaseProfile* close = profile.find(md::kPhaseReduceCorrect, false);
  if (close == nullptr) close = profile.find(md::kPhaseReduceCorrect, true);
  ASSERT_NE(close, nullptr);
  EXPECT_EQ(close->occurrences, 1);
  // The PR 6 overlap phase and PR 9 parallel-rebuild phases only exist on
  // rebuild steps.
  for (int tag : {md::kPhaseOverlap, md::kPhaseBin, md::kPhaseNbrPrefix}) {
    const PhaseProfile* p = profile.find(tag, true);
    ASSERT_NE(p, nullptr) << "tag " << tag;
    EXPECT_EQ(profile.find(tag, false), nullptr) << "tag " << tag;
    EXPECT_GT(p->occurrences, 0);
    EXPECT_GT(p->work_cycles, 0.0);
    EXPECT_GE(p->self_parallelism(), 1.0);
  }
  // Rebuild phases run exactly one task per worker.
  const PhaseProfile* bin = profile.find(md::kPhaseBin, true);
  EXPECT_NEAR(bin->tasks / double(bin->occurrences), 2.0, 0.2);

  // The forces classes together dominate the run, and their measured
  // self-parallelism is real but bounded by the slot count.
  const PhaseProfile* forces = profile.find(md::kPhaseForces, false);
  const PhaseProfile* forces_rb = profile.find(md::kPhaseForces, true);
  ASSERT_NE(forces, nullptr);
  ASSERT_NE(forces_rb, nullptr);
  EXPECT_GT(forces->work_cycles + forces_rb->work_cycles, 0.5 * profile.total_work_cycles);
  // Every task found its bracket despite the concurrent overlap phase:
  // exactly slots tasks per forces occurrence.
  EXPECT_NEAR(forces->tasks / double(forces->occurrences), double(run.meta.slots), 0.5);
  EXPECT_GT(forces->self_parallelism(), 1.0);
  EXPECT_LE(forces->self_parallelism(), double(run.meta.slots) + 1.0);
}

TEST(PlannerTest, MortonPhaseAppearsWithReorderInterval) {
  InstrumentedRun run = instrumented_run(40, 2, /*reorder_interval=*/1);
  const RunProfile profile = Planner::profile_from(run.trace, run.pmu, run.meta);
  const PhaseProfile* morton = profile.find(md::kPhaseMortonSort, true);
  ASSERT_NE(morton, nullptr);
  EXPECT_GT(morton->occurrences, 0);
  EXPECT_GT(morton->work_cycles, 0.0);
}

TEST(PlannerTest, LappedTraceStillProfilesFromPmuTotals) {
  const int steps = 40;
  // 64 slots per lane: laps many times over 40 steps; totals must come from
  // the (always complete) PMU matrix, shapes from the surviving window.
  InstrumentedRun run = instrumented_run(steps, 2, 0, /*ring_capacity=*/64);
  ASSERT_GT(run.trace.dropped, 0u);
  const RunProfile profile = Planner::profile_from(run.trace, run.pmu, run.meta);
  EXPECT_GT(profile.trace_dropped, 0u);
  EXPECT_LT(profile.observed_steps, steps);
  EXPECT_GT(profile.observed_steps, 0);

  const PhaseProfile* forces = profile.find(md::kPhaseForces, false);
  ASSERT_NE(forces, nullptr);
  // Occurrence counts are scaled from the observed window to the full run:
  // one forces phase per step over both step classes.  Al-1000 rebuilds
  // every other step, so the plain class gets about half, give or take the
  // one step by which the window's rebuild/plain mix can miss an even split.
  const PhaseProfile* forces_rb = profile.find(md::kPhaseForces, true);
  ASSERT_NE(forces_rb, nullptr);
  EXPECT_NEAR(forces->occurrences + forces_rb->occurrences, steps, 1);
  EXPECT_NEAR(forces->occurrences, steps / 2, steps / 8);
  // Work totals come from the PMU (exact); only the split between the
  // rebuild/non-rebuild classes leans on the surviving window's bracket
  // durations, so the class totals track the unlapped profile's within the
  // window's rebuild-cadence wobble — not within float noise, but nowhere
  // near the multiples a naively rescaled trace would produce.
  InstrumentedRun full = instrumented_run(steps, 2);
  const RunProfile full_profile = Planner::profile_from(full.trace, full.pmu, full.meta);
  EXPECT_NEAR(profile.total_work_cycles / full_profile.total_work_cycles, 1.0, 1e-9);
  const PhaseProfile* full_forces = full_profile.find(md::kPhaseForces, false);
  ASSERT_NE(full_forces, nullptr);
  EXPECT_NEAR(forces->work_cycles / full_forces->work_cycles, 1.0, 0.25);
}

TEST(PlannerTest, NativeTraceProfilesFromStepBrackets) {
  workloads::BenchmarkSpec spec = workloads::make_al1000();
  md::EngineConfig cfg = spec.engine;
  cfg.n_threads = 2;
  md::Engine engine(std::move(spec.system), cfg);
  parallel::FixedThreadPool pool({.n_threads = 2});
  PmuAccumulator pmu(3);
  TraceRing ring(3, 1 << 14);
  engine.attach_pmu(&pmu);
  engine.attach_trace(&ring);
  const int steps = 10;
  engine.run_native(pool, steps);
  pool.shutdown();

  RunMeta meta;
  meta.benchmark = "Al-1000";
  meta.steps = 0;  // take the step count from the trace's step brackets
  meta.n_threads = 2;
  meta.slots = engine.n_slots();
  meta.spec = topo::core_i7_920();
  const RunProfile profile = Planner::profile_from(ring.snapshot(), pmu.report(), meta);
  // The native engine brackets every step on the external lane, as the
  // simulated backend does.
  EXPECT_EQ(profile.observed_steps, steps);
  EXPECT_EQ(profile.meta.steps, steps);
  EXPECT_NE(profile.find(md::kPhaseForces, false), nullptr);
  EXPECT_GT(profile.total_work_cycles, 0.0);

  // Either provider (perf_event or the fallback) must yield a usable
  // profile: prediction still runs end to end.
  Planner planner(profile);
  const Prediction p = planner.predict(Planner::default_grid(2).front());
  EXPECT_GT(p.seconds, 0.0);
  EXPECT_GT(p.speedup, 0.0);
}

TEST(PlannerTest, PhaseTagNamesAreSingleSourced) {
  // The md-layer table is the single source of truth...
  EXPECT_STREQ(md::phase_tag_name(md::kPhaseForces), "forces");
  EXPECT_STREQ(md::phase_tag_name(md::kPhaseMortonSort), "morton-sort");
  EXPECT_EQ(md::phase_tag_name(md::kNumPhaseTags), nullptr);
  // Retired tags (the CSR count pass, and the predictor, check, reduce and
  // corrector now fused into 11-13) keep their slots, so no later phase
  // takes their numbers, but have no name, so the emitted map skips them.
  const auto names = md::phase_tag_name_map();
  for (int tag : {1, 2, 3, 5, 6}) {
    EXPECT_EQ(md::phase_tag_name(tag), nullptr) << "tag " << tag;
    EXPECT_EQ(names.count(tag), 0u) << "tag " << tag;
  }
  EXPECT_EQ(names.size(), std::size_t(md::kNumPhaseTags - 5));
  EXPECT_STREQ(md::phase_tag_name(md::kPhaseReduceCorrectPredict), "reduce-correct-predict");
  EXPECT_EQ(names.at(md::kPhaseBin), "bin");

  // ...and it rides inside the emitted artifacts.
  PmuReport report;
  report.provider = "sim";
  report.lane_kind = "core";
  report.n_lanes = 1;
  report.at(md::kPhaseForces, 0)[Counter::kBusyCycles] = 1.0;
  report.phase_names = names;
  std::ostringstream os;
  report.write_json(os, "t", "sha");
  EXPECT_NE(os.str().find("\"phase_names\""), std::string::npos);
  EXPECT_NE(os.str().find("\"4\": \"forces\""), std::string::npos);
}

TEST(PlannerTest, DefaultGridCoversTableTwoCrossDisciplinesCrossPinning) {
  const auto grid = Planner::default_grid(4);
  EXPECT_GE(grid.size(), 12u);
  int pinned = 0, machines = 0, disciplines = 0;
  std::string last_machine;
  for (const auto& c : grid) {
    if (c.pinned) ++pinned;
    if (c.spec.name != last_machine) {
      ++machines;
      last_machine = c.spec.name;
    }
    EXPECT_EQ(c.n_threads, 4);
  }
  (void)disciplines;
  EXPECT_EQ(pinned, int(grid.size()) / 2);
  EXPECT_EQ(machines, 3);
  // Labels are unique keys.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    for (std::size_t j = i + 1; j < grid.size(); ++j) {
      EXPECT_NE(grid[i].label(), grid[j].label());
    }
  }
}

// The planner's acceptance gate, as mwx_run --plan applies it: >= 12 ranked
// configs from ONE instrumented run; predicted wall time of the best- and
// worst-ranked configs within kPlanTolerancePct (15%) of the actual
// simulated wall time; and the PLAN artifact that records them.
TEST(PlannerTest, AcceptanceBestAndWorstPredictionsWithin15Pct) {
  const int steps = 60;
  const int threads = 4;
  InstrumentedRun run = instrumented_run(steps, threads);
  Planner planner(Planner::profile_from(run.trace, run.pmu, run.meta));
  auto ranked = planner.rank(Planner::default_grid(threads));
  ASSERT_GE(ranked.size(), 12u);

  // Self-consistency: the reference config's prediction vs its own run.
  for (const auto& pr : ranked) {
    if (pr.config.spec.name == run.meta.spec.name &&
        pr.config.assignment == run.meta.assignment && !pr.config.pinned) {
      const double err =
          100.0 * (pr.seconds - run.meta.measured_seconds) / run.meta.measured_seconds;
      EXPECT_LT(std::fabs(err), kPlanTolerancePct) << "self-prediction error " << err << "%";
    }
  }

  for (Prediction* pr : {&ranked.front(), &ranked.back()}) {
    pr->measured_seconds = run_config(pr->config, steps);
    pr->validated = true;
    EXPECT_LT(std::fabs(pr->error_pct()), kPlanTolerancePct)
        << pr->config.label() << " predicted " << pr->seconds << "s measured "
        << pr->measured_seconds << "s (" << pr->error_pct() << "%)";
  }

  // Ranking is sorted, speedups are sane, and the plan artifact carries the
  // schema-versioned structure mwx-report reads.
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].seconds, ranked[i].seconds);
  }
  for (const auto& pr : ranked) {
    EXPECT_GT(pr.speedup, 0.5);
    EXPECT_LT(pr.speedup, double(2 * pr.config.n_threads));
  }
  std::ostringstream os;
  write_plan_json(os, "t", "sha", planner.profile(), ranked, md::phase_tag_name_map());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"kind\": \"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"4\": \"forces\""), std::string::npos);
  EXPECT_NE(json.find("\"benchmark\": \"Al-1000\""), std::string::npos);
  EXPECT_NE(json.find("\"self_parallelism\""), std::string::npos);
  EXPECT_NE(json.find("\"rank\": " + std::to_string(ranked.size()) + ","), std::string::npos);
  EXPECT_NE(json.find("\"validated\": 2, \"tolerance_pct\": 15}"), std::string::npos);
  EXPECT_NE(json.find("\"best\": \"" + ranked.front().config.label() + "\""),
            std::string::npos);
}

}  // namespace
}  // namespace mwx::perf
