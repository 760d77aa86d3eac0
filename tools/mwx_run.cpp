// mwx_run — one-shot artifact producer for the run-report pipeline.
//
// Runs one Table I benchmark through BOTH backends and writes, into the
// current directory:
//
//   PMU_<name>_sim.json      per-core/per-phase counters (provider "sim"),
//                            with the machine-global aggregate attached so
//                            consumers can re-verify conservation;
//   PMU_<name>_native.json   per-worker/per-phase counters from
//                            perf_event_open, or the labelled "fallback"
//                            (thread CPU time + soft faults) when denied;
//   TRACE_<name>_sim.json    chrome://tracing view in simulated seconds;
//   TRACE_<name>_native.json chrome://tracing view in wall seconds;
//   BENCH_<name>_run.json    run summary, load imbalance from the
//                            ground-truth event log, and allocation totals.
//
// With --plan it also writes PLAN_<name>.json: the what-if planner's ranking
// of every Table II machine x discipline x pinning config, profiled from the
// simulated run; --plan-validate all re-runs every config in the simulator
// (the planner validation table of EXPERIMENTS.md).
//
// tools/mwx-report joins these files into the VTune-style Markdown/JSON run
// report.  Every run checks the sim conservation law — the per-(phase, core)
// counter domains summed over both axes must reproduce the machine-global
// counters (sim::Machine::conservation_violations) — and exits nonzero on
// any violation.
//
// The simulated run is executed from cold (no warmup/reset split): the event
// log spans the machine's whole lifetime, so busy/task attribution and the
// counter window must cover the same steps.

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "md/cost_table.hpp"
#include "md/engine.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/native_pmu.hpp"
#include "perf/planner.hpp"
#include "perf/pmu.hpp"
#include "perf/trace_ring.hpp"
#include "sim/machine.hpp"
#include "topo/cpuset.hpp"
#include "topo/machine_spec.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace mwx;

enum class PlanValidate { kNone, kExtremes, kAll };

struct Options {
  std::string benchmark = "Al-1000";
  int steps = 200;
  int threads = 4;
  std::string name;  // artifact stem; defaults to "<benchmark>_<threads>t"
  sim::Assignment assignment = sim::Assignment::WorkStealing;
  bool plan = false;
  PlanValidate plan_validate = PlanValidate::kExtremes;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <benchmark> <steps> <threads> [--name STEM]"
               " [--assignment static|queue|steal]\n"
               "       [--plan] [--plan-validate none|extremes|all]\n"
               "  benchmark: nanocar | salt | Al-1000\n"
               "  --plan: what-if planner — profile the instrumented sim run and rank\n"
               "          every Table II machine x discipline x pinning config; writes\n"
               "          PLAN_<name>.json.  --plan-validate re-runs the chosen subset\n"
               "          of configs in the simulator and exits nonzero when the best\n"
               "          or worst validated prediction misses by more than "
            << perf::kPlanTolerancePct << "%.\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  if (argc < 4) usage(argv[0]);
  Options opt;
  opt.benchmark = argv[1];
  opt.steps = std::atoi(argv[2]);
  opt.threads = std::atoi(argv[3]);
  if (opt.steps <= 0 || opt.threads <= 0) usage(argv[0]);
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--name" && i + 1 < argc) {
      opt.name = argv[++i];
    } else if (arg == "--assignment" && i + 1 < argc) {
      const std::string a = argv[++i];
      if (a == "static") {
        opt.assignment = sim::Assignment::Static;
      } else if (a == "queue") {
        opt.assignment = sim::Assignment::SharedQueue;
      } else if (a == "steal") {
        opt.assignment = sim::Assignment::WorkStealing;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--plan") {
      opt.plan = true;
    } else if (arg == "--plan-validate" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "none") {
        opt.plan_validate = PlanValidate::kNone;
      } else if (v == "extremes") {
        opt.plan_validate = PlanValidate::kExtremes;
      } else if (v == "all") {
        opt.plan_validate = PlanValidate::kAll;
      } else {
        usage(argv[0]);
      }
    } else {
      usage(argv[0]);
    }
  }
  if (opt.name.empty()) {
    opt.name = opt.benchmark + "_" + std::to_string(opt.threads) + "t";
  }
  return opt;
}

md::Engine make_engine(const Options& opt) {
  workloads::BenchmarkSpec spec = workloads::make_benchmark(opt.benchmark);
  md::EngineConfig cfg = spec.engine;
  cfg.n_threads = opt.threads;
  cfg.assignment = opt.assignment;
  // Dynamic disciplines need more chunks than threads for queueing/stealing
  // to have anything to move.
  cfg.chunks_per_thread = opt.assignment == sim::Assignment::Static ? 1 : 4;
  return md::Engine(std::move(spec.system), cfg);
}

void write_text_file(const std::string& path, const std::string& what,
                     const std::function<void(std::ostream&)>& body) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    std::exit(1);
  }
  body(out);
  std::cout << "wrote " << path << " (" << what << ")\n";
}

// --- What-if planner ---------------------------------------------------------

// Pinning for a candidate config: the placement the planner's capacity and
// remote-fraction models assume.
std::vector<topo::CpuSet> canonical_pin_masks(const topo::MachineSpec& spec, int n_threads) {
  std::vector<topo::CpuSet> masks;
  for (int i = 0; i < n_threads; ++i) masks.push_back(topo::CpuSet::of({spec.canonical_pu(i)}));
  return masks;
}

// Validates one prediction by actually running the config in the simulator
// (cold engine, same physics — the backends are bit-identical, so only the
// timing differs).
double run_config_simulated(const Options& opt, const perf::PlanConfig& c) {
  workloads::BenchmarkSpec spec = workloads::make_benchmark(opt.benchmark);
  md::EngineConfig cfg = spec.engine;
  cfg.n_threads = c.n_threads;
  cfg.assignment = c.assignment;
  cfg.chunks_per_thread = c.chunks_per_thread;
  md::Engine engine(std::move(spec.system), cfg);
  sim::MachineConfig mc;
  mc.spec = c.spec;
  mc.n_threads = c.n_threads;
  mc.record_events = false;
  if (c.pinned) mc.pin_masks = canonical_pin_masks(c.spec, c.n_threads);
  sim::Machine machine(mc);
  engine.run_simulated(machine, opt.steps);
  return machine.now_seconds();
}

// Profiles the already-executed instrumented run, ranks the default search
// grid, validates the requested subset against fresh simulated runs, writes
// PLAN_<name>.json, and gates on predicted-vs-measured divergence.  Returns
// the number of tolerance failures.
int run_planner(const Options& opt, const sim::Machine& machine, const md::Engine& sim_engine,
                const perf::TraceRing& sim_trace, const perf::PmuReport& sim_report) {
  perf::RunMeta meta;
  meta.benchmark = opt.benchmark;
  meta.steps = opt.steps;
  meta.n_threads = opt.threads;
  meta.slots = sim_engine.n_slots();
  meta.measured_seconds = machine.now_seconds();
  meta.spec = topo::core_i7_920();
  meta.assignment = opt.assignment;

  perf::Planner planner(
      perf::Planner::profile_from(sim_trace.snapshot(), sim_report, meta));
  std::vector<perf::Prediction> ranked = planner.rank(perf::Planner::default_grid(opt.threads));

  // The instrumented run IS one of the grid points (reference machine,
  // OS-scheduled, opt.assignment): its measurement is free.
  for (auto& pr : ranked) {
    if (pr.config.spec.name == meta.spec.name && pr.config.assignment == opt.assignment &&
        !pr.config.pinned && pr.config.n_threads == opt.threads) {
      pr.validated = true;
      pr.measured_seconds = meta.measured_seconds;
    }
  }
  if (!ranked.empty()) {
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      const bool extreme = i == 0 || i + 1 == ranked.size();
      const bool want = opt.plan_validate == PlanValidate::kAll ||
                        (opt.plan_validate == PlanValidate::kExtremes && extreme);
      if (want && !ranked[i].validated) {
        ranked[i].measured_seconds = run_config_simulated(opt, ranked[i].config);
        ranked[i].validated = true;
      }
    }
  }

  write_text_file("PLAN_" + opt.name + ".json", "what-if plan",
                  [&](std::ostream& out) {
                    perf::write_plan_json(out, opt.name, perf::build_git_sha(),
                                          planner.profile(), ranked, md::phase_tag_name_map());
                  });

  const auto& profile = planner.profile();
  std::cout << "plan: " << profile.phases.size() << " phase classes, self-parallelism "
            << profile.self_parallelism() << ", " << ranked.size() << " configs ranked\n";
  int failures = 0;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const auto& pr = ranked[i];
    std::cout << "plan[" << i + 1 << "] " << pr.config.label() << " predicted " << pr.seconds
              << "s speedup " << pr.speedup;
    if (pr.validated) {
      std::cout << " measured " << pr.measured_seconds << "s error " << pr.error_pct() << "%";
      const bool extreme = i == 0 || i + 1 == ranked.size();
      if (extreme && std::fabs(pr.error_pct()) > perf::kPlanTolerancePct) {
        std::cout << "  TOLERANCE EXCEEDED (" << perf::kPlanTolerancePct << "%)";
        ++failures;
      }
    }
    std::cout << "\n";
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  // --- Simulated backend ------------------------------------------------------
  md::Engine sim_engine = make_engine(opt);
  sim::MachineConfig mc;
  mc.spec = topo::core_i7_920();
  mc.n_threads = opt.threads;
  mc.record_events = true;
  perf::TraceRing sim_trace(opt.threads + 1);
  mc.trace = &sim_trace;
  sim::Machine machine(mc);
  sim_engine.run_simulated(machine, opt.steps);

  // The engine's tag->name table rides inside every artifact (satellite of
  // the planner work): consumers join on it instead of hard-coding the
  // phase vocabulary.
  const std::map<int, std::string> phase_names = md::phase_tag_name_map();
  perf::PmuReport sim_report = machine.pmu_report();
  sim_report.phase_names = phase_names;
  const perf::CounterSet machine_total = sim::to_counter_set(machine.counters());
  write_text_file("PMU_" + opt.name + "_sim.json", "sim counter domains",
                  [&](std::ostream& out) {
                    sim_report.write_json(out, opt.name, perf::build_git_sha(),
                                          &machine_total);
                  });
  write_text_file("TRACE_" + opt.name + "_sim.json", "simulated-time trace",
                  [&](std::ostream& out) {
                    perf::write_chrome_trace(sim_trace.snapshot(), out, phase_names);
                  });

  // --- Native backend ---------------------------------------------------------
  md::Engine native_engine = make_engine(opt);
  perf::PmuAccumulator pmu(opt.threads + 1);  // a lane per worker plus the caller's
  perf::TraceRing native_trace(opt.threads + 1);
  native_engine.attach_pmu(&pmu);
  native_engine.attach_trace(&native_trace);
  {
    parallel::ThreadPoolConfig pc;
    pc.n_threads = opt.threads;
    pc.queue_mode = opt.assignment == sim::Assignment::SharedQueue
                        ? parallel::QueueMode::Single
                        : (opt.assignment == sim::Assignment::WorkStealing
                               ? parallel::QueueMode::WorkStealing
                               : parallel::QueueMode::PerThread);
    parallel::FixedThreadPool pool(pc);
    native_engine.run_native(pool, opt.steps);
    pool.shutdown();
  }
  perf::PmuReport native_report = pmu.report();
  native_report.phase_names = phase_names;
  write_text_file("PMU_" + opt.name + "_native.json",
                  "native counters, provider " + native_report.provider,
                  [&](std::ostream& out) {
                    native_report.write_json(out, opt.name, perf::build_git_sha());
                  });
  write_text_file("TRACE_" + opt.name + "_native.json", "wall-time trace",
                  [&](std::ostream& out) {
                    perf::write_chrome_trace(native_trace.snapshot(), out, phase_names);
                  });

  // --- Run summary ------------------------------------------------------------
  // Backends ran the same physics; assert it before reporting anything.
  if (sim_engine.total_energy() != native_engine.total_energy()) {
    std::cerr << "BACKEND DIVERGENCE: sim total energy " << sim_engine.total_energy()
              << " != native " << native_engine.total_energy() << "\n";
    return 1;
  }

  bench::JsonEmitter json(opt.name + "_run");
  json.set_provider("sim+" + native_report.provider);
  json.note("run", "benchmark", opt.benchmark);
  json.metric("run", "steps", opt.steps);
  json.metric("run", "threads", opt.threads);
  json.metric("run", "sim_seconds", machine.now_seconds());
  json.metric("run", "sim_seconds_per_step", machine.now_seconds() / opt.steps);
  json.metric("run", "rebuilds", double(sim_engine.rebuild_count()));
  json.metric("run", "total_energy", sim_engine.total_energy());

  // Load imbalance from the ground-truth event log (exact busy intervals).
  const auto busy = machine.event_log().busy_per_thread();
  double busy_max = 0.0, busy_sum = 0.0;
  for (std::size_t i = 0; i < busy.size(); ++i) {
    json.metric("imbalance", "busy_seconds_thread_" + std::to_string(i), busy[i]);
    busy_max = std::max(busy_max, busy[i]);
    busy_sum += busy[i];
  }
  const double busy_mean = busy.empty() ? 0.0 : busy_sum / double(busy.size());
  json.metric("imbalance", "max_over_mean", busy_mean > 0 ? busy_max / busy_mean : 1.0);
  json.metric("imbalance", "imbalance_pct",
              busy_mean > 0 ? (busy_max / busy_mean - 1.0) * 100.0 : 0.0);
  json.metric("imbalance", "steals", double(machine.counters().steals));

  // Allocation totals (the VisualVM live-objects substitute) so cache
  // pollution can be cited alongside miss rates.
  long long total_allocs = 0;
  for (const auto& tr : sim_engine.tracker().all_reports()) {
    json.metric("alloc", "total_" + tr.type_name, double(tr.total_allocated));
    total_allocs += tr.total_allocated;
  }
  json.metric("alloc", "total_allocations", double(total_allocs));
  json.metric("alloc", "allocations_per_step", double(total_allocs) / opt.steps);
  if (sim_engine.temp_vec3_type() >= 0) {
    const auto tr = sim_engine.tracker().report(sim_engine.temp_vec3_type());
    json.metric("alloc", "temp_vec3_per_step", double(tr.total_allocated) / opt.steps);
  }
  std::cout << "wrote " << json.write() << " (run summary)\n";

  // --- Conservation self-check ------------------------------------------------
  const std::vector<perf::Counter> violations = machine.conservation_violations();
  for (const perf::Counter c : violations) {
    std::cerr << "CONSERVATION VIOLATION: " << perf::counter_name(c)
              << " machine=" << machine_total[c]
              << " sum-of-domains=" << sim_report.total()[c] << "\n";
  }
  if (!violations.empty()) {
    std::cerr << violations.size() << " conservation failure(s)\n";
    return 1;
  }
  std::cout << "conservation check passed: per-phase/per-core domains tile the "
               "machine-global counters\n";

  // --- What-if planner --------------------------------------------------------
  if (opt.plan) {
    const int plan_failures = run_planner(opt, machine, sim_engine, sim_trace, sim_report);
    if (plan_failures > 0) {
      std::cerr << plan_failures << " plan prediction(s) outside the "
                << perf::kPlanTolerancePct << "% tolerance\n";
      return 1;
    }
  }

  return 0;
}
