// Work-stealing executor evaluation on the triangular pair domains.
//
// Section II-B weighs a single shared queue ("any work ... will be picked up
// by the next available thread", but "all threads are contending for access
// to that single resource") against per-thread queues ("eliminates
// contention, but can result in ... idle" threads).  The Chase–Lev
// discipline resolves the dilemma, and this bench quantifies it four ways:
//   1. a synthetic triangular phase on the simulated machine — the Coulomb
//      cost profile in isolation, contiguous blocks so the static split is
//      maximally imbalanced (the 32-thread ranking is gated by
//      QueueClaims.WorkStealingBeatsStaticAndSharedQueueAt32Threads);
//   2. the salt benchmark end-to-end on a Table II machine across the three
//      simulated queue disciplines;
//   3. the paper's two disciplines, per-thread and one shared queue, on the
//      three Table I benchmarks across task granularities (4 simulated
//      cores);
//   4. the salt benchmark on real threads across the three native pool
//      queue modes (host-dependent; the simulator is the controlled
//      multicore comparison).
//
// Args: [steps] (default 30) for parts 2-4.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "parallel/affinity.hpp"
#include "perf/scoped_timer.hpp"

namespace {

struct PhaseOutcome {
  double ms = 0.0;
  long long steals = 0;
  double steal_overhead_ms = 0.0;
  double queue_wait_ms = 0.0;
};

// One compute-only phase whose task costs fall linearly (task i of n costs
// ~(n - i)): the per-chunk profile of a contiguous split of the triangular
// LJ/Coulomb pair loops.  Owners get contiguous blocks, so under Static the
// first thread holds almost all the work.
PhaseOutcome run_triangular(mwx::sim::Assignment assignment, const mwx::topo::MachineSpec& spec,
                            int n_threads, int n_tasks) {
  using namespace mwx;
  sim::MachineConfig mc;
  mc.spec = spec;
  mc.sched.noise_bursts_per_second = 0.0;
  mc.n_threads = n_threads;
  sim::Machine machine(mc);

  sim::PhaseWork work;
  work.tag = 4;
  work.assignment = assignment;
  const double total_cycles = 8e6;
  const double weight_sum = static_cast<double>(n_tasks) * (n_tasks + 1) / 2.0;
  for (int i = 0; i < n_tasks; ++i) {
    sim::SimTask t;
    t.owner = i * n_threads / n_tasks;
    t.compute_cycles = total_cycles * static_cast<double>(n_tasks - i) / weight_sum;
    work.tasks.push_back(t);
  }
  const auto r = machine.run_phase(work);
  const double to_ms = 1e3 / (mc.spec.ghz * 1e9);
  PhaseOutcome out;
  out.ms = r.duration_seconds() * 1e3;
  out.steals = machine.counters().steals;
  out.steal_overhead_ms = machine.counters().steal_overhead_cycles * to_ms;
  out.queue_wait_ms = machine.counters().queue_wait_cycles * to_ms;
  return out;
}

const char* discipline_name(mwx::sim::Assignment a) {
  switch (a) {
    case mwx::sim::Assignment::Static: return "static";
    case mwx::sim::Assignment::SharedQueue: return "shared-queue";
    case mwx::sim::Assignment::WorkStealing: return "work-stealing";
  }
  return "?";
}

const char* mode_name(mwx::parallel::QueueMode m) {
  switch (m) {
    case mwx::parallel::QueueMode::Single: return "single";
    case mwx::parallel::QueueMode::PerThread: return "per-thread";
    case mwx::parallel::QueueMode::WorkStealing: return "work-stealing";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mwx;
  const int steps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 30;
  bench::JsonEmitter json("work_stealing");

  std::cout << "Queue-discipline comparison on triangular (pair-loop) work\n\n";

  // --- 1. Synthetic triangular phase, two Table II machines -----------------
  // At 4 cores the central queue barely contends and either dynamic
  // discipline reaches balance; at 32 threads on the 4-socket Xeon every pop
  // serializes on one lock while steals touch only the victim — the scaling
  // regime Section II-B's trade-off is about.
  struct SynthSetup {
    const char* label;
    topo::MachineSpec spec;
    int threads;
    int tasks;
  };
  const SynthSetup setups[] = {
      {"core_i7_920 4t x 64 tasks", topo::core_i7_920(), 4, 64},
      {"xeon_x7560_4s 32t x 4096 tasks", topo::xeon_x7560_4s(), 32, 4096},
  };
  for (const auto& s : setups) {
    std::cout << "Synthetic triangular phase, contiguous blocks, " << s.label << ":\n";
    Table synth({"Discipline", "Phase ms", "Steals", "Steal ovh ms", "Queue wait ms"});
    double synth_ms[3] = {0, 0, 0};
    int idx = 0;
    for (const auto a : {sim::Assignment::Static, sim::Assignment::SharedQueue,
                         sim::Assignment::WorkStealing}) {
      const auto r = run_triangular(a, s.spec, s.threads, s.tasks);
      synth_ms[idx++] = r.ms;
      synth.row(discipline_name(a), Table::fixed(r.ms, 4), r.steals,
                Table::fixed(r.steal_overhead_ms, 4), Table::fixed(r.queue_wait_ms, 4));
      json.metric(std::string("synthetic_ms ") + s.label, discipline_name(a), r.ms);
    }
    synth.print(std::cout);
    // The 4-core row shows both dynamic disciplines far ahead of the static
    // split; the strict ranking at scale (the Xeon row) is a ctest.
    const bool row_ok = synth_ms[2] <= synth_ms[0] * 1.001 && synth_ms[2] <= synth_ms[1] * 1.05;
    std::cout << (row_ok ? "OK: work stealing within 5% of both alternatives\n\n"
                         : "UNEXPECTED: work stealing more than 5% behind an alternative\n\n");
  }

  // --- 2. Salt end-to-end on a Table II machine -----------------------------
  std::cout << "salt, 16 threads, chunks/thread=4, simulated 4-socket Xeon X7560:\n";
  Table engine_table({"Discipline", "ms/step", "Imbalance", "Steals", "Queue wait ms"});
  for (const auto a : {sim::Assignment::Static, sim::Assignment::SharedQueue,
                       sim::Assignment::WorkStealing}) {
    bench::RunOptions opt;
    opt.n_threads = 16;
    opt.spec = topo::xeon_x7560_4s();
    opt.steps = steps;
    opt.assignment = a;
    opt.chunks_per_thread = 4;
    const auto r = bench::run_simulated("salt", opt);
    engine_table.row(discipline_name(a), Table::fixed(r.seconds_per_step * 1e3, 3),
                     Table::fixed(r.imbalance, 3), r.counters.steals,
                     Table::fixed(r.counters.queue_wait_cycles /
                                      (opt.spec.ghz * 1e9) * 1e3,
                                  2));
    json.metric("salt_simulated_ms_per_step", discipline_name(a),
                r.seconds_per_step * 1e3);
    json.metric("salt_simulated_imbalance", discipline_name(a), r.imbalance);
  }
  engine_table.print(std::cout);
  std::cout << "(salt's cyclic static split is already balanced — imbalance ~1.02 —\n"
               " so stealing pays cross-socket buffer migration without a balance win;\n"
               " the shared queue's contention is the clear loser at 16 threads.)\n\n";

  // --- 3. Per-thread vs one shared queue, Table I benchmarks ----------------
  std::cout << "Work-queue configuration ablation (Section II-B), 4 simulated cores\n\n";
  Table ablation({"Benchmark", "Queue", "Chunks/thread", "ms/step", "Queue wait ms",
                  "Imbalance"});
  for (const auto& name : workloads::benchmark_names()) {
    for (const auto assignment : {sim::Assignment::Static, sim::Assignment::SharedQueue}) {
      for (int chunks : {1, 4, 16}) {
        bench::RunOptions opt;
        opt.n_threads = 4;
        opt.steps = steps;
        opt.assignment = assignment;
        opt.chunks_per_thread = chunks;
        const auto r = bench::run_simulated(name, opt);
        ablation.row(name,
                     assignment == sim::Assignment::Static ? "per-thread" : "single shared",
                     chunks, Table::fixed(r.seconds_per_step * 1e3, 3),
                     Table::fixed(r.counters.queue_wait_cycles /
                                      (topo::core_i7_920().ghz * 1e9) * 1e3,
                                  2),
                     Table::fixed(r.imbalance, 3));
      }
    }
  }
  ablation.print(std::cout);
  std::cout << "\nsingle shared queue: dynamic balancing (lower imbalance at fine grain)\n"
               "but measurable contention; per-thread queues: zero contention, static\n"
               "distribution only.\n\n";

  // --- 4. Salt on real threads ----------------------------------------------
  std::cout << "salt, 4 native threads on " << parallel::online_pus()
            << " host PU(s) (wall clock; rankings need >= 4 PUs):\n";
  Table native_table({"Pool queue", "ms/step", "Steals"});
  for (const auto mode : {parallel::QueueMode::Single, parallel::QueueMode::PerThread,
                          parallel::QueueMode::WorkStealing}) {
    auto spec = workloads::make_salt(7);
    auto cfg = spec.engine;
    cfg.n_threads = 4;
    cfg.chunks_per_thread = 4;
    cfg.assignment = sim::Assignment::WorkStealing;  // contiguous, imbalanced chunks
    cfg.temporaries = md::TemporariesMode::InPlace;
    md::Engine engine(std::move(spec.system), cfg);
    parallel::FixedThreadPool pool({.n_threads = 4, .queue_mode = mode});
    engine.run_native(pool, 5);  // warmup
    perf::StopWatch clock;
    engine.run_native(pool, steps);
    const double ms = clock.elapsed_seconds() * 1e3 / steps;
    native_table.row(mode_name(mode), Table::fixed(ms, 3), pool.steals());
    json.metric("salt_native_ms_per_step", mode_name(mode), ms);
  }
  native_table.print(std::cout);

  std::cout << "\nwork stealing pairs contiguous chunks (block-local scatter, which\n"
               "the sparse reduction skips) with dynamic balance: the triangle's heavy\n"
               "chunks migrate to idle workers instead of serializing on their owner.\n";
  json.note("meta", "machine", "core_i7_920 (simulated)");
  std::cout << "wrote " << json.write() << "\n";
  return 0;
}
