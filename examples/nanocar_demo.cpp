// The nanocar benchmark on real threads, with the per-phase imbalance
// analysis Section IV wished the 2010 tools could do: the engine records
// every task into a lock-free trace ring, from which we report per-phase
// thread busy times.
//
//   $ ./build/examples/nanocar_demo [steps] [threads]
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "md/engine.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/monitor.hpp"
#include "perf/trace_ring.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace mwx;
  const int steps = argc > 1 ? std::atoi(argv[1]) : 200;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 2;

  workloads::BenchmarkSpec spec = workloads::make_nanocar(/*seed=*/11);
  md::EngineConfig config = spec.engine;
  config.n_threads = threads;
  config.temporaries = md::TemporariesMode::InPlace;
  md::Engine engine(std::move(spec.system), config);

  // A lane per pool worker plus the caller's, each large enough that no
  // task record of a default run is dropped.
  perf::TraceRing ring(threads + 1, std::size_t{1} << 16);
  perf::JamonMonitor monitor;
  engine.attach_trace(&ring);
  engine.attach_monitor(&monitor);

  parallel::FixedThreadPool pool(
      {.n_threads = threads, .queue_mode = parallel::QueueMode::PerThread});
  engine.run_native(pool, steps);

  std::cout << "nanocar: " << engine.system().n_atoms() << " atoms ("
            << engine.system().n_atoms() - engine.system().n_movable()
            << " immovable platform), " << engine.system().n_bonds_total() << " bonds, "
            << steps << " steps on " << threads << " threads\n\n";

  // Per-phase wall time from the monitor (what JaMON would report).
  Table phases({"Phase", "Calls", "Total s", "Mean us"});
  // Monitor keys are "phase.<tag>"; names come from the engine's tag table.
  std::map<int, std::string> phase_names;
  for (const auto& snap : monitor.snapshot()) {
    const int tag = std::stoi(snap.key.substr(snap.key.find('.') + 1));
    const char* name = md::phase_tag_name(tag);
    phase_names[tag] = name != nullptr ? name : snap.key;
    phases.row(phase_names[tag], snap.hits, Table::fixed(snap.total_seconds, 3),
               Table::fixed(snap.mean_seconds() * 1e6, 1));
  }
  phases.print(std::cout, "Per-phase timing (JaMON-style monitor)");

  // Per-thread busy time and imbalance per phase (from the trace's task
  // records — the view the paper's tools could not provide).  Lanes are
  // the pool's workers and the calling thread; a lane that ran no task (the
  // caller under PerThread claims none) is left out.
  const perf::TraceSnapshot snap = ring.snapshot();
  std::map<int, std::map<int, double>> busy_by_tag;  // tag -> lane -> seconds
  std::map<int, bool> ran_tasks;                      // lane -> any task
  for (const auto& m : snap.events) {
    if (m.event.kind != perf::TraceKind::Task) continue;
    busy_by_tag[m.event.tag][m.lane] += m.event.end - m.event.begin;
    ran_tasks[m.lane] = true;
  }
  Table balance({"Phase", "Busy s per thread (min..max)", "Imbalance (max/mean)"});
  for (const auto& [tag, label] : phase_names) {
    std::vector<double> busy;
    for (const auto& [lane, ran] : ran_tasks) busy.push_back(busy_by_tag[tag][lane]);
    if (busy.empty()) continue;
    double lo = busy[0], hi = busy[0];
    for (double b : busy) {
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    }
    balance.row(label, Table::fixed(lo, 3) + " .. " + Table::fixed(hi, 3),
                Table::fixed(imbalance_ratio(busy), 3));
  }
  std::cout << '\n';
  balance.print(std::cout, "Per-thread balance (trace ring, " +
                               std::to_string(snap.dropped) + " records dropped)");

  std::cout << "\nFinal energy: " << Table::fixed(units::to_ev(engine.total_energy()), 2)
            << " eV after " << engine.rebuild_count() << " neighbor rebuilds\n";
  return 0;
}
