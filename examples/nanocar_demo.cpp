// The nanocar benchmark on real threads, with the per-phase imbalance
// analysis Section IV wished the 2010 tools could do: the engine records an
// exact event log, from which we report per-phase thread busy times.
//
//   $ ./build/examples/nanocar_demo [steps] [threads]
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "md/engine.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/event_log.hpp"
#include "perf/monitor.hpp"
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

  perf::EventLog log(threads);
  perf::JamonMonitor monitor;
  engine.attach_event_log(&log);
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

  // Exact per-thread busy time and imbalance per phase (from the event log —
  // the view the paper's tools could not provide).
  Table balance({"Phase", "Busy s per thread (min..max)", "Imbalance (max/mean)"});
  for (const auto& [tag, label] : phase_names) {
    std::vector<double> busy(static_cast<std::size_t>(threads), 0.0);
    for (int t = 0; t < threads; ++t) {
      for (const auto& e : log.events_of(t)) {
        if (e.tag == tag) busy[static_cast<std::size_t>(t)] += e.end - e.begin;
      }
    }
    double lo = busy[0], hi = busy[0];
    for (double b : busy) {
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    }
    balance.row(label, Table::fixed(lo, 3) + " .. " + Table::fixed(hi, 3),
                Table::fixed(imbalance_ratio(busy), 3));
  }
  std::cout << '\n';
  balance.print(std::cout, "Exact per-thread balance (event log)");

  std::cout << "\nFinal energy: " << Table::fixed(units::to_ev(engine.total_energy()), 2)
            << " eV after " << engine.rebuild_count() << " neighbor rebuilds\n";
  return 0;
}
