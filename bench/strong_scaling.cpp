// Strong scaling beyond the paper's 4 cores: the Al-1000-class LJ workload,
// scaled to 4000 atoms, on the 32-core Xeon X7560 model from 1 to 32
// threads.  The paper stops at Table III's fixed-topology comparison; this
// bench answers the implied question — where does the irregular workload
// stop scaling on the big machine, and what resource pins it there?
//
// A second, workload-axis section holds thread count at the full machine and
// grows the system through the 1M-atom bulk crystal (the PR 9 generators):
// per-atom cost and the home-controller queue share show whether the
// bandwidth wall moves when the working set dwarfs every cache level.
//
// Usage: strong_scaling [steps=12] [max_atoms=1000000]
// Emits BENCH_strong_scaling.json.
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "md/engine.hpp"
#include "sim/machine.hpp"
#include "topo/machine_spec.hpp"
#include "workloads/workloads.hpp"

namespace {

struct Point {
  double seconds_per_step = 0.0;
  double dram_mb_per_step = 0.0;
  double queue_ms = 0.0;
};

Point run_point(const mwx::topo::MachineSpec& spec, int n_atoms, int threads, int warmup,
                int steps) {
  using namespace mwx;
  auto sys = workloads::make_bulk_crystal(n_atoms, 120.0, 42);
  md::EngineConfig cfg;
  cfg.n_threads = threads;
  cfg.dt_fs = 1.0;
  cfg.cutoff = 7.5;
  cfg.skin = 0.8;
  md::Engine engine(std::move(sys), cfg);

  sim::MachineConfig mc;
  mc.spec = spec;
  mc.n_threads = threads;
  // One thread per core, filling sockets in order (the best Table III
  // policy extended).
  for (int i = 0; i < threads; ++i) {
    mc.pin_masks.push_back(topo::CpuSet::of({spec.canonical_pu(i)}));
  }
  sim::Machine machine(mc);
  engine.run_simulated(machine, warmup);
  machine.reset_counters();
  const double t0 = machine.now_seconds();
  engine.run_simulated(machine, steps);

  Point p;
  p.seconds_per_step = (machine.now_seconds() - t0) / steps;
  p.dram_mb_per_step = machine.counters().dram_bytes(64) / 1e6 / steps;
  p.queue_ms = machine.counters().dram_queue_cycles / (spec.ghz * 1e9) * 1e3;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mwx;
  const int steps = argc > 1 ? std::atoi(argv[1]) : 12;
  const int max_atoms = argc > 2 ? std::atoi(argv[2]) : 1000000;
  const auto spec = topo::xeon_x7560_4s();

  bench::JsonEmitter json("strong_scaling");
  json.set_provider("sim");
  json.metric("env", "hardware_concurrency",
              static_cast<double>(std::thread::hardware_concurrency()));
  json.metric("env", "steps", steps);
  json.metric("env", "max_atoms", max_atoms);
  json.note("env", "machine", spec.name);

  std::cout << "Strong scaling: 4000-atom LJ solid on the simulated Xeon X7560\n"
            << "(one pinned thread per core, heap home on node 0)\n\n";

  Table table({"Threads", "ms/step", "Speedup", "Efficiency %", "DRAM MB/step",
               "Home-ctrl queue ms"});
  double t1 = 0.0;
  for (int threads : {1, 2, 4, 8, 16, 32}) {
    const Point p = run_point(spec, 4000, threads, 3, steps);
    if (threads == 1) t1 = p.seconds_per_step;
    table.row(threads, Table::fixed(p.seconds_per_step * 1e3, 3),
              Table::fixed(t1 / p.seconds_per_step, 2),
              Table::fixed(100.0 * t1 / p.seconds_per_step / threads, 1),
              Table::fixed(p.dram_mb_per_step, 2), Table::fixed(p.queue_ms, 1));
    const std::string g = "threads.t" + std::to_string(threads);
    json.metric(g, "ms_per_step", p.seconds_per_step * 1e3);
    json.metric(g, "speedup", t1 / p.seconds_per_step);
    json.metric(g, "efficiency_pct", 100.0 * t1 / p.seconds_per_step / threads);
    json.metric(g, "dram_mb_per_step", p.dram_mb_per_step);
    json.metric(g, "home_queue_ms", p.queue_ms);
  }
  table.print(std::cout);
  std::cout << "\n(queueing at the home memory controller grows as threads scale — the\n"
               "single-home-heap bottleneck that caps the irregular workload)\n";

  // --- Workload axis: hold the machine, grow the crystal to 1M atoms --------
  // Fewer steps: the event-driven simulator prices every access, and the
  // 1M-atom point issues ~half a billion of them per step.
  const int wsteps = std::max(1, steps / 6);
  std::cout << "\nWorkload axis: bulk fcc argon at 32 pinned threads, " << wsteps
            << " measured step(s)\n\n";
  Table wtable({"Atoms", "ms/step", "us/atom/step", "DRAM MB/step", "Home-ctrl queue ms"});
  for (int n : {4000, 100000, 1000000}) {
    if (n > max_atoms) {
      std::cout << "(skipping n=" << n << " > max_atoms=" << max_atoms << ")\n";
      continue;
    }
    const Point p = run_point(spec, n, 32, 1, wsteps);
    wtable.row(n, Table::fixed(p.seconds_per_step * 1e3, 3),
               Table::fixed(p.seconds_per_step * 1e6 / n, 4),
               Table::fixed(p.dram_mb_per_step, 2), Table::fixed(p.queue_ms, 1));
    const std::string g = "atoms.n" + std::to_string(n);
    json.metric(g, "ms_per_step", p.seconds_per_step * 1e3);
    json.metric(g, "us_per_atom_step", p.seconds_per_step * 1e6 / n);
    json.metric(g, "dram_mb_per_step", p.dram_mb_per_step);
    json.metric(g, "home_queue_ms", p.queue_ms);
  }
  wtable.print(std::cout);
  std::cout << "\nwrote " << json.write() << "\n";
  return 0;
}
