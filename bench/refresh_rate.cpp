// Context check from Sections I/VII: "On a quad-core system, MW can now
// sustain refresh rates as high as 32 updates per second on some 1000 atom
// benchmarks" — and the goal that motivated the work: smooth display of
// ~1000 atoms where the serial engine managed only a few hundred.  The
// second table sweeps the atom count of an LJ gas (Section I's smooth-display
// range, serial vs quad core).
//
// Usage: refresh_rate [steps=60]   (timed steps per point, both tables)
#include <cstdlib>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace mwx;
  const int steps = argc > 1 ? std::atoi(argv[1]) : 60;

  std::cout << "Refresh rate on a quad-core (simulated Core i7), 1 vs 4 threads\n"
            << "paper reference: up to 32 updates/s on some 1000-atom benchmarks\n\n";

  Table table({"Benchmark", "Updates/s (1 thread)", "Updates/s (4 threads)", "Best >= 32?"});
  for (const auto& name : workloads::benchmark_names()) {
    bench::RunOptions opt;
    opt.steps = steps;
    opt.n_threads = 1;
    const auto serial = bench::run_simulated(name, opt);
    opt.n_threads = 4;
    const auto quad = bench::run_simulated(name, opt);
    // A display update happens every simulation step (the engine drives the
    // GUI); per-frame render cost is outside the engine and excluded here.
    table.row(name, Table::fixed(serial.updates_per_second, 1),
              Table::fixed(quad.updates_per_second, 1),
              quad.updates_per_second >= 32.0 ? "yes" : "no");
  }
  table.print(std::cout, "Simulation update rates");

  std::cout << "\nAtom-count context on the simulated quad-core (paper Section I):\n";
  Table ctx({"Atoms", "Updates/s (serial)", "Updates/s (4 threads)"});
  for (int n : {250, 500, 1000, 2000, 4000}) {
    double ups[2] = {0, 0};
    int idx = 0;
    for (int t : {1, 4}) {
      md::EngineConfig cfg;
      cfg.n_threads = t;
      cfg.dt_fs = 1.0;
      cfg.cutoff = 7.5;
      cfg.skin = 0.8;
      md::Engine engine(workloads::make_lj_gas(n, 0.055, 300.0, 5), cfg);
      sim::MachineConfig mc;
      mc.spec = topo::core_i7_920();
      mc.n_threads = t;
      sim::Machine machine(mc);
      engine.run_simulated(machine, 5);  // warm the caches
      const double t0 = machine.now_seconds();
      engine.run_simulated(machine, steps);
      ups[idx++] = steps / (machine.now_seconds() - t0);
    }
    ctx.row(n, Table::fixed(ups[0], 1), Table::fixed(ups[1], 1));
  }
  ctx.print(std::cout);
  return 0;
}
