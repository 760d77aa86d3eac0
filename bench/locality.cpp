// Spatial-locality study: Morton-order atom reordering + compacted CSR
// neighbor lists.
//
// Part A (simulated): Al-1000 traced on the three Table II machines, for each
// heap layout model with the Morton pass off and on.  JavaObjects shows the
// paper's dead end — permuted atoms still live at their scattered creation
// addresses, so reordering barely moves the miss rates.  ReorderedObjects and
// PackedSoA show what the pass buys once the memory manager cooperates.
//
// Native wall clock per pair on shuffled and reordered systems is
// bench/e2e's to measure (gas16k, droplet200k), not this bench's.
//
// Emits BENCH_locality.json.  Args: [sim_steps] (CI passes a tiny value for
// the smoke run).
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "common/table.hpp"

namespace {

const char* layout_key(mwx::md::Layout layout) {
  switch (layout) {
    case mwx::md::Layout::JavaObjects: return "java_objects";
    case mwx::md::Layout::ReorderedObjects: return "reordered_objects";
    case mwx::md::Layout::PackedSoA: return "packed_soa";
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mwx;
  const int sim_steps = argc > 1 ? std::atoi(argv[1]) : 40;

  bench::JsonEmitter json("locality");
  json.set_provider("sim");

  std::cout << "Part A: simulated miss rates, Al-1000, 4 threads, Morton pass off/on\n\n";
  for (const topo::MachineSpec& spec : topo::table2_machines()) {
    std::cout << spec.name << " (" << spec.processor << ")\n";
    Table table({"Layout", "Morton", "ms/step", "L2 miss%", "L3 miss%", "DRAM MB/step"});
    const std::string group = "sim." + spec.name;
    for (md::Layout layout :
         {md::Layout::JavaObjects, md::Layout::ReorderedObjects, md::Layout::PackedSoA}) {
      for (int interval : {0, 1}) {
        bench::RunOptions opt;
        opt.n_threads = 4;
        opt.steps = sim_steps;
        opt.warmup_steps = 3;
        opt.spec = spec;
        opt.layout = layout;
        opt.reorder_interval = interval;
        const bench::RunResult r = bench::run_simulated("Al-1000", opt);
        const double l2 = r.counters.l2.miss_rate() * 100.0;
        const double l3 = r.counters.l3.miss_rate() * 100.0;
        const double ms = r.seconds_per_step * 1e3;
        const double dram_mb = r.counters.dram_bytes(64) / 1e6 / sim_steps;
        const std::string key =
            std::string(layout_key(layout)) + (interval > 0 ? ".reorder_on" : ".reorder_off");
        json.metric(group, key + ".ms_per_step", ms);
        json.metric(group, key + ".l2_miss_pct", l2);
        json.metric(group, key + ".l3_miss_pct", l3);
        json.metric(group, key + ".dram_mb_per_step", dram_mb);
        table.row(layout_key(layout), interval > 0 ? "on" : "off", Table::fixed(ms, 3),
                  Table::fixed(l2, 2), Table::fixed(l3, 2), Table::fixed(dram_mb, 2));
      }
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  std::cout << "wrote " << json.write() << "\n";
  return 0;
}
