// Section V-A reproduction: data packing / runtime reordering.
//
// The authors tried to reorder atom objects into spatial order with rapidly
// successive new() calls, saw no improvement in VTune's mid-/last-level miss
// rates, and concluded "the objects were not being reordered and packed in
// memory".  Because our heap layout is a model, we can run all the cases
// they could not distinguish:
//
//   1. java-objects               — creation-order objects (the real MW)
//   2. java-objects + reorder     — the *attempted* reorder: the memory
//                                   manager ignores it (identical addresses)
//   3. reordered-objects          — what they hoped new() would do: objects
//                                   re-laid in cell-traversal order each
//                                   rebuild
//   4. packed-soa                 — the C-style layout Java cannot express
//
// Case 2 must be indistinguishable from case 1 (the paper's observation);
// cases 3 and 4 show what was actually available beyond Java's reach.
//
// The second table runs Al-1000 on all three Table II machines, each heap
// layout with the Morton pass (a physical permutation of the atoms) off and
// on.  Under JavaObjects the permuted atoms keep their scattered creation
// addresses, so the pass cannot pack them; ReorderedObjects and PackedSoA
// show what it does once the memory manager cooperates.  Both tables run
// `steps` measured steps.  Native wall clock per pair on shuffled and
// reordered systems is bench/e2e's to measure (gas16k, droplet200k).
//
// Args: [steps] (default 50).
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
  const int steps = argc > 1 ? std::atoi(argv[1]) : 50;

  std::cout << "Data packing (Section V-A), Al-1000 on 4 simulated cores\n\n";

  auto run = [&](md::Layout layout, bool reorder) {
    bench::RunOptions opt;
    opt.n_threads = 4;
    opt.steps = steps;
    opt.layout = layout;
    opt.reorder_on_rebuild = reorder;
    return bench::run_simulated("Al-1000", opt);
  };

  struct Case {
    const char* name;
    md::Layout layout;
    bool reorder;
  };
  const Case cases[] = {
      {"java-objects (baseline MW)", md::Layout::JavaObjects, false},
      {"java-objects + attempted reorder", md::Layout::JavaObjects, true},
      {"reordered-objects (real reorder)", md::Layout::ReorderedObjects, true},
      {"packed-soa", md::Layout::PackedSoA, false},
  };

  Table table({"Layout", "ms/step", "L2 miss%", "L3 miss%", "DRAM MB/step"});
  double base_l2 = 0.0, base_l3 = 0.0, attempted_l2 = 0.0, attempted_l3 = 0.0;
  for (const Case& c : cases) {
    const auto r = run(c.layout, c.reorder);
    const double l2 = r.counters.l2.miss_rate() * 100.0;
    const double l3 = r.counters.l3.miss_rate() * 100.0;
    if (std::string(c.name).find("baseline") != std::string::npos) {
      base_l2 = l2;
      base_l3 = l3;
    }
    if (std::string(c.name).find("attempted") != std::string::npos) {
      attempted_l2 = l2;
      attempted_l3 = l3;
    }
    table.row(c.name, Table::fixed(r.seconds_per_step * 1e3, 3), Table::fixed(l2, 2),
              Table::fixed(l3, 2), Table::fixed(r.counters.dram_bytes(64) / 1e6 / steps, 2));
  }
  table.print(std::cout);

  std::cout << "\npaper's observation reproduced: attempted reorder changes miss rates by "
            << Table::fixed(std::abs(attempted_l2 - base_l2), 3) << " pp (L2) / "
            << Table::fixed(std::abs(attempted_l3 - base_l3), 3)
            << " pp (L3) — \"a strong indicator that the objects were not being "
               "reordered\".\n\n";

  std::cout << "Morton pass off/on, Al-1000, 4 threads on each Table II machine\n\n";
  for (const topo::MachineSpec& spec : topo::table2_machines()) {
    std::cout << spec.name << " (" << spec.processor << ")\n";
    Table morton({"Layout", "Morton", "ms/step", "L2 miss%", "L3 miss%", "DRAM MB/step"});
    for (md::Layout layout :
         {md::Layout::JavaObjects, md::Layout::ReorderedObjects, md::Layout::PackedSoA}) {
      for (int interval : {0, 1}) {
        bench::RunOptions opt;
        opt.n_threads = 4;
        opt.steps = steps;
        opt.warmup_steps = 3;
        opt.spec = spec;
        opt.layout = layout;
        opt.reorder_interval = interval;
        const bench::RunResult r = bench::run_simulated("Al-1000", opt);
        morton.row(layout_key(layout), interval > 0 ? "on" : "off",
                   Table::fixed(r.seconds_per_step * 1e3, 3),
                   Table::fixed(r.counters.l2.miss_rate() * 100.0, 2),
                   Table::fixed(r.counters.l3.miss_rate() * 100.0, 2),
                   Table::fixed(r.counters.dram_bytes(64) / 1e6 / steps, 2));
      }
    }
    morton.print(std::cout);
    std::cout << '\n';
  }
  return 0;
}
