// Spatial-locality study: Morton-order atom reordering + compacted CSR
// neighbor lists.
//
// Part A (simulated): Al-1000 traced on the three Table II machines, for each
// heap layout model with the Morton pass off and on.  JavaObjects shows the
// paper's dead end — permuted atoms still live at their scattered creation
// addresses, so reordering barely moves the miss rates.  ReorderedObjects and
// PackedSoA show what the pass buys once the memory manager cooperates.
//
// Part B (native): wall clock per LJ pair on a deliberately shuffled LJ gas,
// comparing the seed-style path (no reordering) against periodic Morton
// reordering.  Both runs share the CSR list and the LJ kernel; only the
// atom order, and so the speed, differs.
//
// Emits BENCH_locality.json.  Args: [sim_steps] [native_atoms] [native_steps]
// (CI passes tiny values for the smoke run).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

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
  const int native_atoms = argc > 2 ? std::atoi(argv[2]) : 16000;
  const int native_steps = argc > 3 ? std::atoi(argv[3]) : 60;

  bench::JsonEmitter json("locality");
  json.set_provider("mixed");  // part A is simulated, part B native wall clock

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

  std::cout << "Part B: native wall clock, shuffled LJ gas of " << native_atoms
            << " atoms, single thread\n\n";

  // Shuffle creation order so the gas starts with worst-case index locality —
  // the state a long-running interactive MW session degrades into.
  auto make_shuffled_gas = [&] {
    md::MolecularSystem sys = workloads::make_lj_gas(native_atoms, 0.02, 260.0, 19);
    std::vector<int> perm(static_cast<std::size_t>(sys.n_atoms()));
    std::iota(perm.begin(), perm.end(), 0);
    std::mt19937_64 rng(1234);
    std::shuffle(perm.begin(), perm.end(), rng);
    sys.permute(perm);
    return sys;
  };

  // Each config is timed over kReps interleaved repetitions (best-of) so a
  // noisy scheduling quantum on one run cannot masquerade as a speedup.
  constexpr int kReps = 3;
  double pairs_per_step_out = 0.0;
  auto time_case = [&](int reorder_interval) {
    md::MolecularSystem sys = make_shuffled_gas();
    md::EngineConfig cfg;
    cfg.n_threads = 1;
    cfg.temporaries = md::TemporariesMode::InPlace;
    cfg.reorder_interval = reorder_interval;
    md::Engine engine(std::move(sys), cfg);
    engine.run_inline(5);  // warmup: first rebuild (and first Morton pass)
    const auto t0 = std::chrono::steady_clock::now();
    engine.run_inline(native_steps);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    const double pairs_per_step =
        static_cast<double>(engine.neighbor_list().total_entries());
    pairs_per_step_out = pairs_per_step;
    return seconds * 1e9 / (static_cast<double>(native_steps) * pairs_per_step);
  };

  double ns_seed = 0.0, ns_locality = 0.0;
  double pairs_seed = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto best = [rep](double& acc, double v) { acc = rep == 0 ? v : std::min(acc, v); };
    best(ns_seed, time_case(0));
    pairs_seed = pairs_per_step_out;
    best(ns_locality, time_case(2));
  }

  Table native({"Config", "ns/pair", "speedup vs seed"});
  native.row("seed path (no reorder)", Table::fixed(ns_seed, 3), Table::fixed(1.0, 3));
  native.row("Morton every 2 rebuilds", Table::fixed(ns_locality, 3),
             Table::fixed(ns_seed / ns_locality, 3));
  native.print(std::cout);

  json.metric("native", "atoms", native_atoms);
  json.metric("native", "steps", native_steps);
  json.metric("native", "pairs_per_step", pairs_seed);
  json.metric("native", "ns_per_pair_seed", ns_seed);
  json.metric("native", "ns_per_pair_locality", ns_locality);
  json.metric("native", "speedup_locality_vs_seed", ns_seed / ns_locality);

  std::cout << "\nwrote " << json.write() << "\n";
  return 0;
}
