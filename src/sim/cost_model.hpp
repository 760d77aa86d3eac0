// The simulator's price list.
//
// One MachinePricing, derived from a topo::MachineSpec and the CostParams,
// holds every per-event memory price: sim::Machine builds one at
// construction and charges each access from it (machine.cpp), and the
// what-if planner (perf::Planner) re-prices a measured phase on a machine it
// never ran on from the same numbers.  It carries
//
//   * per-level hit latencies and per-instance capacities, levels in L1..Ln
//     order whatever order the spec lists them in,
//   * the effective DRAM stall per missing line (dram_latency / mlp, with the
//     remote-home factor),
//   * the memory-controller occupancy per line (max of streaming and
//     random-access figures) — the bandwidth ceiling of a phase,
//
// and, beside it, the per-task acquisition cost of each queue discipline.
//
// Header-only and dependency-light on purpose: the planner links mwx_perf +
// mwx_topo but not the simulator; everything here is a pure function of the
// already-public parameter structs.
#pragma once

#include <algorithm>
#include <vector>

#include "sim/access.hpp"
#include "sim/params.hpp"
#include "topo/machine_spec.hpp"

namespace mwx::sim {

// One cache level's prices.
struct LevelPricing {
  int level = 1;
  double capacity_bytes = 0.0;     // per instance
  double hit_latency_cycles = 0.0;
};

// Every memory price of one machine, as the simulator charges it.
struct MachinePricing {
  std::vector<LevelPricing> levels;   // ordered L1..Ln
  double ghz = 0.0;
  int packages = 1;
  int cores = 1;
  int pus = 1;
  int smt_per_core = 1;
  int line_bytes = 64;                // the last level's line: the DRAM transfer unit

  // Effective stall charged to the issuing thread per line that misses the
  // whole hierarchy, before queueing: dram_latency / mlp (out-of-order
  // overlap); the remote stall is dram_latency * remote_latency_factor / mlp,
  // for a line whose home controller sits on another package.
  double dram_stall_local_cycles = 0.0;
  double dram_stall_remote_cycles = 0.0;

  // Controller occupancy per line fetched or written back: max of the
  // streaming and random-access figures.  The planner's bandwidth ceiling
  // is (lines / controllers) * this.
  double line_occupancy_cycles = 0.0;

  // MemorySpec::home_package: >= 0 pins every transfer to one controller
  // (the single-home-heap JVM behaviour); -1 lets each package's controller
  // serve its own threads.
  int home_package = -1;
  double remote_latency_factor = 1.0;

  [[nodiscard]] double to_seconds(double cycles) const { return cycles / (ghz * 1e9); }
};

// The spec's cache levels in L1..Ln order (a spec may list them in any
// order); the Machine's hierarchy and the pricing both walk this order.
[[nodiscard]] inline std::vector<topo::CacheLevelSpec> levels_in_order(
    const topo::MachineSpec& spec) {
  std::vector<topo::CacheLevelSpec> levels = spec.caches;
  std::stable_sort(levels.begin(), levels.end(),
                   [](const auto& a, const auto& b) { return a.level < b.level; });
  return levels;
}

[[nodiscard]] inline MachinePricing make_pricing(const topo::MachineSpec& spec,
                                                 const CostParams& cost) {
  MachinePricing p;
  p.ghz = spec.ghz;
  p.packages = spec.packages;
  p.cores = spec.n_cores();
  p.pus = spec.n_pus();
  p.smt_per_core = spec.smt_per_core;
  for (const auto& c : levels_in_order(spec)) {
    p.levels.push_back({c.level, static_cast<double>(c.size_bytes), c.hit_latency_cycles});
    p.line_bytes = c.line_bytes;
  }
  const topo::MemorySpec& mem = spec.memory;
  p.dram_stall_local_cycles = mem.dram_latency_cycles / cost.mlp;
  p.dram_stall_remote_cycles = mem.dram_latency_cycles * mem.remote_latency_factor / cost.mlp;
  p.line_occupancy_cycles = std::max(
      static_cast<double>(p.line_bytes) / mem.bytes_per_cycle_per_controller,
      mem.random_line_occupancy_cycles);
  p.home_package = mem.home_package;
  p.remote_latency_factor = mem.remote_latency_factor;
  return p;
}

// Per-task acquisition cost a worker pays under `a` (machine.cpp's claim
// paths: private-queue pop, contended shared-queue pop, own-deque pop).
[[nodiscard]] inline double acquisition_cycles(Assignment a, const CostParams& cost) {
  switch (a) {
    case Assignment::Static: return cost.queue_uncontended_cycles;
    case Assignment::SharedQueue: return cost.queue_pop_cycles;
    case Assignment::WorkStealing: return cost.deque_pop_cycles;
  }
  return cost.queue_uncontended_cycles;
}

[[nodiscard]] inline const char* assignment_name(Assignment a) {
  switch (a) {
    case Assignment::Static: return "static";
    case Assignment::SharedQueue: return "queue";
    case Assignment::WorkStealing: return "steal";
  }
  return "unknown";
}

}  // namespace mwx::sim
