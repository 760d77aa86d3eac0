// Declarative description of a machine: packages, cores, SMT, cache
// hierarchy, and memory system.  This is the shared vocabulary between the
// topology tree (hwloc substitute), Table II reporting, and the discrete-
// event machine simulator, which instantiates its cache/memory models from a
// MachineSpec.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mwx::topo {

struct CacheLevelSpec {
  int level = 1;               // 1, 2, 3
  std::int64_t size_bytes = 0;
  int line_bytes = 64;
  int associativity = 8;
  int pus_per_instance = 1;    // sharing domain width in logical PUs
  double hit_latency_cycles = 4.0;
};

struct MemorySpec {
  std::int64_t total_bytes = 0;
  double dram_latency_cycles = 200.0;
  // Sustained bandwidth per memory controller (one per package), in bytes
  // per core-cycle.  E.g. ~12.8 GB/s at 2.66 GHz ≈ 4.8 B/cycle.
  double bytes_per_cycle_per_controller = 4.8;
  // Controller occupancy per line fetched with poor locality (row misses,
  // dependent pointer chases): random-access line throughput is far below
  // the streaming figure.  The effective occupancy of a transfer is
  // max(line_bytes / bytes_per_cycle, this).
  double random_line_occupancy_cycles = 40.0;
  // NUMA home node of the application's heap.  -1 models node-interleaved /
  // local memory (each package's controller serves its own threads).  A
  // package index means every DRAM transfer is served by that package's
  // controller, and threads on other packages additionally pay
  // remote_latency_factor on the DRAM latency — the single-home-heap
  // behaviour of a JVM started on one node.
  int home_package = -1;
  double remote_latency_factor = 1.7;
};

struct MachineSpec {
  std::string name;
  std::string processor;       // marketing name, for Table II
  int packages = 1;
  int cores_per_package = 1;
  int smt_per_core = 1;
  double ghz = 2.66;
  std::vector<CacheLevelSpec> caches;  // ordered L1..Ln
  MemorySpec memory;

  [[nodiscard]] int n_cores() const { return packages * cores_per_package; }
  [[nodiscard]] int n_pus() const { return n_cores() * smt_per_core; }

  // Logical PU numbering convention: PU id = core_id * smt_per_core + smt,
  // core_id = package * cores_per_package + core-in-package.  (This is the
  // "topology-major" order; the OS-visible interleaved numbering some
  // machines use is a presentation detail we do not model.)
  [[nodiscard]] int pu_to_core(int pu) const { return pu / smt_per_core; }
  [[nodiscard]] int pu_to_package(int pu) const { return pu_to_core(pu) / cores_per_package; }
  [[nodiscard]] int core_to_package(int core) const { return core / cores_per_package; }

  // The canonical pinning: thread t runs on the first PU of core
  // t mod n_cores(), filling cores in topology order.  The what-if planner's
  // capacity and remote-fraction models assume this placement, and pinned
  // validation runs use it.
  [[nodiscard]] int canonical_pu(int thread) const { return (thread % n_cores()) * smt_per_core; }

  // Index of the cache instance of `level` that services `pu`, or -1 when the
  // machine has no such level.
  [[nodiscard]] int cache_instance(int level, int pu) const {
    for (const auto& c : caches) {
      if (c.level == level) return pu / c.pus_per_instance;
    }
    return -1;
  }

  [[nodiscard]] const CacheLevelSpec* find_level(int level) const {
    for (const auto& c : caches) {
      if (c.level == level) return &c;
    }
    return nullptr;
  }
};

// The three reference machines of Table II.
MachineSpec core_i7_920();      // 1 socket x 4 cores x 2 SMT, 8 MB shared L3
MachineSpec xeon_e5450_2s();    // 2 sockets x 4 cores, 6 MB LLC per core pair
MachineSpec xeon_x7560_4s();    // 4 sockets x 8 cores x 2 SMT, 24 MB L3/socket

// All Table II presets in paper order.
std::vector<MachineSpec> table2_machines();

}  // namespace mwx::topo
