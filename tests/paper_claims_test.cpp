// Qualitative claims of the reproduction, asserted on the machine simulator
// at reduced size: ranks, signs and bitwise equalities only, never absolute
// times.
//
// LocalityClaims: §V-A data packing, Al-1000 on 4 threads of each Table II
// machine, run as bench/data_packing runs it (3 warmup steps, then measured
// steps).  Only orderings that hold at both 2 and 40 measured steps on all
// three machines are asserted; ms/step and DRAM orderings flip between the
// two and are not.
//
// QueueClaims: §II-B queue disciplines on the synthetic triangular phase of
// bench/work_stealing.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "md/engine.hpp"
#include "sim/machine.hpp"
#include "topo/machine_spec.hpp"
#include "workloads/workloads.hpp"

namespace mwx {
namespace topo {

// Names the machine in failure messages instead of dumping its bytes.
static void PrintTo(const MachineSpec& spec, std::ostream* os) { *os << spec.name; }

}  // namespace topo

namespace {

constexpr int kWarmupSteps = 3;
constexpr int kMeasuredSteps = 2;

struct Packing {
  md::Layout layout = md::Layout::JavaObjects;
  int reorder_interval = 0;         // Morton pass on every rebuild when 1
  bool reorder_on_rebuild = false;  // the attempted in-place object reorder
};

struct Measured {
  sim::MachineCounters counters;
  double seconds = 0.0;
};

Measured run_al1000(const topo::MachineSpec& spec, const Packing& packing) {
  workloads::BenchmarkSpec bench = workloads::make_benchmark("Al-1000");
  md::EngineConfig cfg = bench.engine;
  cfg.n_threads = 4;
  cfg.heap.layout = packing.layout;
  cfg.reorder_interval = packing.reorder_interval;
  cfg.reorder_on_rebuild = packing.reorder_on_rebuild;
  md::Engine engine(std::move(bench.system), cfg);

  sim::MachineConfig mc;
  mc.spec = spec;
  mc.n_threads = 4;
  sim::Machine machine(mc);
  engine.run_simulated(machine, kWarmupSteps);
  machine.reset_counters();
  const double t0 = machine.now_seconds();
  engine.run_simulated(machine, kMeasuredSteps);
  return {machine.counters(), machine.now_seconds() - t0};
}

// Every counter field plus the simulated time, as raw bits.
static_assert(sizeof(sim::MachineCounters) == 20 * sizeof(std::uint64_t),
              "bits() must list every MachineCounters field");
std::vector<std::uint64_t> bits(const Measured& m) {
  const sim::MachineCounters& c = m.counters;
  std::vector<std::uint64_t> out;
  for (const sim::CacheStats* s : {&c.l1, &c.l2, &c.l3}) {
    for (long long v : {s->hits, s->misses, s->dirty_evictions}) {
      out.push_back(static_cast<std::uint64_t>(v));
    }
  }
  for (long long v : {c.dram_line_fetches, c.dram_remote_fetches, c.dram_writebacks,
                      c.migrations, c.steals}) {
    out.push_back(static_cast<std::uint64_t>(v));
  }
  for (double v : {c.dram_queue_cycles, c.steal_overhead_cycles, c.noise_stall_cycles,
                   c.queue_wait_cycles, c.monitor_wait_cycles, c.barrier_wait_cycles,
                   m.seconds}) {
    out.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return out;
}

class LocalityClaims : public ::testing::TestWithParam<topo::MachineSpec> {};

// The paper's observation: asking the JVM to re-lay atom objects in
// cell-traversal order changes nothing, because the memory manager ignores
// the request.
TEST_P(LocalityClaims, AttemptedReorderLeavesJavaObjectsCountersBitwise) {
  const Measured baseline = run_al1000(GetParam(), {md::Layout::JavaObjects, 0, false});
  const Measured attempted = run_al1000(GetParam(), {md::Layout::JavaObjects, 0, true});
  EXPECT_EQ(bits(attempted), bits(baseline));
}

// With the Morton pass off, a cooperative memory manager has no new order to
// lay objects out in: its counters equal JavaObjects' bit for bit.  With the
// pass on they part, because JavaObjects' objects follow their permuted
// atoms but keep their creation addresses.  Under every layout, JavaObjects
// included, the pass's new traversal order raises the L2 miss rate — the
// reason EngineConfig::reorder_on_rebuild, not the Morton pass, models the
// paper's attempted reorder, which moved no miss rate.
TEST_P(LocalityClaims, SpatialPassRaisesL2MissUnderEveryLayout) {
  const md::Layout layouts[] = {md::Layout::JavaObjects, md::Layout::ReorderedObjects,
                                md::Layout::PackedSoA};
  std::vector<Measured> off, on;
  for (md::Layout layout : layouts) {
    off.push_back(run_al1000(GetParam(), {layout, 0, false}));
    on.push_back(run_al1000(GetParam(), {layout, 1, false}));
  }
  EXPECT_EQ(bits(off[1]), bits(off[0]));
  EXPECT_NE(bits(on[1]), bits(on[0]));
  for (std::size_t i = 0; i < std::size(layouts); ++i) {
    EXPECT_GT(on[i].counters.l2.miss_rate(), off[i].counters.l2.miss_rate())
        << md::to_string(layouts[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Table2, LocalityClaims, ::testing::ValuesIn(topo::table2_machines()),
                         [](const ::testing::TestParamInfo<topo::MachineSpec>& info) {
                           std::string name = info.param.name;  // test names take no '-'
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// One compute-only phase whose task costs fall linearly (task i of n costs
// ~(n - i)), in contiguous owner blocks: under Static the first thread holds
// almost all the work.  Returns the phase's simulated seconds.
double triangular_phase_seconds(sim::Assignment assignment, int n_threads, int n_tasks) {
  sim::MachineConfig mc;
  mc.spec = topo::xeon_x7560_4s();
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
  return machine.run_phase(work).duration_seconds();
}

// At 32 threads on the 4-socket Xeon the shared queue serializes every pop
// on one lock and the static split strands the triangle's heavy blocks;
// stealing touches only the victim.
TEST(QueueClaims, WorkStealingBeatsStaticAndSharedQueueAt32Threads) {
  const double stat = triangular_phase_seconds(sim::Assignment::Static, 32, 4096);
  const double shared = triangular_phase_seconds(sim::Assignment::SharedQueue, 32, 4096);
  const double stealing = triangular_phase_seconds(sim::Assignment::WorkStealing, 32, 4096);
  EXPECT_LE(stealing, stat);
  EXPECT_LE(stealing, shared);
}

}  // namespace
}  // namespace mwx
