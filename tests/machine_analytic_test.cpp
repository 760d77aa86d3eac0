// Analytical expectations for the machine model: configurations simple
// enough that the correct timing can be computed by hand, pinning down the
// simulator's arithmetic (not just its qualitative behaviour).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "md/engine.hpp"
#include "sim/cost_model.hpp"
#include "sim/machine.hpp"
#include "topo/machine_spec.hpp"
#include "workloads/workloads.hpp"

namespace mwx::sim {
namespace {

MachineConfig quiet(int threads) {
  MachineConfig c;
  c.spec = topo::core_i7_920();
  c.sched.noise_bursts_per_second = 0.0;
  c.n_threads = threads;
  return c;
}

// A quiet machine with no wake, pop or dispatch cost: a one-task phase's
// busy time is then exactly the sum of its access charges.
MachineConfig zero_overhead(topo::MachineSpec spec, int pu) {
  MachineConfig c;
  c.spec = std::move(spec);
  c.sched.noise_bursts_per_second = 0.0;
  c.cost.wake_latency_cycles = 0.0;
  c.cost.queue_uncontended_cycles = 0.0;
  c.cost.dispatch_cycles_per_task = 0.0;
  c.n_threads = 1;
  c.pin_masks = {topo::CpuSet::of({pu})};
  return c;
}

// Busy seconds of a phase whose only task reads one cold line.
double one_miss_busy_seconds(Machine& m) {
  PhaseWork w;
  w.tag = 1;
  w.accesses.push_back({0x1000, false});
  w.tasks.push_back({0, 0.0, 0, 1, 0});
  return m.run_phase(w).busy_seconds[0];
}

// One access that misses every level, priced in the Machine's summation
// order: each level's hit latency, then the DRAM stall.
double miss_cycles(const MachinePricing& p, double dram_stall_cycles) {
  double cycles = 0.0;
  for (const auto& l : p.levels) cycles += l.hit_latency_cycles;
  return cycles + dram_stall_cycles;
}

TEST(MachineAnalyticTest, PureComputePhaseDuration) {
  // One thread, one task of exactly C cycles: duration must be
  // wake + dispatch + pop + C + barrier, all known constants.
  MachineConfig c = quiet(1);
  Machine m(c);
  PhaseWork w;
  w.tag = 1;
  const double compute = 5e5;
  w.tasks.push_back({0, compute, 0, 0, 0});
  const auto r = m.run_phase(w);
  // Dispatch (60 cycles for one task) overlaps the worker's wake latency
  // (3000 cycles), so it does not appear in the critical path.
  const double expected_cycles = c.cost.wake_latency_cycles +
                                 c.cost.queue_uncontended_cycles + compute +
                                 c.cost.barrier_cycles;
  EXPECT_NEAR(r.duration_seconds() * c.spec.ghz * 1e9, expected_cycles,
              expected_cycles * 1e-9);
}

TEST(MachineAnalyticTest, CacheHitLatencyAccounting) {
  // Touch one line twice: first access pays L1+L2+L3 latency plus DRAM
  // stall; second pays exactly the L1 hit latency.
  MachineConfig c = quiet(1);
  Machine m(c);
  PhaseWork w;
  w.tag = 1;
  SimTask t;
  t.owner = 0;
  t.access_begin = 0;
  w.accesses.push_back({0x1000, false});
  w.accesses.push_back({0x1000, false});
  t.access_end = 2;
  w.tasks.push_back(t);
  const auto r = m.run_phase(w);
  const auto* l1 = c.spec.find_level(1);
  const auto* l2 = c.spec.find_level(2);
  const auto* l3 = c.spec.find_level(3);
  const double miss_cost = l1->hit_latency_cycles + l2->hit_latency_cycles +
                           l3->hit_latency_cycles +
                           c.spec.memory.dram_latency_cycles / c.cost.mlp;
  const double expected_busy = miss_cost + l1->hit_latency_cycles;
  EXPECT_NEAR(r.busy_seconds[0] * c.spec.ghz * 1e9, expected_busy, 1e-6);
  EXPECT_EQ(m.counters().l1.hits, 1);
  EXPECT_EQ(m.counters().l1.misses, 1);
  EXPECT_EQ(m.counters().dram_line_fetches, 1);
}

TEST(MachineAnalyticTest, MonitorSerializationExactLowerBound) {
  // N threads each doing U monitor updates with hold time H: the global
  // lock is held for exactly N*U*H cycles, so the phase cannot complete
  // faster than that.
  MachineConfig c = quiet(4);
  Machine m(c);
  PhaseWork w;
  w.tag = 1;
  const int updates = 200;
  for (int i = 0; i < 4; ++i) w.tasks.push_back({i, 0.0, 0, 0, updates});
  const auto r = m.run_phase(w);
  const double lock_cycles = 4.0 * updates * c.cost.monitor_lock_hold_cycles;
  EXPECT_GE(r.duration_seconds() * c.spec.ghz * 1e9, lock_cycles);
}

TEST(MachineAnalyticTest, ControllerSerializesConcurrentMisses) {
  // Two threads streaming disjoint regions: total DRAM occupancy is
  // (lines * occupancy); the phase cannot beat that bound.
  MachineConfig c = quiet(2);
  Machine m(c);
  PhaseWork w;
  w.tag = 1;
  const int lines = 4000;
  for (int t = 0; t < 2; ++t) {
    SimTask task;
    task.owner = t;
    task.access_begin = static_cast<std::uint32_t>(w.accesses.size());
    for (int k = 0; k < lines; ++k) {
      w.accesses.push_back({0x40000000ull * (t + 1) + 64ull * k, false});
    }
    task.access_end = static_cast<std::uint32_t>(w.accesses.size());
    w.tasks.push_back(task);
  }
  const auto r = m.run_phase(w);
  const double occupancy =
      2.0 * lines * std::max(64.0 / c.spec.memory.bytes_per_cycle_per_controller,
                             c.spec.memory.random_line_occupancy_cycles);
  EXPECT_GE(r.duration_seconds() * c.spec.ghz * 1e9, occupancy);
  EXPECT_EQ(m.counters().dram_line_fetches, 2 * lines);
}

TEST(MachineAnalyticTest, GcPausesExtendSimulatedTime) {
  // Same workload with and without Java temporaries: the churn variant must
  // accumulate GC pauses as extra serial time (and allocate temps at all).
  auto run = [&](md::TemporariesMode temps) {
    auto sys = workloads::make_lj_gas(150, 0.02, 200.0, 3);
    md::EngineConfig cfg;
    cfg.n_threads = 1;
    cfg.temporaries = temps;
    cfg.heap.heap_bytes = 1;  // minimum young region: frequent GCs
    md::Engine eng(std::move(sys), cfg);
    Machine m(quiet(1));
    eng.run_simulated(m, 40);
    return std::pair{m.now_seconds(), eng.heap().gc_count()};
  };
  const auto [t_churn, gcs] = run(md::TemporariesMode::JavaStyle);
  const auto [t_clean, gcs_clean] = run(md::TemporariesMode::InPlace);
  EXPECT_GT(gcs, 0);
  EXPECT_EQ(gcs_clean, 0);
  EXPECT_GT(t_churn, t_clean);
}

TEST(MachineAnalyticTest, RemoteAccessCostsMoreThanLocal) {
  // On the NUMA X7560 model, a thread pinned to the home socket streams a
  // region faster than one pinned to a remote socket.
  auto run = [&](int pu) {
    MachineConfig c;
    c.spec = topo::xeon_x7560_4s();
    c.sched.noise_bursts_per_second = 0.0;
    c.n_threads = 1;
    c.pin_masks = {topo::CpuSet::of({pu})};
    Machine m(c);
    PhaseWork w;
    w.tag = 1;
    SimTask t;
    t.owner = 0;
    t.access_begin = 0;
    for (int k = 0; k < 20000; ++k) w.accesses.push_back({0x10000000ull + 64ull * k, false});
    t.access_end = static_cast<std::uint32_t>(w.accesses.size());
    w.tasks.push_back(t);
    return m.run_phase(w).duration_seconds();
  };
  const double local = run(0);    // package 0 = heap home
  const double remote = run(32);  // package 2
  EXPECT_GT(remote, local * 1.1);
}

TEST(MachineAnalyticTest, PricingOrdersCacheLevelsListedOutOfOrder) {
  // A spec may list its caches in any order; the pricing must walk them
  // L1..Ln as the Machine does, with line_bytes taken from the last level.
  topo::MachineSpec ordered = topo::core_i7_920();
  ordered.caches.back().line_bytes = 128;
  topo::MachineSpec shuffled = ordered;
  std::reverse(shuffled.caches.begin(), shuffled.caches.end());
  const CostParams cost;
  const MachinePricing want = make_pricing(ordered, cost);
  const MachinePricing got = make_pricing(shuffled, cost);
  ASSERT_EQ(got.levels.size(), want.levels.size());
  for (std::size_t i = 0; i < got.levels.size(); ++i) {
    EXPECT_EQ(got.levels[i].level, static_cast<int>(i) + 1);
    EXPECT_EQ(got.levels[i].level, want.levels[i].level);
    EXPECT_EQ(got.levels[i].capacity_bytes, want.levels[i].capacity_bytes);
    EXPECT_EQ(got.levels[i].hit_latency_cycles, want.levels[i].hit_latency_cycles);
  }
  EXPECT_EQ(want.line_bytes, 128);
  EXPECT_EQ(got.line_bytes, want.line_bytes);
  EXPECT_EQ(got.line_occupancy_cycles, want.line_occupancy_cycles);

  // The Machine built from the shuffled spec charges a cold miss exactly
  // what the pricing says.
  Machine m(zero_overhead(shuffled, 0));
  EXPECT_EQ(one_miss_busy_seconds(m), m.to_seconds(miss_cycles(got, got.dram_stall_local_cycles)));
  EXPECT_EQ(m.counters().dram_line_fetches, 1);
  EXPECT_EQ(m.counters().dram_remote_fetches, 0);
}

TEST(MachineAnalyticTest, RemoteMissChargesThePricingsRemoteStall) {
  // X7560's heap lives on package 0; PU 32 sits on package 2, so its one
  // cold miss is a remote fetch, charged to the bit what the pricing lists.
  const topo::MachineSpec spec = topo::xeon_x7560_4s();
  ASSERT_EQ(spec.memory.home_package, 0);
  ASSERT_EQ(spec.pu_to_package(32), 2);
  Machine m(zero_overhead(spec, 32));
  const MachinePricing p = make_pricing(spec, m.config().cost);
  EXPECT_EQ(one_miss_busy_seconds(m), m.to_seconds(miss_cycles(p, p.dram_stall_remote_cycles)));
  EXPECT_EQ(m.counters().dram_remote_fetches, 1);
  EXPECT_GT(p.dram_stall_remote_cycles, p.dram_stall_local_cycles);
}

}  // namespace
}  // namespace mwx::sim
