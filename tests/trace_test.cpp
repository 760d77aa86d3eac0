// Tests of the trace capture layer: the access streams TraceMem emits, the
// task bracketing, layout-dependent addresses, and the traced-backend
// property sweep (traced == inline physics across thread counts, chunk
// granularities and layouts).
#include <gtest/gtest.h>

#include <set>

#include "md/engine.hpp"
#include "md/layout.hpp"
#include "md/mem_model.hpp"
#include "sim/machine.hpp"
#include "topo/machine_spec.hpp"
#include "workloads/workloads.hpp"

namespace mwx::md {
namespace {

TEST(TraceMemTest, TaskBracketingRecordsRanges) {
  HeapModel heap({}, 4);
  sim::PhaseWork phase;
  CostTable costs;
  TraceMem mem(costs, heap, phase, TemporariesMode::InPlace);
  mem.open_task(2, /*monitor_updates=*/3);
  mem.read_pos(0);
  mem.write_force(1);
  mem.compute(100.0);
  mem.close_task();
  mem.open_task(0);
  mem.read_vel(3);
  mem.close_task();

  ASSERT_EQ(phase.tasks.size(), 2u);
  EXPECT_EQ(phase.tasks[0].owner, 2);
  EXPECT_EQ(phase.tasks[0].monitor_updates, 3);
  EXPECT_EQ(phase.tasks[0].access_begin, 0u);
  EXPECT_EQ(phase.tasks[0].access_end, 2u);
  EXPECT_DOUBLE_EQ(phase.tasks[0].compute_cycles, 100.0);
  EXPECT_EQ(phase.tasks[1].access_begin, 2u);
  EXPECT_EQ(phase.tasks[1].access_end, 3u);
  ASSERT_EQ(phase.accesses.size(), 3u);
  EXPECT_EQ(phase.accesses[0].addr, heap.pos_addr(0));
  EXPECT_FALSE(phase.accesses[0].write);
  EXPECT_EQ(phase.accesses[1].addr, heap.force_addr(1));
  EXPECT_TRUE(phase.accesses[1].write);
  EXPECT_EQ(phase.accesses[2].addr, heap.vel_addr(3));
}

TEST(TraceMemTest, TempsOnlyInJavaStyle) {
  HeapModel heap_a({}, 4);
  sim::PhaseWork phase_a;
  CostTable costs;
  TraceMem java(costs, heap_a, phase_a, TemporariesMode::JavaStyle);
  java.open_task(0);
  java.temps(5);
  java.close_task();
  EXPECT_EQ(phase_a.accesses.size(), 5u);
  EXPECT_EQ(heap_a.temp_allocations(), 5);
  // Temp allocation cost is charged as compute.
  EXPECT_DOUBLE_EQ(phase_a.tasks[0].compute_cycles, 5 * costs.temp_alloc_cycles);

  HeapModel heap_b({}, 4);
  sim::PhaseWork phase_b;
  TraceMem inplace(costs, heap_b, phase_b, TemporariesMode::InPlace);
  inplace.open_task(0);
  inplace.temps(5);
  inplace.close_task();
  EXPECT_EQ(phase_b.accesses.size(), 0u);
  EXPECT_EQ(heap_b.temp_allocations(), 0);
}

TEST(TraceMemTest, LayoutsProduceDifferentAddressStreams) {
  CostTable costs;
  auto addresses_for = [&](Layout layout) {
    HeapModel heap({.layout = layout}, 8);
    sim::PhaseWork phase;
    TraceMem mem(costs, heap, phase, TemporariesMode::InPlace);
    mem.open_task(0);
    for (int i = 0; i < 8; ++i) mem.read_pos(i);
    mem.close_task();
    std::vector<std::uint64_t> addrs;
    for (const auto& a : phase.accesses) addrs.push_back(a.addr);
    return addrs;
  };
  const auto java = addresses_for(Layout::JavaObjects);
  const auto soa = addresses_for(Layout::PackedSoA);
  ASSERT_EQ(java.size(), soa.size());
  EXPECT_NE(java, soa);
  // SoA positions are 24 bytes apart; JavaObjects are an object cluster apart.
  EXPECT_EQ(soa[1] - soa[0], 24u);
  EXPECT_EQ(java[1] - java[0], 64u + 4u * 32u);
}

TEST(TraceMemTest, AllocationTrackerSeesTemps) {
  HeapModel heap({}, 4);
  sim::PhaseWork phase;
  CostTable costs;
  perf::AllocationTracker tracker(2);
  const int vec3 = tracker.register_type("Vec3", 32);
  TraceMem mem(costs, heap, phase, TemporariesMode::JavaStyle, &tracker, vec3);
  mem.open_task(1);
  mem.temps(4);
  mem.close_task();
  EXPECT_EQ(tracker.report(vec3).total_allocated, 4);
  EXPECT_EQ(tracker.live_by_thread(vec3, 1), 4);  // attributed to the owner
}

// --- Traced-vs-inline property sweep ----------------------------------------

struct SweepParam {
  int threads;
  int chunks;
  Layout layout;
  sim::Assignment assignment;
};

class BackendSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(BackendSweep, TracedPhysicsEqualsInline) {
  const SweepParam p = GetParam();

  auto make = [&](int threads) {
    auto sys = workloads::make_lj_gas(120, 0.012, 140.0, 31);
    EngineConfig cfg;
    cfg.n_threads = threads;
    cfg.chunks_per_thread = p.chunks;
    cfg.assignment = p.assignment;
    cfg.heap.layout = p.layout;
    cfg.dt_fs = 1.0;
    return Engine(std::move(sys), cfg);
  };

  // Same decomposition for both backends: chunk boundaries fix the FP
  // summation order, so inline and traced must agree bitwise.
  Engine reference = make(p.threads);
  reference.run_inline(8);

  Engine traced = make(p.threads);
  sim::MachineConfig mc;
  mc.spec = topo::core_i7_920();
  mc.sched.noise_bursts_per_second = 0.0;
  mc.n_threads = p.threads;
  sim::Machine machine(mc);
  traced.run_simulated(machine, 8);

  for (int i = 0; i < reference.system().n_atoms(); ++i) {
    ASSERT_EQ(reference.system().positions()[static_cast<std::size_t>(i)],
              traced.system().positions()[static_cast<std::size_t>(i)])
        << "atom " << i << " differs (threads=" << p.threads << " chunks=" << p.chunks
        << ")";
  }
  EXPECT_EQ(reference.total_energy(), traced.total_energy());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BackendSweep,
    ::testing::Values(SweepParam{1, 1, Layout::JavaObjects, sim::Assignment::Static},
                      SweepParam{2, 1, Layout::JavaObjects, sim::Assignment::Static},
                      SweepParam{4, 1, Layout::PackedSoA, sim::Assignment::Static},
                      SweepParam{4, 4, Layout::JavaObjects, sim::Assignment::Static},
                      SweepParam{3, 2, Layout::ReorderedObjects, sim::Assignment::Static},
                      SweepParam{4, 2, Layout::JavaObjects, sim::Assignment::SharedQueue},
                      SweepParam{8, 1, Layout::JavaObjects, sim::Assignment::Static}));

TEST(TracedMachineTest, MonitorUpdatesReachTheMachine) {
  auto sys = workloads::make_lj_gas(60, 0.012, 140.0, 3);
  EngineConfig cfg;
  cfg.n_threads = 4;
  cfg.monitor_updates_per_task = 20;
  Engine eng(std::move(sys), cfg);
  sim::MachineConfig mc;
  mc.spec = topo::core_i7_920();
  mc.n_threads = 4;
  sim::Machine machine(mc);
  eng.run_simulated(machine, 3);
  EXPECT_GT(machine.counters().monitor_wait_cycles, 0.0);
}

TEST(TracedMachineTest, ReorderOnRebuildRunsWithoutChangingPhysics) {
  auto run_with = [&](bool reorder) {
    auto sys = workloads::make_lj_gas(100, 0.012, 200.0, 5);
    EngineConfig cfg;
    cfg.n_threads = 2;
    cfg.heap.layout = Layout::ReorderedObjects;
    cfg.reorder_on_rebuild = reorder;
    Engine eng(std::move(sys), cfg);
    sim::MachineConfig mc;
    mc.spec = topo::core_i7_920();
    mc.sched.noise_bursts_per_second = 0.0;
    mc.n_threads = 2;
    sim::Machine machine(mc);
    eng.run_simulated(machine, 10);
    return eng.total_energy();
  };
  EXPECT_EQ(run_with(false), run_with(true));
}

TEST(TracedMachineTest, EventLogTagsMatchPhases) {
  auto sys = workloads::make_lj_gas(60, 0.012, 140.0, 3);
  EngineConfig cfg;
  cfg.n_threads = 2;
  Engine eng(std::move(sys), cfg);
  sim::MachineConfig mc;
  mc.spec = topo::core_i7_920();
  mc.n_threads = 2;
  sim::Machine machine(mc);
  eng.run_simulated(machine, 2);
  std::set<int> tags;
  for (int t = 0; t < 2; ++t) {
    for (const auto& e : machine.event_log().events_of(t)) tags.insert(e.tag);
  }
  // A two-step call: predict-check opens it, the first step's integrate
  // phase predicts the second, and reduce-correct closes it.
  EXPECT_TRUE(tags.count(kPhasePredictCheck));
  EXPECT_TRUE(tags.count(kPhaseForces));
  EXPECT_TRUE(tags.count(kPhaseReduceCorrectPredict));
  EXPECT_TRUE(tags.count(kPhaseReduceCorrect));
}

}  // namespace
}  // namespace mwx::md
