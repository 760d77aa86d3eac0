// Integration tests of the full timestep engine: conservation laws, backend
// equivalence (inline / native threads / traced+simulated), neighbor-list
// lifecycle, and instrumentation hooks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/units.hpp"
#include "md/engine.hpp"
#include "md/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "rebuild_oracle.hpp"
#include "sim/machine.hpp"
#include "topo/machine_spec.hpp"
#include "workloads/workloads.hpp"

namespace mwx::md {
namespace {

EngineConfig base_config(int threads = 1) {
  EngineConfig cfg;
  cfg.n_threads = threads;
  cfg.dt_fs = 1.0;
  cfg.cutoff = 7.0;
  cfg.skin = 1.0;
  cfg.temporaries = TemporariesMode::InPlace;
  return cfg;
}

sim::Machine make_machine(int threads) {
  sim::MachineConfig mc;
  mc.spec = topo::core_i7_920();
  mc.sched.noise_bursts_per_second = 0.0;
  mc.n_threads = threads;
  return sim::Machine(mc);
}

TEST(EngineTest, EnergyConservedLjGas) {
  auto sys = workloads::make_lj_gas(125, 0.012, 120.0, 3);
  EngineConfig cfg = base_config();
  cfg.dt_fs = 2.0;
  Engine eng(std::move(sys), cfg);
  eng.run_inline(1);
  const double e0 = eng.total_energy();
  eng.run_inline(400);
  const double e1 = eng.total_energy();
  const double scale = std::max(std::fabs(e0), eng.kinetic_energy());
  EXPECT_LT(std::fabs(e1 - e0) / scale, 0.02)
      << "e0=" << units::to_ev(e0) << " eV, e1=" << units::to_ev(e1) << " eV";
}

TEST(EngineTest, EnergyConservedBondedChain) {
  auto sys = workloads::make_chain(24, 5);
  EngineConfig cfg = base_config();
  cfg.dt_fs = 0.5;
  Engine eng(std::move(sys), cfg);
  eng.run_inline(1);
  const double e0 = eng.total_energy();
  eng.run_inline(800);
  const double e1 = eng.total_energy();
  const double scale = std::max(std::fabs(e0), eng.kinetic_energy());
  EXPECT_LT(std::fabs(e1 - e0) / scale, 0.02);
}

class DtSweep : public ::testing::TestWithParam<double> {};

TEST_P(DtSweep, DriftShrinksWithTimestep) {
  auto sys = workloads::make_lj_gas(64, 0.010, 100.0, 9);
  EngineConfig cfg = base_config();
  cfg.dt_fs = GetParam();
  Engine eng(std::move(sys), cfg);
  const int steps = static_cast<int>(200.0 / GetParam());
  eng.run_inline(1);
  const double e0 = eng.total_energy();
  eng.run_inline(steps);
  const double drift = std::fabs(eng.total_energy() - e0) /
                       std::max(std::fabs(e0), eng.kinetic_energy());
  // Velocity Verlet: drift must stay small for all sane timesteps.
  EXPECT_LT(drift, 0.05) << "dt=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Timesteps, DtSweep, ::testing::Values(0.5, 1.0, 2.0));

TEST(EngineTest, MomentumConservedWithoutWallContact) {
  // A compact warm cluster in a huge box: no wall reflections for a while.
  auto sys = workloads::make_lj_gas(64, 0.008, 60.0, 4);
  Engine eng(std::move(sys), base_config());
  // Zero net momentum initially (subtract drift).
  Vec3 p0 = eng.system().total_momentum();
  const int n = eng.system().n_atoms();
  for (int i = 0; i < n; ++i) {
    eng.system().velocities()[static_cast<std::size_t>(i)] -=
        p0 / (eng.system().mass(i) * n);
  }
  eng.run_inline(100);
  const Vec3 p1 = eng.system().total_momentum();
  EXPECT_NEAR(p1.norm(), 0.0, 1e-9);
}

TEST(EngineTest, ImmovableAtomsStayPut) {
  auto spec = workloads::make_nanocar(17);
  Engine eng(std::move(spec.system), [&] {
    auto c = spec.engine;
    c.n_threads = 1;
    c.temporaries = TemporariesMode::InPlace;
    return c;
  }());
  std::vector<Vec3> before;
  for (int i = 0; i < eng.system().n_atoms(); ++i) {
    if (!eng.system().movable(i)) before.push_back(eng.system().positions()[i]);
  }
  eng.run_inline(25);
  std::size_t k = 0;
  for (int i = 0; i < eng.system().n_atoms(); ++i) {
    if (!eng.system().movable(i)) {
      EXPECT_EQ(eng.system().positions()[static_cast<std::size_t>(i)], before[k++]);
    }
  }
}

TEST(EngineTest, AtomsStayInsideBox) {
  auto spec = workloads::make_al1000(3);
  auto cfg = spec.engine;
  cfg.n_threads = 1;
  cfg.temporaries = TemporariesMode::InPlace;
  Engine eng(std::move(spec.system), cfg);
  eng.run_inline(120);
  const Box& box = eng.system().box();
  for (const Vec3& p : eng.system().positions()) {
    EXPECT_GE(p.x, box.lo.x);
    EXPECT_LE(p.x, box.hi.x);
    EXPECT_GE(p.y, box.lo.y);
    EXPECT_LE(p.y, box.hi.y);
    EXPECT_GE(p.z, box.lo.z);
    EXPECT_LE(p.z, box.hi.z);
  }
}

TEST(EngineTest, NeighborListRebuildsWhenAtomsMove) {
  auto spec = workloads::make_al1000(3);
  auto cfg = spec.engine;
  cfg.n_threads = 1;
  cfg.temporaries = TemporariesMode::InPlace;
  Engine eng(std::move(spec.system), cfg);
  eng.run_inline(1);
  EXPECT_EQ(eng.rebuild_count(), 1);  // first step always builds
  eng.run_inline(100);
  // The projectile forces frequent updates (the Al-1000 signature).
  EXPECT_GT(eng.rebuild_count(), 5);
}

TEST(EngineTest, StaticLjLatticeRarelyRebuilds) {
  // A cold lattice barely moves: after the initial build, few rebuilds.
  auto sys = workloads::make_lj_gas(125, 0.010, 5.0, 6);
  Engine eng(std::move(sys), base_config());
  eng.run_inline(100);
  EXPECT_LE(eng.rebuild_count(), 3);
}

// --- Backend equivalence ------------------------------------------------------

TEST(EngineTest, NativeMatchesInlineBitwise) {
  // Static assignment with per-thread queues: every FP operation happens in
  // the same buffer in the same order as inline execution.
  auto make = [] {
    auto sys = workloads::make_lj_gas(200, 0.011, 150.0, 8);
    EngineConfig cfg = base_config(4);
    return Engine(std::move(sys), cfg);
  };
  Engine inline_eng = make();
  inline_eng.run_inline(30);

  Engine native_eng = make();
  parallel::FixedThreadPool pool(
      {.n_threads = 4, .queue_mode = parallel::QueueMode::PerThread});
  native_eng.run_native(pool, 30);

  for (int i = 0; i < inline_eng.system().n_atoms(); ++i) {
    EXPECT_EQ(inline_eng.system().positions()[static_cast<std::size_t>(i)],
              native_eng.system().positions()[static_cast<std::size_t>(i)])
        << "atom " << i;
  }
  EXPECT_EQ(inline_eng.total_energy(), native_eng.total_energy());
}

TEST(EngineTest, SharedQueueNativeMatchesWithinTolerance) {
  auto make = [] {
    auto sys = workloads::make_lj_gas(200, 0.011, 150.0, 8);
    EngineConfig cfg = base_config(4);
    cfg.assignment = sim::Assignment::SharedQueue;
    return Engine(std::move(sys), cfg);
  };
  Engine inline_eng = make();
  inline_eng.run_inline(20);
  Engine native_eng = make();
  parallel::FixedThreadPool pool({.n_threads = 4});
  native_eng.run_native(pool, 20);
  EXPECT_NEAR(units::to_ev(inline_eng.total_energy()),
              units::to_ev(native_eng.total_energy()), 1e-6);
}

TEST(EngineTest, AllQueueModesMatchInlineBitwise) {
  // The strong determinism claim: with accumulation slots, every queue
  // discipline — including work stealing, where chunk-to-worker placement
  // changes run to run — reproduces the inline trajectory bit for bit.
  // Salt exercises LJ + Coulomb together; chunks_per_thread > 1 gives more
  // slots than workers so chains genuinely migrate.
  auto make = [] {
    auto spec = workloads::make_salt(4);
    auto cfg = spec.engine;
    cfg.n_threads = 4;
    cfg.chunks_per_thread = 2;
    cfg.assignment = sim::Assignment::WorkStealing;
    cfg.temporaries = TemporariesMode::InPlace;
    return Engine(std::move(spec.system), cfg);
  };
  Engine inline_eng = make();
  inline_eng.run_inline(12);

  for (const auto mode : {parallel::QueueMode::Single, parallel::QueueMode::PerThread,
                          parallel::QueueMode::WorkStealing}) {
    Engine native_eng = make();
    parallel::FixedThreadPool pool({.n_threads = 4, .queue_mode = mode});
    native_eng.run_native(pool, 12);
    EXPECT_EQ(inline_eng.total_energy(), native_eng.total_energy())
        << "queue mode " << static_cast<int>(mode);
    for (int i = 0; i < inline_eng.system().n_atoms(); ++i) {
      ASSERT_EQ(inline_eng.system().positions()[static_cast<std::size_t>(i)],
                native_eng.system().positions()[static_cast<std::size_t>(i)])
          << "atom " << i << " queue mode " << static_cast<int>(mode);
    }
  }
}

TEST(EngineTest, SparseReductionMatchesDenseBitwise) {
  // Untouched entries are exactly +0.0 and adding +0.0 is a bitwise no-op,
  // so skipping untouched (slot, block) pairs must not change one bit of
  // the paper's dense sweep.  Contiguous Coulomb chunks (the work-stealing
  // decomposition) leave the upper slots' low blocks untouched.
  constexpr int kSlots = 8;
  MolecularSystem sparse_sys = workloads::make_salt(4).system;
  MolecularSystem dense_sys = workloads::make_salt(4).system;
  const int n = sparse_sys.n_atoms();
  auto scatter = [](const MolecularSystem& sys, ForceBuffers& buf) {
    const CostTable costs;
    PackedCharges packed;
    packed.pack(sys);
    NullMem mem;
    for (int c = 0; c < kSlots; ++c) {
      coulomb_chunk(sys, costs, packed, buf, c, sys.n_charged() * c / kSlots,
                    sys.n_charged() * (c + 1) / kSlots, 1, mem);
    }
  };
  ForceBuffers sparse_buf(kSlots, n), dense_buf(kSlots, n);
  scatter(sparse_sys, sparse_buf);
  scatter(dense_sys, dense_buf);
  ASSERT_LT(sparse_buf.touched_blocks(kSlots - 1), sparse_buf.n_blocks())
      << "no (slot, block) pair was left to skip";

  const CostTable costs;
  NullMem mem;
  for (int c = 0; c < kSlots; ++c) {
    reduce_chunk_sparse(sparse_sys, costs, sparse_buf, n * c / kSlots, n * (c + 1) / kSlots,
                        mem);
  }
  oracle::reduce_dense(dense_sys, dense_buf, 0, n);
  for (int i = 0; i < n; ++i) {
    const Vec3& a = sparse_sys.accelerations()[static_cast<std::size_t>(i)];
    const Vec3& b = dense_sys.accelerations()[static_cast<std::size_t>(i)];
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(Vec3)), 0) << "atom " << i;
    for (int w = 0; w < kSlots; ++w) {
      const Vec3 zero{};
      ASSERT_EQ(std::memcmp(&sparse_buf.force_raw(w, i), &zero, sizeof(Vec3)), 0)
          << "slot " << w << " atom " << i << " not zeroed";
    }
  }
}

TEST(EngineTest, WorkStealingAssignmentSimulates) {
  // The simulated backend's deque model must run the same physics and
  // account every task (busy time > 0, steal counters consistent).
  auto spec = workloads::make_salt(4);
  auto cfg = spec.engine;
  cfg.n_threads = 4;
  cfg.chunks_per_thread = 2;
  cfg.assignment = sim::Assignment::WorkStealing;
  cfg.temporaries = TemporariesMode::InPlace;
  Engine inline_eng = [&] {
    auto s2 = workloads::make_salt(4);
    return Engine(std::move(s2.system), cfg);
  }();
  inline_eng.run_inline(8);

  Engine traced(std::move(spec.system), cfg);
  sim::Machine machine = make_machine(4);
  traced.run_simulated(machine, 8);

  EXPECT_EQ(inline_eng.total_energy(), traced.total_energy());
  EXPECT_GT(machine.now_seconds(), 0.0);
  EXPECT_GE(machine.counters().steals, 0);
  if (machine.counters().steals > 0) {
    EXPECT_GT(machine.counters().steal_overhead_cycles, 0.0);
  }
}

TEST(EngineTest, TracedMatchesInlineBitwise) {
  auto make = [](TemporariesMode temps) {
    auto sys = workloads::make_lj_gas(150, 0.011, 150.0, 12);
    EngineConfig cfg = base_config(4);
    cfg.temporaries = temps;
    return Engine(std::move(sys), cfg);
  };
  Engine inline_eng = make(TemporariesMode::InPlace);
  inline_eng.run_inline(15);

  Engine traced = make(TemporariesMode::JavaStyle);
  sim::Machine machine = make_machine(4);
  traced.run_simulated(machine, 15);

  for (int i = 0; i < inline_eng.system().n_atoms(); ++i) {
    EXPECT_EQ(inline_eng.system().positions()[static_cast<std::size_t>(i)],
              traced.system().positions()[static_cast<std::size_t>(i)]);
  }
  EXPECT_GT(machine.now_seconds(), 0.0);
}

TEST(EngineTest, LayoutDoesNotChangePhysics) {
  auto run_with = [](Layout layout) {
    auto sys = workloads::make_lj_gas(100, 0.011, 150.0, 2);
    EngineConfig cfg = base_config(2);
    cfg.heap.layout = layout;
    Engine eng(std::move(sys), cfg);
    sim::Machine machine = make_machine(2);
    eng.run_simulated(machine, 10);
    return eng.total_energy();
  };
  const double a = run_with(Layout::JavaObjects);
  const double b = run_with(Layout::PackedSoA);
  const double c = run_with(Layout::ReorderedObjects);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(EngineTest, ChunkCountDoesNotChangeTraceRuntimeMuch) {
  // More chunks = finer tasks, same total work.
  auto run_with = [](int chunks) {
    auto sys = workloads::make_lj_gas(100, 0.011, 150.0, 2);
    EngineConfig cfg = base_config(2);
    cfg.chunks_per_thread = chunks;
    Engine eng(std::move(sys), cfg);
    sim::Machine machine = make_machine(2);
    eng.run_simulated(machine, 10);
    return machine.now_seconds();
  };
  const double coarse = run_with(1);
  const double fine = run_with(4);
  EXPECT_NEAR(coarse, fine, coarse * 0.25);
}

TEST(EngineTest, PoolSizeMismatchAcceptedNatively) {
  // The re-entrancy contract: run_native takes a pool of ANY size (shared
  // pools are the point) and the energy bits depend only on config.n_threads.
  auto sys = workloads::make_lj_gas(50, 0.01, 100.0, 1);
  Engine matched(sys, base_config(2));
  parallel::FixedThreadPool dedicated({.n_threads = 2});
  matched.run_native(dedicated, 3);

  Engine eng(sys, base_config(2));
  parallel::FixedThreadPool pool({.n_threads = 3});
  eng.run_native(pool, 3);
  EXPECT_EQ(eng.potential_energy(), matched.potential_energy());
  EXPECT_EQ(eng.kinetic_energy(), matched.kinetic_energy());

  // The simulated path still models a machine of exactly n_threads cores.
  sim::Machine machine = make_machine(4);
  EXPECT_THROW(eng.run_simulated(machine, 1), ContractError);
}

TEST(EngineTest, SimulatedTimeAdvancesMonotonically) {
  auto spec = workloads::make_salt(5);
  auto cfg = spec.engine;
  cfg.n_threads = 2;
  Engine eng(std::move(spec.system), cfg);
  sim::Machine machine = make_machine(2);
  double prev = 0.0;
  for (int s = 0; s < 5; ++s) {
    eng.run_simulated(machine, 1);
    EXPECT_GT(machine.now_seconds(), prev);
    prev = machine.now_seconds();
  }
}

TEST(EngineTest, JavaTemporariesTrackedAndCollected) {
  auto sys = workloads::make_lj_gas(100, 0.011, 150.0, 2);
  EngineConfig cfg = base_config(1);
  cfg.temporaries = TemporariesMode::JavaStyle;
  cfg.heap.heap_bytes = 1;  // clamps to the minimum young region: forces GCs
  Engine eng(std::move(sys), cfg);
  sim::Machine machine = make_machine(1);
  eng.run_simulated(machine, 120);
  EXPECT_GT(eng.heap().temp_allocations(), 1000);
  EXPECT_GT(eng.heap().gc_count(), 0);
  // The temporary Vec3 class dominates total allocations (Section V-B).
  const auto report = eng.tracker().report(eng.temp_vec3_type());
  EXPECT_GT(report.total_allocated, 1000);
}

TEST(EngineTest, InPlaceModeAllocatesNoTemporaries) {
  auto sys = workloads::make_lj_gas(100, 0.011, 150.0, 2);
  EngineConfig cfg = base_config(1);
  cfg.temporaries = TemporariesMode::InPlace;
  Engine eng(std::move(sys), cfg);
  sim::Machine machine = make_machine(1);
  eng.run_simulated(machine, 10);
  EXPECT_EQ(eng.heap().temp_allocations(), 0);
}

TEST(EngineTest, NativeEventLogCapturesPhases) {
  auto sys = workloads::make_lj_gas(100, 0.011, 150.0, 2);
  Engine eng(std::move(sys), base_config(2));
  perf::EventLog log(2);
  eng.attach_event_log(&log);
  parallel::FixedThreadPool pool(
      {.n_threads = 2, .queue_mode = parallel::QueueMode::PerThread});
  eng.run_native(pool, 3);
  EXPECT_GE(log.total_events(), 3u * 5u);  // >= phases x steps
  bool saw_forces = false;
  for (int t = 0; t < 2; ++t) {
    for (const auto& e : log.events_of(t)) {
      if (e.tag == kPhaseForces) saw_forces = true;
    }
  }
  EXPECT_TRUE(saw_forces);
}

TEST(EngineTest, NativeMonitorCollectsPhaseTimings) {
  auto sys = workloads::make_lj_gas(100, 0.011, 150.0, 2);
  Engine eng(std::move(sys), base_config(1));
  perf::JamonMonitor monitor;
  eng.attach_monitor(&monitor);
  eng.run_inline(0);  // attach is independent of backend
  parallel::FixedThreadPool pool({.n_threads = 1});
  eng.run_native(pool, 2);
  EXPECT_GT(monitor.total_hits(), 0);
}

TEST(EngineTest, ValidatesConfiguration) {
  auto sys = workloads::make_lj_gas(10, 0.01, 100.0, 1);
  EngineConfig cfg = base_config(0);
  EXPECT_THROW(Engine(std::move(sys), cfg), ContractError);
  auto sys2 = workloads::make_lj_gas(10, 0.01, 100.0, 1);
  EngineConfig cfg2 = base_config(1);
  cfg2.dt_fs = 0.0;
  EXPECT_THROW(Engine(std::move(sys2), cfg2), ContractError);
}

}  // namespace
}  // namespace mwx::md
