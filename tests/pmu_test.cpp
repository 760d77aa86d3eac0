// Tests of the unified PMU layer: CounterSet/PmuReport vocabulary, the
// conservation table and the sim provider's per-core/per-phase attribution
// under it, the native perf_event/fallback provider, and the engine wiring
// (including the "counters must not perturb physics" guarantee and the lane
// checks against the pool actually used).
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "md/engine.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/native_pmu.hpp"
#include "perf/pmu.hpp"
#include "sim/machine.hpp"
#include "topo/machine_spec.hpp"
#include "workloads/workloads.hpp"

namespace mwx::perf {
namespace {

// --- CounterSet / PmuReport vocabulary ---------------------------------------

TEST(CounterSetTest, ArithmeticAndZeroCheck) {
  CounterSet a, b;
  EXPECT_TRUE(a.all_zero());
  a[Counter::kL1Misses] = 3.0;
  a[Counter::kCycles] = 10.0;
  b[Counter::kL1Misses] = 2.0;
  EXPECT_FALSE(a.all_zero());

  const CounterSet sum = a + b;
  EXPECT_DOUBLE_EQ(sum[Counter::kL1Misses], 5.0);
  EXPECT_DOUBLE_EQ(sum[Counter::kCycles], 10.0);

  const CounterSet delta = sum - a;
  EXPECT_DOUBLE_EQ(delta[Counter::kL1Misses], 2.0);
  EXPECT_DOUBLE_EQ(delta[Counter::kCycles], 0.0);
}

TEST(CounterSetTest, MissRate) {
  CounterSet c;
  EXPECT_DOUBLE_EQ(c.miss_rate(Counter::kL2Hits, Counter::kL2Misses), 0.0);
  c[Counter::kL2Hits] = 75.0;
  c[Counter::kL2Misses] = 25.0;
  EXPECT_DOUBLE_EQ(c.miss_rate(Counter::kL2Hits, Counter::kL2Misses), 0.25);
}

TEST(CounterSetTest, EveryCounterHasAStableName) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    EXPECT_STRNE(counter_name(static_cast<Counter>(i)), "unknown") << "counter " << i;
  }
}

TEST(ConservationTest, ViolationsNameExactlyTheBrokenCounters) {
  CounterSet total, domains;
  total[Counter::kL1Misses] = 100.0;
  total[Counter::kDramQueueCycles] = 1e12;
  domains = total;
  domains[Counter::kDramQueueCycles] += 1.0;  // association-order noise
  domains[Counter::kTasks] = 8.0;             // event-log counters have no
  domains[Counter::kBusyCycles] = 1e6;        // machine-global twin
  EXPECT_TRUE(conservation_violations(domains, total).empty());

  domains[Counter::kL1Misses] = 99.0;
  domains[Counter::kDramQueueCycles] = 0.5e12;
  domains[Counter::kDramRemoteFetches] = 1.0;
  EXPECT_EQ(conservation_violations(domains, total),
            (std::vector<Counter>{Counter::kL1Misses, Counter::kDramRemoteFetches,
                                  Counter::kDramQueueCycles}));
}

TEST(PmuReportTest, TotalsAcrossAxes) {
  PmuReport r;
  r.provider = "sim";
  r.lane_kind = "core";
  r.n_lanes = 2;
  r.at(1, 0)[Counter::kTasks] = 3.0;
  r.at(1, 1)[Counter::kTasks] = 5.0;
  r.at(4, 0)[Counter::kTasks] = 7.0;

  EXPECT_EQ(r.phases(), (std::vector<int>{1, 4}));
  EXPECT_DOUBLE_EQ(r.phase_total(1)[Counter::kTasks], 8.0);
  EXPECT_DOUBLE_EQ(r.phase_total(4)[Counter::kTasks], 7.0);
  EXPECT_DOUBLE_EQ(r.lane_total(0)[Counter::kTasks], 10.0);
  EXPECT_DOUBLE_EQ(r.lane_total(1)[Counter::kTasks], 5.0);
  EXPECT_DOUBLE_EQ(r.total()[Counter::kTasks], 15.0);

  EXPECT_NE(r.find(1, 0), nullptr);
  EXPECT_EQ(r.find(2, 0), nullptr);  // untouched phase
  EXPECT_EQ(r.find(1, 5), nullptr);  // lane out of range
  EXPECT_DOUBLE_EQ(r.phase_total(99)[Counter::kTasks], 0.0);
}

TEST(PmuReportTest, JsonCarriesIdentityAndConservationAggregate) {
  PmuReport r;
  r.provider = "sim";
  r.lane_kind = "core";
  r.n_lanes = 1;
  r.at(4, 0)[Counter::kL2Misses] = 42.0;
  CounterSet machine_total;
  machine_total[Counter::kL2Misses] = 42.0;

  std::ostringstream out;
  r.write_json(out, "unit", "abc123", &machine_total);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"kind\": \"pmu\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\": \"abc123\""), std::string::npos);
  EXPECT_NE(json.find("\"provider\": \"sim\""), std::string::npos);
  EXPECT_NE(json.find("\"lane_kind\": \"core\""), std::string::npos);
  EXPECT_NE(json.find("\"machine_total\""), std::string::npos);
  EXPECT_NE(json.find("\"l2_misses\": 42"), std::string::npos);
  // The conservation table rides next to machine_total, one rule per counter.
  const std::size_t table = json.find("\"conservation\"");
  ASSERT_NE(table, std::string::npos);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    const std::string rule = std::string("\"") + counter_name(c) + "\": \"" +
                             conservation_rule_name(conservation_rule(c)) + "\"";
    EXPECT_NE(json.find(rule, table), std::string::npos) << rule;
  }
  // Zero suppression: untouched counters stay out of the cells.
  EXPECT_EQ(json.substr(0, table).find("\"l1_misses\""), std::string::npos);

  // Without machine_total (the native provider) there is nothing to tile.
  std::ostringstream native;
  r.write_json(native, "unit", "abc123");
  EXPECT_EQ(native.str().find("\"conservation\""), std::string::npos);
}

TEST(PmuTest, BuildShaNeverEmpty) { EXPECT_STRNE(build_git_sha(), ""); }

}  // namespace
}  // namespace mwx::perf

namespace mwx::sim {
namespace {

MachineConfig machine_config(int n_threads, std::uint64_t seed = 1) {
  MachineConfig c;
  c.spec = topo::core_i7_920();
  c.sched.seed = seed;
  c.n_threads = n_threads;
  return c;
}

// A phase mixing compute, streaming accesses and (under the dynamic
// disciplines) steals — enough traffic to touch most counter fields.
PhaseWork busy_phase(int tag, int n_tasks, Assignment a) {
  PhaseWork w;
  w.tag = tag;
  w.assignment = a;
  for (int i = 0; i < n_tasks; ++i) {
    SimTask t;
    t.owner = i % 4;
    t.compute_cycles = 20000.0 * (1 + i % 3);
    t.access_begin = static_cast<std::uint32_t>(w.accesses.size());
    const std::uint64_t base = 0x1000000ull * static_cast<std::uint64_t>(i + 1);
    for (std::uint64_t off = 0; off < 16384; off += 64) {
      w.accesses.push_back({base + off, (off % 256) == 0});
    }
    t.access_end = static_cast<std::uint32_t>(w.accesses.size());
    w.tasks.push_back(t);
  }
  return w;
}

// The conservation law through its one check; names the broken counters.
void expect_conserved(const Machine& machine) {
  std::vector<std::string> broken;
  for (const perf::Counter c : machine.conservation_violations()) {
    broken.emplace_back(perf::counter_name(c));
  }
  EXPECT_EQ(broken, std::vector<std::string>{});
}

TEST(SimPmuTest, ConservationHoldsAcrossDisciplines) {
  for (const Assignment a :
       {Assignment::Static, Assignment::SharedQueue, Assignment::WorkStealing}) {
    MachineConfig c = machine_config(4);
    // Noisy scheduler: bursts, migrations and stalls must all stay conserved.
    c.sched.noise_bursts_per_second = 500.0;
    c.sched.noise_burst_seconds = 100e-6;
    Machine m(c);
    for (int rep = 0; rep < 3; ++rep) {
      m.run_phase(busy_phase(1, 16, a));
      m.run_phase(busy_phase(4, 32, a));
    }
    expect_conserved(m);
    SCOPED_TRACE(static_cast<int>(a));
    EXPECT_GT(m.counters().l1.accesses(), 0);
  }
}

TEST(SimPmuTest, ConservationHoldsWithMonitorContention) {
  Machine m(machine_config(4));
  PhaseWork w = busy_phase(1, 16, Assignment::SharedQueue);
  for (auto& t : w.tasks) t.monitor_updates = 8;
  m.run_phase(w);
  EXPECT_GT(m.counters().monitor_wait_cycles, 0.0);
  expect_conserved(m);
}

// Remote fetches exist only on a multi-package model: the X7560 with every
// line homed on package 0 and one worker pinned to each package's first PU.
TEST(SimPmuTest, ConservationHoldsForRemoteFetchesAcrossPackages) {
  MachineConfig c = machine_config(4);
  c.spec = topo::xeon_x7560_4s();
  c.spec.memory.home_package = 0;
  ASSERT_EQ(c.spec.packages, 4);
  for (int pkg = 0; pkg < c.spec.packages; ++pkg) {
    for (int pu = 0; pu < c.spec.n_pus(); ++pu) {
      if (c.spec.pu_to_package(pu) == pkg) {
        c.pin_masks.push_back(topo::CpuSet::of({pu}));
        break;
      }
    }
  }
  ASSERT_EQ(c.pin_masks.size(), 4u);
  Machine m(c);
  for (int rep = 0; rep < 2; ++rep) {
    m.run_phase(busy_phase(1, 16, Assignment::Static));
    m.run_phase(busy_phase(4, 32, Assignment::WorkStealing));
  }
  const MachineCounters& g = m.counters();
  EXPECT_GT(g.dram_remote_fetches, 0);
  EXPECT_LT(g.dram_remote_fetches, g.dram_line_fetches);  // package 0 is local
  expect_conserved(m);
}

TEST(SimPmuTest, PerPhaseAttribution) {
  Machine m(machine_config(2));
  m.run_phase(busy_phase(3, 8, Assignment::Static));
  m.run_phase(busy_phase(7, 8, Assignment::Static));

  EXPECT_EQ(m.counter_phases(), (std::vector<int>{3, 7}));
  const MachineCounters p3 = m.phase_counters(3);
  const MachineCounters p7 = m.phase_counters(7);
  EXPECT_GT(p3.l1.accesses(), 0);
  EXPECT_GT(p7.l1.accesses(), 0);
  // An unknown tag reads as all-zero, not as an error.
  EXPECT_EQ(m.phase_counters(42).l1.accesses(), 0);
  EXPECT_EQ(m.phase_core_counters(42, 0).l1.accesses(), 0);
}

TEST(SimPmuTest, PerCoreAttributionFollowsPinning) {
  MachineConfig c = machine_config(2);
  c.sched.stay_probability = 1.0;
  // Pin thread 0 to core 0's first PU and thread 1 to core 2's first PU.
  const int pu_core0 = 0;
  const int pu_core2 = [&] {
    for (int pu = 0; pu < c.spec.n_pus(); ++pu) {
      if (c.spec.pu_to_core(pu) == 2) return pu;
    }
    return -1;
  }();
  ASSERT_GE(pu_core2, 0);
  c.pin_masks = {topo::CpuSet::of({pu_core0}), topo::CpuSet::of({pu_core2})};
  Machine m(c);
  m.run_phase(busy_phase(1, 2, Assignment::Static));

  EXPECT_GT(m.phase_core_counters(1, 0).l1.accesses(), 0);
  EXPECT_GT(m.phase_core_counters(1, 2).l1.accesses(), 0);
  EXPECT_EQ(m.phase_core_counters(1, 1).l1.accesses(), 0);
  EXPECT_EQ(m.phase_core_counters(1, 3).l1.accesses(), 0);
  EXPECT_EQ(m.phase_core_counters(1, 0).migrations +
                m.phase_core_counters(1, 2).migrations,
            m.counters().migrations);
}

// Satellite: reset_counters() must clear every per-instance CacheStats and
// the attribution domains — two identical reps from a reset must snapshot
// identically (the cache contents carry over, but the third rep sees the
// same steady state the second did).
TEST(SimPmuTest, ResetRegressionTwoIdenticalReps) {
  MachineConfig c = machine_config(1);
  c.sched.stay_probability = 1.0;
  c.pin_masks = {topo::CpuSet::of({0})};
  Machine m(c);

  const auto rep = [&m] { m.run_phase(busy_phase(2, 4, Assignment::Static)); };
  rep();  // warm the caches to steady state

  m.reset_counters();
  EXPECT_TRUE(m.counter_phases().empty());
  rep();
  const MachineCounters s1 = m.counters();
  const MachineCounters d1 = m.phase_counters(2);

  m.reset_counters();
  rep();
  const MachineCounters s2 = m.counters();
  const MachineCounters d2 = m.phase_counters(2);

  // Any stale per-instance CacheStats (or stale domain cell) would break
  // this equality.
  const auto expect_identical = [](const MachineCounters& a, const MachineCounters& b) {
    EXPECT_EQ(a.l1.hits, b.l1.hits);
    EXPECT_EQ(a.l1.misses, b.l1.misses);
    EXPECT_EQ(a.l1.dirty_evictions, b.l1.dirty_evictions);
    EXPECT_EQ(a.l2.hits, b.l2.hits);
    EXPECT_EQ(a.l2.misses, b.l2.misses);
    EXPECT_EQ(a.l3.hits, b.l3.hits);
    EXPECT_EQ(a.l3.misses, b.l3.misses);
    EXPECT_EQ(a.dram_line_fetches, b.dram_line_fetches);
    EXPECT_EQ(a.dram_writebacks, b.dram_writebacks);
    EXPECT_EQ(a.migrations, b.migrations);
  };
  expect_identical(s1, s2);
  expect_identical(d1, d2);
}

TEST(SimPmuTest, PmuReportMirrorsDomainsAndEventLog) {
  Machine m(machine_config(2));
  m.run_phase(busy_phase(4, 8, Assignment::Static));
  const perf::PmuReport r = m.pmu_report();

  EXPECT_EQ(r.provider, "sim");
  EXPECT_EQ(r.lane_kind, "core");
  EXPECT_EQ(r.n_lanes, m.config().spec.n_cores());
  EXPECT_EQ(r.phases(), (std::vector<int>{4}));
  const perf::CounterSet total = r.total();
  EXPECT_DOUBLE_EQ(total[perf::Counter::kL1Misses],
                   static_cast<double>(m.counters().l1.misses));
  // record_events is on by default: 8 tasks ran, each attributed to a core.
  EXPECT_DOUBLE_EQ(total[perf::Counter::kTasks], 8.0);
  EXPECT_GT(total[perf::Counter::kBusyCycles], 0.0);
}

TEST(SimPmuTest, ToCounterSetMapsLastLevelToGenericPair) {
  MachineCounters m;
  m.l3.hits = 30;
  m.l3.misses = 10;
  const perf::CounterSet c = to_counter_set(m);
  EXPECT_DOUBLE_EQ(c[perf::Counter::kCacheReferences], 40.0);
  EXPECT_DOUBLE_EQ(c[perf::Counter::kCacheMisses], 10.0);
}

}  // namespace
}  // namespace mwx::sim

namespace mwx::perf {
namespace {

// --- Native provider ---------------------------------------------------------

TEST(ThreadPmuTest, ReadsAreMonotonicAndLabelled) {
  ThreadPmu& pmu = ThreadPmu::calling_thread();
  const CounterSet a = pmu.read();
  // Burn some CPU so every live counter advances.
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + static_cast<double>(i) * 1e-9;
  const CounterSet b = pmu.read();

  EXPECT_GT(b[Counter::kCpuNanos], a[Counter::kCpuNanos]);
  if (pmu.hardware()) {
    EXPECT_GT(b[Counter::kCycles], a[Counter::kCycles]);
  } else {
    EXPECT_DOUBLE_EQ(b[Counter::kCycles], 0.0);
  }
}

TEST(PmuAccumulatorTest, ValidatesConstruction) {
  EXPECT_THROW(PmuAccumulator(0), ContractError);
  EXPECT_THROW(PmuAccumulator(-2), ContractError);
}

TEST(PmuAccumulatorTest, AttributesToWorkerAndPhase) {
  PmuAccumulator acc(2);
  acc.task_begin();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  acc.task_end(/*worker=*/1, /*phase_tag=*/4, /*tasks=*/3.0);

  const PmuReport r = acc.report();
  EXPECT_EQ(r.lane_kind, "worker");
  EXPECT_EQ(r.n_lanes, 2);
  EXPECT_EQ(r.phases(), (std::vector<int>{4}));
  ASSERT_NE(r.find(4, 1), nullptr);
  EXPECT_DOUBLE_EQ((*r.find(4, 1))[Counter::kTasks], 3.0);
  EXPECT_GT((*r.find(4, 1))[Counter::kBusyCycles], 0.0);
  EXPECT_TRUE(r.find(4, 0) == nullptr || r.find(4, 0)->all_zero());

  // The provider label is honest either way, never empty or mixed.
  EXPECT_TRUE(acc.provider() == "perf_event" || acc.provider() == "fallback");
  EXPECT_EQ(r.provider, acc.provider());

  acc.reset();
  EXPECT_TRUE(acc.report().phases().empty());
  EXPECT_EQ(acc.provider(), "fallback");  // nothing ran since reset
}

TEST(PmuAccumulatorTest, OutOfRangePhaseTagsFoldIntoLastSlot) {
  PmuAccumulator acc(1);
  acc.task_begin();
  acc.task_end(0, PmuAccumulator::kMaxPhaseTag + 7);
  acc.task_begin();
  acc.task_end(0, -3);
  const auto phases = acc.report().phases();
  EXPECT_EQ(phases, (std::vector<int>{0, PmuAccumulator::kMaxPhaseTag - 1}));
  EXPECT_THROW(acc.task_end(5, 0), ContractError);
}

}  // namespace
}  // namespace mwx::perf

namespace mwx::md {
namespace {

EngineConfig engine_config(int threads) {
  EngineConfig cfg;
  cfg.n_threads = threads;
  cfg.dt_fs = 1.0;
  cfg.cutoff = 7.0;
  cfg.skin = 1.0;
  return cfg;
}

// The acceptance criterion: attaching the PMU must not change a single bit
// of the physics — counter reads happen strictly outside run_task().
TEST(EnginePmuTest, EnergiesBitIdenticalWithAndWithoutCounters) {
  const auto run = [](perf::PmuAccumulator* acc) {
    auto sys = workloads::make_lj_gas(150, 0.012, 120.0, 17);
    Engine eng(std::move(sys), engine_config(4));
    if (acc != nullptr) eng.attach_pmu(acc);
    parallel::FixedThreadPool pool(
        {.n_threads = 4, .queue_mode = parallel::QueueMode::WorkStealing});
    eng.run_native(pool, 15);
    return std::pair{eng.potential_energy(), eng.kinetic_energy()};
  };

  const auto [pe_plain, ke_plain] = run(nullptr);
  perf::PmuAccumulator acc(4);
  const auto [pe_counted, ke_counted] = run(&acc);

  EXPECT_EQ(pe_plain, pe_counted);  // bit-identical, not just close
  EXPECT_EQ(ke_plain, ke_counted);

  // And the counters actually attributed work to the engine's phase tags.
  const perf::PmuReport r = acc.report();
  const auto phases = r.phases();
  for (const int tag : {kPhasePredictCheck, kPhaseForces, kPhaseReduceCorrectPredict,
                        kPhaseReduceCorrect}) {
    EXPECT_NE(std::find(phases.begin(), phases.end(), tag), phases.end())
        << "phase " << tag << " missing from native report";
  }
  EXPECT_GT(r.phase_total(kPhaseForces)[perf::Counter::kTasks], 0.0);
  EXPECT_GT(r.total()[perf::Counter::kCpuNanos], 0.0);
}

// The lane check lives in run_native(), against the pool actually used:
// a 2-lane accumulator on a 4-worker pool is rejected there.
TEST(EnginePmuTest, RejectsUndersizedAccumulator) {
  auto sys = workloads::make_lj_gas(50, 0.01, 100.0, 1);
  Engine eng(std::move(sys), engine_config(4));
  perf::PmuAccumulator narrow(2);
  eng.attach_pmu(&narrow);
  parallel::FixedThreadPool pool({.n_threads = 4});
  EXPECT_THROW(eng.run_native(pool, 1), ContractError);
  eng.attach_pmu(nullptr);  // detaching is always fine
  eng.run_native(pool, 1);
}

// Instrumentation is written into lanes of the pool's workers (plus the
// external lane), never into lanes named by config.n_threads.  A 4-thread
// engine on a 2-worker pool therefore needs a 3-lane ring and a 2-lane
// accumulator, and must accept them; the same attachments on a 4-worker
// pool are rejected before any step runs.
TEST(EngineLanesTest, InstrumentationSizedForPoolNotForEngineThreads) {
  const auto run = [](perf::TraceRing* ring, perf::PmuAccumulator* acc, int pool_workers) {
    Engine eng(workloads::make_lj_gas(150, 0.012, 120.0, 17), engine_config(4));
    eng.attach_trace(ring);
    eng.attach_pmu(acc);
    parallel::FixedThreadPool pool(
        {.n_threads = pool_workers, .queue_mode = parallel::QueueMode::PerThread});
    eng.run_native(pool, 8);
    return std::pair{eng.potential_energy(), eng.kinetic_energy()};
  };

  const auto [pe_plain, ke_plain] = run(nullptr, nullptr, 2);
  perf::TraceRing ring(3, 1 << 12);
  perf::PmuAccumulator acc(2);
  std::pair<double, double> counted{};
  ASSERT_NO_THROW(counted = run(&ring, &acc, 2));
  EXPECT_EQ(std::memcmp(&pe_plain, &counted.first, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&ke_plain, &counted.second, sizeof(double)), 0);

  const perf::TraceSnapshot snap = ring.snapshot();
  long long tasks = 0;
  for (const auto& m : snap.events) {
    if (m.event.kind == perf::TraceKind::Task) {
      ++tasks;
      EXPECT_LT(m.lane, 2);
    }
  }
  EXPECT_GT(tasks, 0);
  EXPECT_GT(acc.report().phase_total(kPhaseForces)[perf::Counter::kTasks], 0.0);

  perf::TraceRing narrow_ring(3, 1 << 12);
  perf::PmuAccumulator narrow_acc(2);
  EXPECT_THROW(run(&narrow_ring, nullptr, 4), ContractError);
  EXPECT_THROW(run(nullptr, &narrow_acc, 4), ContractError);
  EXPECT_EQ(narrow_ring.total_records(), 0u);
}

}  // namespace
}  // namespace mwx::md
