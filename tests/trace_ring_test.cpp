// TraceRing: lock-free recording, merge-at-read snapshots, wrap/drop
// accounting, the chrome://tracing exporter, and the wiring through the
// native engine and the simulated machine backend.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "md/engine.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/trace_ring.hpp"
#include "sim/machine.hpp"
#include "topo/machine_spec.hpp"
#include "workloads/workloads.hpp"

namespace mwx::perf {
namespace {

TEST(TraceRingTest, RecordsAndSnapshotsInTimeOrder) {
  TraceRing ring(2, 16);
  ring.record(0, TraceKind::Task, 4, 2.0, 3.0, 7);
  ring.record(1, TraceKind::Steal, 0, 0.5, 0.5, 0);
  ring.record(0, TraceKind::Phase, 1, 1.0, 4.0);

  const TraceSnapshot snap = ring.snapshot();
  ASSERT_EQ(snap.events.size(), 3u);
  EXPECT_EQ(snap.total_records, 3u);
  EXPECT_EQ(snap.dropped, 0u);
  // Merged order is by begin time, regardless of lane or record order.
  EXPECT_EQ(snap.events[0].event.kind, TraceKind::Steal);
  EXPECT_EQ(snap.events[0].lane, 1);
  EXPECT_EQ(snap.events[1].event.kind, TraceKind::Phase);
  EXPECT_EQ(snap.events[2].event.kind, TraceKind::Task);
  EXPECT_EQ(snap.events[2].event.tag, 4);
  EXPECT_EQ(snap.events[2].event.arg, 7);
  EXPECT_DOUBLE_EQ(snap.events[2].event.begin, 2.0);
  EXPECT_DOUBLE_EQ(snap.events[2].event.end, 3.0);
  EXPECT_EQ(snap.events[2].seq, 0u);  // first record on lane 0
  EXPECT_EQ(snap.events[1].seq, 1u);  // second record on lane 0
}

TEST(TraceRingTest, WrapKeepsNewestEventsAndCountsDropped) {
  TraceRing ring(1, 8);
  for (int i = 0; i < 20; ++i) {
    ring.record(0, TraceKind::Task, i, static_cast<double>(i), static_cast<double>(i) + 0.5);
  }
  const TraceSnapshot snap = ring.snapshot();
  EXPECT_EQ(snap.total_records, 20u);
  // The slot the writer would overwrite next is excluded, so a full lane
  // yields capacity - 1 events; everything older is counted as dropped.
  ASSERT_EQ(snap.events.size(), 7u);
  EXPECT_EQ(snap.dropped, 13u);
  for (std::size_t k = 0; k < snap.events.size(); ++k) {
    EXPECT_EQ(snap.events[k].event.tag, 13 + static_cast<int>(k));
  }
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  TraceRing ring(1, 9);
  EXPECT_EQ(ring.capacity_per_lane(), 16u);
  EXPECT_THROW(TraceRing(0), ContractError);
}

TEST(TraceRingTest, ClearResetsLanes) {
  TraceRing ring(2, 8);
  ring.record(0, TraceKind::Task, 0, 0.0, 1.0);
  ring.clear();
  EXPECT_EQ(ring.total_records(), 0u);
  EXPECT_TRUE(ring.snapshot().events.empty());
}

// The observer-effect contract: concurrent writers on distinct lanes plus a
// concurrent snapshotting reader, with no locks anywhere.  Under the tsan
// preset this validates that merge-at-read is race-free by construction.
TEST(TraceRingTest, ConcurrentWritersAndSnapshotsAreRaceFree) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  TraceRing ring(kWriters, 256);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        ring.record(w, TraceKind::Task, i, static_cast<double>(i),
                    static_cast<double>(i) + 1.0, w);
      }
    });
  }
  std::thread reader([&ring, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const TraceSnapshot snap = ring.snapshot();
      for (const auto& m : snap.events) {
        // Every surviving event must be fully-formed, never torn.
        ASSERT_GE(m.event.end, m.event.begin);
        ASSERT_EQ(m.event.arg, m.lane);
        ASSERT_EQ(m.event.tag, static_cast<int>(m.event.begin));
      }
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  const TraceSnapshot final_snap = ring.snapshot();
  EXPECT_EQ(final_snap.total_records,
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  // After writers quiesce nothing can be torn: kept + dropped == written.
  EXPECT_EQ(final_snap.events.size() + final_snap.dropped, final_snap.total_records);
}

TEST(TraceRingTest, ChromeExportEmitsCompleteEvents) {
  TraceRing ring(2, 8);
  ring.record(0, TraceKind::Phase, 4, 0.001, 0.002);
  ring.record(1, TraceKind::Steal, 0, 0.0015, 0.0015, 0);
  std::ostringstream os;
  write_chrome_trace(ring.snapshot(), os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"steal\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
}

TEST(TraceRingTest, NativeEngineEmitsPhaseBracketsAndTasks) {
  workloads::BenchmarkSpec spec = workloads::make_al1000();
  md::EngineConfig cfg = spec.engine;
  cfg.n_threads = 2;
  md::Engine engine(std::move(spec.system), cfg);
  parallel::FixedThreadPool pool({.n_threads = 2});
  TraceRing ring(3, 1 << 14);
  engine.attach_trace(&ring);
  engine.run_native(pool, 2);
  pool.shutdown();

  const TraceSnapshot snap = ring.snapshot();
  long long phases = 0, tasks = 0, force_tasks = 0;
  for (const auto& m : snap.events) {
    if (m.event.kind == TraceKind::Phase) {
      ++phases;
      EXPECT_EQ(m.lane, ring.external_lane());
    }
    if (m.event.kind == TraceKind::Task) {
      // A worker's lane, or the external lane for chains the caller ran.
      ++tasks;
      force_tasks += m.event.tag == md::kPhaseForces ? 1 : 0;
    }
  }
  // One predict-check opening the call, then forces and a fused integrate
  // phase per step, plus the overlap phase (CSR count + non-LJ forces) per
  // rebuild step, each bracketing at least one task per worker chain.
  EXPECT_EQ(phases, 1 + 2 * 2 + engine.rebuild_count());
  EXPECT_GT(tasks, phases);
  EXPECT_GT(force_tasks, 0);
}

TEST(TraceRingTest, SimulatedBackendEmitsComparableTrace) {
  workloads::BenchmarkSpec spec = workloads::make_al1000();
  md::EngineConfig cfg = spec.engine;
  cfg.n_threads = 2;
  md::Engine engine(std::move(spec.system), cfg);

  TraceRing ring(3, 1 << 14);
  sim::MachineConfig mc;
  mc.spec = topo::core_i7_920();
  mc.n_threads = 2;
  mc.trace = &ring;
  sim::Machine machine(mc);
  engine.run_simulated(machine, 2);

  const TraceSnapshot snap = ring.snapshot();
  long long phases = 0, tasks = 0, steps = 0;
  double last_step_end = 0.0;
  for (const auto& m : snap.events) {
    if (m.event.kind == TraceKind::Phase) ++phases;
    if (m.event.kind == TraceKind::Task) ++tasks;
    if (m.event.kind == TraceKind::Step) {
      ++steps;
      EXPECT_EQ(m.lane, ring.external_lane());
      EXPECT_GE(m.event.begin, last_step_end);
      last_step_end = m.event.end;
    }
  }
  EXPECT_EQ(steps, 2);
  // The native schedule (one predict-check, then forces and integrate per
  // step), plus three per rebuild step: the overlap phase (CSR count +
  // non-LJ forces) and the bin and prefix-scan phases the simulator times as
  // parallel work.
  EXPECT_EQ(phases, 1 + 2 * 2 + 3 * engine.rebuild_count());
  EXPECT_GT(tasks, 0);
  // Simulated timestamps line up with the machine clock.
  EXPECT_NEAR(last_step_end, machine.now_seconds(), 1e-12);
}

// The PR 9 parallel-rebuild pipeline added three phases (bin, prefix scan,
// Morton sort) per rebuild step, each bracketing one task per worker: a
// rebuild-heavy run now writes enough events per step to lap an undersized
// ring many times over.  Merge-at-read must degrade by *forgetting counted
// history* — never by corrupting survivors or losing the newest events.
TEST(TraceRingTest, RebuildPhasesLapSmallRingWithoutCorruption) {
  workloads::BenchmarkSpec spec = workloads::make_al1000();
  md::EngineConfig cfg = spec.engine;
  cfg.n_threads = 2;
  cfg.reorder_interval = 1;  // every rebuild runs bin + prefix + Morton sort
  md::Engine engine(std::move(spec.system), cfg);

  // 8 slots per lane vs ~10 phase/step events on the external lane alone:
  // every lane wraps every step.
  TraceRing ring(3, 8);
  sim::MachineConfig mc;
  mc.spec = topo::core_i7_920();
  mc.n_threads = 2;
  mc.trace = &ring;
  sim::Machine machine(mc);
  engine.run_simulated(machine, 8);
  ASSERT_GT(engine.rebuild_count(), 0);

  const TraceSnapshot snap = ring.snapshot();
  EXPECT_GT(snap.dropped, 0u);
  // Writers are quiescent, so the accounting must balance exactly.
  EXPECT_EQ(snap.events.size() + snap.dropped, snap.total_records);
  // Each lane keeps at most capacity - 1 survivors (the writer's next slot
  // is excluded).
  EXPECT_LE(snap.events.size(), 3u * (ring.capacity_per_lane() - 1));

  double newest_end = 0.0;
  for (const auto& m : snap.events) {
    // Survivors are fully-formed: valid kind, causal interval, known lane.
    EXPECT_LE(static_cast<int>(m.event.kind), static_cast<int>(TraceKind::Step));
    EXPECT_GE(m.event.end, m.event.begin);
    EXPECT_GE(m.event.begin, 0.0);
    EXPECT_LT(m.lane, 3);
    newest_end = std::max(newest_end, m.event.end);
  }
  // Lapping drops the *oldest* history: the newest event must still land at
  // the machine's final clock reading.
  EXPECT_NEAR(newest_end, machine.now_seconds(), 1e-12);
}

TEST(TraceRingTest, ChromeExportEmbedsPhaseNameTable) {
  TraceRing ring(1, 8);
  ring.record(0, TraceKind::Phase, 4, 0.001, 0.002);
  std::ostringstream os;
  write_chrome_trace(ring.snapshot(), os, {{4, "forces"}});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"phase_names\":{\"4\":\"forces\"}"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceRingTest, TracingLeavesEngineObservablesBitIdentical) {
  auto run = [](bool traced) {
    workloads::BenchmarkSpec spec = workloads::make_al1000();
    md::EngineConfig cfg = spec.engine;
    cfg.n_threads = 2;
    md::Engine engine(std::move(spec.system), cfg);
    parallel::FixedThreadPool pool({.n_threads = 2});
    TraceRing ring(3, 1 << 12);
    if (traced) engine.attach_trace(&ring);
    engine.run_native(pool, 3);
    pool.shutdown();
    return std::pair{engine.potential_energy(), engine.kinetic_energy()};
  };
  const auto [pe_plain, ke_plain] = run(false);
  const auto [pe_traced, ke_traced] = run(true);
  EXPECT_EQ(std::memcmp(&pe_plain, &pe_traced, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&ke_plain, &ke_traced, sizeof(double)), 0);
}

}  // namespace
}  // namespace mwx::perf
