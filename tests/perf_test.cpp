#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "perf/alloc_tracker.hpp"
#include "perf/event_log.hpp"
#include "perf/monitor.hpp"
#include "perf/sampling_profiler.hpp"
#include "perf/scoped_timer.hpp"

namespace mwx::perf {
namespace {

TEST(JamonMonitorTest, AggregatesPerKey) {
  JamonMonitor m;
  m.add("phase.1", 0.5);
  m.add("phase.1", 1.5);
  m.add("phase.2", 2.0);
  const auto snap = m.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].key, "phase.1");
  EXPECT_EQ(snap[0].hits, 2);
  EXPECT_DOUBLE_EQ(snap[0].total_seconds, 2.0);
  EXPECT_DOUBLE_EQ(snap[0].mean_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(snap[0].min_seconds, 0.5);
  EXPECT_DOUBLE_EQ(snap[0].max_seconds, 1.5);
  EXPECT_EQ(m.total_hits(), 3);
}

TEST(JamonMonitorTest, ThreadSafeUnderContention) {
  JamonMonitor m;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) m.add("hot", 0.001);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(m.total_hits(), 4000);
}

TEST(ShardedMonitorTest, MergesShardsOnSnapshot) {
  ShardedMonitor m(3);
  m.add(0, "k", 1.0);
  m.add(1, "k", 2.0);
  m.add(2, "k", 3.0);
  m.add(1, "other", 5.0);
  const auto snap = m.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].key, "k");
  EXPECT_EQ(snap[0].hits, 3);
  EXPECT_DOUBLE_EQ(snap[0].total_seconds, 6.0);
  EXPECT_DOUBLE_EQ(snap[0].min_seconds, 1.0);
  EXPECT_DOUBLE_EQ(snap[0].max_seconds, 3.0);
}

TEST(ShardedMonitorTest, MatchesJamonTotals) {
  JamonMonitor jamon;
  ShardedMonitor sharded(2);
  for (int i = 0; i < 50; ++i) {
    const double v = 0.01 * i;
    jamon.add("x", v);
    sharded.add(i % 2, "x", v);
  }
  const auto a = jamon.snapshot();
  const auto b = sharded.snapshot();
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].hits, b[0].hits);
  EXPECT_NEAR(a[0].total_seconds, b[0].total_seconds, 1e-12);
}

TEST(EventLogTest, RecordsAndSpans) {
  EventLog log(2);
  log.record(0, 1, 0.0, 1.0);
  log.record(0, 2, 2.0, 3.0);
  log.record(1, 1, 0.5, 2.5);
  EXPECT_EQ(log.total_events(), 3u);
  const auto [lo, hi] = log.span();
  EXPECT_DOUBLE_EQ(lo, 0.0);
  EXPECT_DOUBLE_EQ(hi, 3.0);
}

TEST(EventLogTest, BusyInWindow) {
  EventLog log(1);
  log.record(0, 1, 1.0, 3.0);
  EXPECT_DOUBLE_EQ(log.busy_in(0, 0.0, 4.0), 2.0);
  EXPECT_DOUBLE_EQ(log.busy_in(0, 2.0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(log.busy_in(0, 3.5, 4.0), 0.0);
}

TEST(EventLogTest, StateAtTime) {
  EventLog log(1);
  log.record(0, 7, 1.0, 2.0);
  log.record(0, 8, 3.0, 4.0);
  EXPECT_EQ(log.at(0, 0.5), nullptr);
  ASSERT_NE(log.at(0, 1.5), nullptr);
  EXPECT_EQ(log.at(0, 1.5)->tag, 7);
  EXPECT_EQ(log.at(0, 2.5), nullptr);
  ASSERT_NE(log.at(0, 3.0), nullptr);
  EXPECT_EQ(log.at(0, 3.0)->tag, 8);
  EXPECT_EQ(log.at(0, 4.0), nullptr);  // end is exclusive
}

TEST(EventLogTest, BusyPerThread) {
  EventLog log(3);
  log.record(0, 1, 0.0, 1.0);
  log.record(2, 1, 0.0, 4.0);
  const auto busy = log.busy_per_thread();
  ASSERT_EQ(busy.size(), 3u);
  EXPECT_DOUBLE_EQ(busy[0], 1.0);
  EXPECT_DOUBLE_EQ(busy[1], 0.0);
  EXPECT_DOUBLE_EQ(busy[2], 4.0);
}

TEST(EventLogTest, ClearResets) {
  EventLog log(1);
  log.record(0, 1, 0.0, 1.0);
  log.clear();
  EXPECT_EQ(log.total_events(), 0u);
}

// --- Sampling profiler: the Section IV-B granularity study in miniature ----

// Ground truth: thread 0 busy [0,10), thread 1 busy [0,5) — 2x imbalance.
EventLog make_imbalanced_log() {
  EventLog log(2);
  log.record(0, 1, 0.0, 10.0);
  log.record(1, 1, 0.0, 5.0);
  return log;
}

TEST(SamplingTest, FinePeriodRecoversTruth) {
  const EventLog log = make_imbalanced_log();
  const SamplingReport r = sample(log, 0.01);
  EXPECT_NEAR(r.threads[0].displayed_busy_seconds, 10.0, 0.1);
  EXPECT_NEAR(r.threads[1].displayed_busy_seconds, 5.0, 0.1);
  EXPECT_NEAR(r.displayed_imbalance(), r.true_imbalance(), 0.05);
}

TEST(SamplingTest, CoarsePeriodDistortsImbalance) {
  // Many short alternating tasks; a 1 s sampler cannot resolve them.
  EventLog log(2);
  // Thread 0: busy 80 µs every 200 µs;  thread 1: busy 120 µs every 200 µs.
  for (int k = 0; k < 5000; ++k) {
    const double t = k * 200e-6;
    log.record(0, 1, t, t + 80e-6);
    log.record(1, 1, t, t + 120e-6);
  }
  const SamplingReport fine = sample(log, 5e-6);
  const SamplingReport coarse = sample(log, 1.0);
  // Fine sampling sees the 1.2:0.8 imbalance; the 1 s sampler takes exactly
  // one sample over the whole 1 s run and reports garbage.
  EXPECT_NEAR(fine.true_imbalance(), 1.2, 0.01);
  EXPECT_NEAR(fine.displayed_imbalance(), 1.2, 0.05);
  EXPECT_LE(coarse.threads[0].samples_total, 2);
  EXPECT_GT(coarse.worst_relative_error(), 0.5);
}

TEST(SamplingTest, SamplePeriodValidation) {
  const EventLog log = make_imbalanced_log();
  EXPECT_THROW(sample(log, 0.0), ContractError);
  EXPECT_THROW(sample(log, 0.1, 0.2), ContractError);
}

TEST(SamplingTest, DisplayedBusySecondsClampToLogSpan) {
  // One thread busy for exactly [0, 1) sampled at 0.4 s: samples at 0, 0.4
  // and 0.8 are all busy.  Sample-and-hold used to credit a full period to
  // the final window (3 * 0.4 = 1.2 displayed busy seconds out of a 1.0 s
  // log); the last window must be clamped to the span.
  EventLog log(1);
  log.record(0, 1, 0.0, 1.0);
  const SamplingReport r = sample(log, 0.4);
  EXPECT_EQ(r.threads[0].samples_busy, 3);
  EXPECT_DOUBLE_EQ(r.threads[0].displayed_busy_seconds, 1.0);
  EXPECT_DOUBLE_EQ(r.threads[0].true_busy_seconds, 1.0);
}

TEST(SamplingTest, CountFalseWindowsValidatesOffset) {
  // sample() rejects offsets outside [0, period); count_false_windows used
  // to skip the check — an offset >= period silently skipped whole windows
  // and an offset below zero sampled before the log began.
  const EventLog log = make_imbalanced_log();
  EXPECT_THROW(count_false_windows(log, 0, 0.1, 0.5, 0.1), ContractError);
  EXPECT_THROW(count_false_windows(log, 0, 0.1, 0.5, -0.05), ContractError);
  EXPECT_NO_THROW(count_false_windows(log, 0, 0.1, 0.5, 0.05));
}

TEST(SamplingTest, FalseWindowsAppearAtCoarsePeriods) {
  // Thread busy only 10% of each 10 ms interval, right at the sample point:
  // sample-and-hold displays "busy" for windows that are 90% idle.
  EventLog log(1);
  for (int k = 0; k < 100; ++k) {
    const double t = k * 10e-3;
    log.record(0, 1, t, t + 1e-3);
  }
  const auto [t0, t1] = log.span();
  const long long false_coarse = count_false_windows(log, 0, 10e-3);
  const long long windows_coarse = static_cast<long long>((t1 - t0) / 10e-3);
  EXPECT_GT(false_coarse, windows_coarse / 2);
  // At a fine period false windows still occur (every busy/idle transition
  // clips one window — the artifact never fully disappears) but their
  // *fraction* collapses.
  const long long false_fine = count_false_windows(log, 0, 50e-6);
  const long long windows_fine = static_cast<long long>((t1 - t0) / 50e-6);
  EXPECT_LT(static_cast<double>(false_fine) / static_cast<double>(windows_fine), 0.05);
  EXPECT_GT(static_cast<double>(false_coarse) / static_cast<double>(windows_coarse),
            static_cast<double>(false_fine) / static_cast<double>(windows_fine));
}

TEST(AllocTrackerTest, CountsLiveAndTotal) {
  AllocationTracker t(2);
  const int vec3 = t.register_type("Vec3", 32);
  t.on_alloc(vec3, 0);
  t.on_alloc(vec3, 1);
  t.on_alloc(vec3, 1);
  t.on_free(vec3, 1);
  const auto r = t.report(vec3);
  EXPECT_EQ(r.live_count, 2);
  EXPECT_EQ(r.total_allocated, 3);
  EXPECT_EQ(r.live_bytes(), 64);
}

TEST(AllocTrackerTest, PerThreadAttribution) {
  AllocationTracker t(2);
  const int vec3 = t.register_type("Vec3", 32);
  t.on_alloc(vec3, 0);
  t.on_alloc(vec3, 1);
  t.on_alloc(vec3, 1);
  EXPECT_EQ(t.live_by_thread(vec3, 0), 1);
  EXPECT_EQ(t.live_by_thread(vec3, 1), 2);
}

TEST(AllocTrackerTest, GarbageCollectionZerosLive) {
  AllocationTracker t(1);
  const int vec3 = t.register_type("Vec3", 32);
  for (int i = 0; i < 10; ++i) t.on_alloc(vec3, 0);
  t.collect_garbage();
  EXPECT_EQ(t.report(vec3).live_count, 0);
  EXPECT_EQ(t.report(vec3).total_allocated, 10);
}

TEST(AllocTrackerTest, LiveBytesFraction) {
  AllocationTracker t(1);
  const int vec3 = t.register_type("Vec3", 32);
  const int atom = t.register_type("Atom", 160);
  for (int i = 0; i < 100; ++i) t.on_alloc(vec3, 0);  // 3200 bytes
  for (int i = 0; i < 10; ++i) t.on_alloc(atom, 0);   // 1600 bytes
  EXPECT_NEAR(t.live_bytes_fraction(vec3), 3200.0 / 4800.0, 1e-12);
  t.collect_garbage();
  EXPECT_DOUBLE_EQ(t.live_bytes_fraction(vec3), 0.0);
}

TEST(AllocTrackerTest, BulkAllocMatchesSingleCalls) {
  // The same history, once with single calls and once in bulk, including
  // frees and a collection between allocations so the peak is exercised.
  AllocationTracker single(2), bulk(2);
  const int s = single.register_type("Vec3", 32);
  const int b = bulk.register_type("Vec3", 32);
  const auto alloc = [&](int thread, int count) {
    for (int i = 0; i < count; ++i) single.on_alloc(s, thread);
    bulk.on_alloc(b, thread, count);
  };
  const auto release = [&](int thread, int count) {
    for (int i = 0; i < count; ++i) {
      single.on_free(s, thread);
      bulk.on_free(b, thread);
    }
  };
  alloc(0, 5);
  release(0, 2);
  alloc(0, 1);  // live 4, below the peak of 5
  alloc(1, 7);
  single.collect_garbage();
  bulk.collect_garbage();
  alloc(1, 3);
  alloc(1, 0);
  alloc(-1, 2);  // unknown thread: lane 0
  const auto rs = single.report(s);
  const auto rb = bulk.report(b);
  EXPECT_EQ(rb.live_count, rs.live_count);
  EXPECT_EQ(rb.total_allocated, rs.total_allocated);
  EXPECT_EQ(rb.peak_live_count, rs.peak_live_count);
  EXPECT_EQ(rb.total_allocated, 18);
  EXPECT_EQ(rb.peak_live_count, 12);
  for (int lane = 0; lane < 2; ++lane)
    EXPECT_EQ(bulk.live_by_thread(b, lane), single.live_by_thread(s, lane)) << "lane " << lane;
}

TEST(AllocTrackerTest, UnknownThreadMapsToLaneZero) {
  AllocationTracker t(2);
  const int id = t.register_type("X", 8);
  t.on_alloc(id, -1);
  EXPECT_EQ(t.live_by_thread(id, 0), 1);
}

TEST(ScopedTimerTest, ReportsElapsed) {
  double seen = -1.0;
  {
    ScopedTimer timer([&](double s) { seen = s; });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(seen, 0.001);
  EXPECT_LT(seen, 1.0);
}

TEST(StopWatchTest, MonotonicAndResets) {
  StopWatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const double a = w.elapsed_seconds();
  EXPECT_GT(a, 0.0);
  w.reset();
  EXPECT_LT(w.elapsed_seconds(), a);
}

}  // namespace
}  // namespace mwx::perf
