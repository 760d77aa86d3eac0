#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "parallel/affinity.hpp"
#include "parallel/barrier.hpp"
#include "parallel/chunked.hpp"
#include "parallel/latch.hpp"
#include "parallel/task_queue.hpp"
#include "parallel/thread_pool.hpp"

namespace mwx::parallel {
namespace {

TEST(LatchTest, CountsDownToZero) {
  CountDownLatch latch(3);
  EXPECT_EQ(latch.count(), 3);
  latch.count_down();
  latch.count_down();
  EXPECT_EQ(latch.count(), 1);
  latch.count_down();
  EXPECT_EQ(latch.count(), 0);
  latch.await();  // returns immediately at zero
}

TEST(LatchTest, ZeroLatchAwaitsImmediately) {
  CountDownLatch latch(0);
  latch.await();
}

TEST(LatchTest, BelowZeroThrows) {
  CountDownLatch latch(1);
  latch.count_down();
  EXPECT_THROW(latch.count_down(), ContractError);
}

TEST(LatchTest, NegativeCountRejected) { EXPECT_THROW(CountDownLatch{-1}, ContractError); }

TEST(LatchTest, CrossThreadRelease) {
  CountDownLatch latch(2);
  std::atomic<int> done{0};
  std::thread t1([&] {
    ++done;
    latch.count_down();
  });
  std::thread t2([&] {
    ++done;
    latch.count_down();
  });
  latch.await();
  EXPECT_EQ(done.load(), 2);
  t1.join();
  t2.join();
}

TEST(BarrierTest, SinglePartyPassesThrough) {
  CyclicBarrier b(1);
  EXPECT_EQ(b.arrive_and_wait(), 0);
  EXPECT_EQ(b.generation(), 1u);
  EXPECT_EQ(b.arrive_and_wait(), 0);
  EXPECT_EQ(b.generation(), 2u);
}

TEST(BarrierTest, InvalidPartiesRejected) { EXPECT_THROW(CyclicBarrier{0}, ContractError); }

TEST(BarrierTest, ReleasesAllParties) {
  constexpr int kThreads = 4;
  CyclicBarrier barrier(kThreads);
  std::atomic<int> before{0}, after{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      ++before;
      barrier.arrive_and_wait();
      ++after;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(before.load(), kThreads);
  EXPECT_EQ(after.load(), kThreads);
  EXPECT_EQ(barrier.generation(), 1u);
}

TEST(BarrierTest, OnTripRunsOncePerGeneration) {
  constexpr int kThreads = 3;
  constexpr int kRounds = 5;
  std::atomic<int> trips{0};
  CyclicBarrier barrier(kThreads, [&] { ++trips; });
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) barrier.arrive_and_wait();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(trips.load(), kRounds);
  EXPECT_EQ(barrier.generation(), static_cast<std::uint64_t>(kRounds));
}

TEST(BarrierTest, ReusableAcrossManyGenerations) {
  CyclicBarrier barrier(2);
  std::thread partner([&] {
    for (int r = 0; r < 100; ++r) barrier.arrive_and_wait();
  });
  for (int r = 0; r < 100; ++r) barrier.arrive_and_wait();
  partner.join();
  EXPECT_EQ(barrier.generation(), 100u);
}

TEST(TaskQueueTest, FifoOrder) {
  TaskQueue q;
  std::vector<int> order;
  q.push([&] { order.push_back(1); });
  q.push([&] { order.push_back(2); });
  q.push([&] { order.push_back(3); });
  EXPECT_EQ(q.size(), 3u);
  while (auto t = q.try_pop()) (*t)();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TaskQueueTest, CloseDrainsThenSignals) {
  TaskQueue q;
  q.push([] {});
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push([] {}));  // rejected after close
  EXPECT_TRUE(q.pop().has_value());   // pending task still drains
  EXPECT_FALSE(q.pop().has_value());  // then empty-closed
}

TEST(TaskQueueTest, PopBlocksUntilPush) {
  TaskQueue q;
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    auto t = q.pop();
    got = t.has_value();
  });
  q.push([] {});
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(TaskQueueTest, MpmcStress) {
  TaskQueue q;
  constexpr int kProducers = 4, kPerProducer = 500;
  std::atomic<int> executed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) q.push([&] { ++executed; });
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto t = q.pop()) (*t)();
    });
  }
  for (auto& t : threads) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(executed.load(), kProducers * kPerProducer);
}

TEST(ThreadPoolTest, RejectsZeroThreads) {
  EXPECT_THROW(FixedThreadPool({.n_threads = 0}), ContractError);
}

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  FixedThreadPool pool({.n_threads = 3});
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.quiesce();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, PerThreadQueuesRouteToOwner) {
  FixedThreadPool pool({.n_threads = 4, .queue_mode = QueueMode::PerThread});
  std::atomic<int> wrong{0};
  CountDownLatch latch(4);
  for (int w = 0; w < 4; ++w) {
    pool.submit_to(w, [&, w] {
      if (FixedThreadPool::current_worker() != w) ++wrong;
      latch.count_down();
    });
  }
  latch.await();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ThreadPoolTest, CurrentWorkerOutsidePoolIsMinusOne) {
  EXPECT_EQ(FixedThreadPool::current_worker(), -1);
}

// --- for_chunks: the chunked fan-out of the rebuild pipeline ---------------

TEST(ForChunks, CoversEveryIndexExactlyOnce) {
  FixedThreadPool pool({.n_threads = 4, .queue_mode = QueueMode::WorkStealing});
  for (const long long n : {0LL, 1LL, 3LL, 1003LL}) {
    for (const int chunks : {1, 3, 8}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      std::atomic<int> calls{0};
      for_chunks(&pool, chunks, n, [&](int c, long long begin, long long end) {
        EXPECT_EQ(begin, n * c / std::min<long long>(chunks, n));
        for (long long i = begin; i < end; ++i) ++hits[static_cast<std::size_t>(i)];
        ++calls;
      });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "n=" << n << " chunks=" << chunks;
      // Never more chunks than items, and none at all for an empty range.
      EXPECT_EQ(calls.load(), static_cast<int>(std::min<long long>(chunks, n)));
    }
  }
}

TEST(ForChunks, ChunkGoesToWorkerChunkModuloPoolWidth) {
  // PerThread queues run a task on the worker it was submitted to, so the
  // executing worker is the placement for_chunks chose.
  FixedThreadPool pool({.n_threads = 3, .queue_mode = QueueMode::PerThread});
  std::vector<int> worker_of_chunk(8, -2);
  for_chunks(&pool, 8, 800, [&](int c, long long, long long) {
    worker_of_chunk[static_cast<std::size_t>(c)] = FixedThreadPool::current_worker();
  });
  for (int c = 0; c < 8; ++c) EXPECT_EQ(worker_of_chunk[static_cast<std::size_t>(c)], c % 3);
}

TEST(ForChunks, NullPoolRunsInlineInChunkOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  long long covered = 0;
  for_chunks(nullptr, 3, 10, [&](int c, long long begin, long long end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(FixedThreadPool::current_worker(), -1);
    EXPECT_EQ(begin, covered);
    covered = end;
    order.push_back(c);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(covered, 10);
}

TEST(ForChunks, ThrowingChunkSurfacesAsContractErrorWithItsMessage) {
  FixedThreadPool pool({.n_threads = 2});
  std::atomic<int> ran{0};
  try {
    for_chunks(&pool, 4, 100, [&](int c, long long, long long) {
      ++ran;
      if (c == 2) throw std::runtime_error("chunk two broke");
    });
    FAIL() << "a throwing chunk must not be swallowed";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("chunk two broke"), std::string::npos) << e.what();
  }
  // The barrier waited for every chunk, the failing one included.
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPoolTest, SubmitToOutOfRangeThrows) {
  FixedThreadPool pool({.n_threads = 2});
  EXPECT_THROW(pool.submit_to(5, [] {}), ContractError);
  EXPECT_THROW(pool.submit_to(-1, [] {}), ContractError);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  FixedThreadPool pool({.n_threads = 2});
  pool.submit([] {});
  pool.shutdown();
  pool.shutdown();
}

TEST(ThreadPoolTest, QuiesceWaitsForAllWork) {
  FixedThreadPool pool({.n_threads = 2});
  std::atomic<int> slow_done{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++slow_done;
    });
  }
  pool.quiesce();
  EXPECT_EQ(slow_done.load(), 8);
}

TEST(ThreadPoolTest, WorkStealingExecutesAllTasks) {
  FixedThreadPool pool({.n_threads = 4, .queue_mode = QueueMode::WorkStealing});
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) pool.submit([&] { ++count; });
  pool.quiesce();
  EXPECT_EQ(count.load(), 1000);
  EXPECT_EQ(pool.failed_tasks(), 0);
}

TEST(ThreadPoolTest, WorkStealingSubmitToIsAPreference) {
  // Everything lands in worker 0's inbox; idle peers must steal the backlog
  // rather than let it strand — the whole point of the third discipline.
  FixedThreadPool pool({.n_threads = 4, .queue_mode = QueueMode::WorkStealing});
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit_to(0, [&] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ++count;
    });
  }
  pool.quiesce();
  EXPECT_EQ(count.load(), 200);
  EXPECT_GT(pool.steals(), 0);
}

TEST(ThreadPoolTest, WorkStealingNestedSubmitRuns) {
  // A worker submitting from inside a task pushes onto its own deque.
  FixedThreadPool pool({.n_threads = 2, .queue_mode = QueueMode::WorkStealing});
  std::atomic<int> count{0};
  pool.submit([&] {
    ++count;
    pool.submit([&] { ++count; });
  });
  pool.quiesce();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, WorkStealingShutdownDrainsQueuedWork) {
  FixedThreadPool pool({.n_threads = 3, .queue_mode = QueueMode::WorkStealing});
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.shutdown();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ConcurrentShutdownJoinsExactlyOnce) {
  // shutdown() used to check-and-set a plain bool: two concurrent callers
  // (e.g. an explicit shutdown racing the destructor) could both run the
  // teardown and double-join the workers.  The atomic exchange makes one
  // caller win, and every caller must block until the workers are joined.
  for (int round = 0; round < 20; ++round) {
    FixedThreadPool pool({.n_threads = 4, .queue_mode = QueueMode::WorkStealing});
    std::atomic<int> count{0};
    for (int i = 0; i < 50; ++i) pool.submit([&] { ++count; });
    std::vector<std::thread> callers;
    for (int c = 0; c < 4; ++c) callers.emplace_back([&pool] { pool.shutdown(); });
    for (auto& t : callers) t.join();
    // Every caller returned only after the drain: queued work is complete.
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(ThreadPoolTest, WorkStealingSubmitRacingShutdownNeverLosesTasks) {
  // Workers respawning work through the lock-free owner-push path while an
  // external thread shuts the pool down: every submission must either run
  // (owner pushes land on an open deque and are drained) or throw (inbox
  // closed) — a task that silently vanishes would corrupt the
  // submitted_/taken_ accounting and hang a later quiesce or shutdown.
  for (int round = 0; round < 10; ++round) {
    FixedThreadPool pool({.n_threads = 4, .queue_mode = QueueMode::WorkStealing});
    std::atomic<int> executed{0};
    std::atomic<int> accepted{0};
    std::atomic<int> rejected{0};
    std::atomic<int> budget{2000};
    std::function<void()> task = [&] {
      ++executed;
      if (budget.fetch_sub(1, std::memory_order_relaxed) <= 0) return;
      // Mix owner pushes (own index) with inbox routes (peer index).
      const int self = FixedThreadPool::current_worker();
      const int target = executed.load(std::memory_order_relaxed) % 2 == 0
                             ? self
                             : (self + 1) % 4;
      try {
        pool.submit_to(target, task);
        ++accepted;
      } catch (const ContractError&) {
        ++rejected;
      }
    };
    int seeded = 0;
    for (int i = 0; i < 16; ++i) {
      try {
        pool.submit(task);
        ++seeded;
      } catch (const ContractError&) {
      }
    }
    pool.shutdown();  // races the in-flight respawns
    // shutdown() returns only after the workers drained and joined, so every
    // accepted submission has executed: run-or-throw, nothing vanished.
    EXPECT_EQ(executed.load(), seeded + accepted.load());
    EXPECT_GE(rejected.load(), 0);
  }
}

class QueueModes : public ::testing::TestWithParam<QueueMode> {};

TEST_P(QueueModes, SubmitAfterShutdownThrows) {
  // A silently dropped task would leave a later quiesce() waiting forever,
  // so a rejected submission must be loud.
  FixedThreadPool pool({.n_threads = 2, .queue_mode = GetParam()});
  pool.submit([] {});
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), ContractError);
  EXPECT_THROW(pool.submit_to(1, [] {}), ContractError);
  // The failed submissions must not be counted as pending work.
  pool.quiesce();
}

TEST_P(QueueModes, AllModesExecuteSubmitTo) {
  FixedThreadPool pool({.n_threads = 3, .queue_mode = GetParam()});
  std::atomic<int> count{0};
  for (int i = 0; i < 90; ++i) pool.submit_to(i % 3, [&] { ++count; });
  pool.quiesce();
  EXPECT_EQ(count.load(), 90);
}

INSTANTIATE_TEST_SUITE_P(AllQueueModes, QueueModes,
                         ::testing::Values(QueueMode::Single, QueueMode::PerThread,
                                           QueueMode::WorkStealing));

TEST(ThreadPoolTest, PinnedPoolStillExecutes) {
  // Pinning may fail on restricted hosts; work must complete regardless.
  FixedThreadPool pool({.n_threads = 2,
                        .queue_mode = QueueMode::Single,
                        .pin_masks = {topo::CpuSet::of({0}), topo::CpuSet::of({0})}});
  std::atomic<int> n{0};
  for (int i = 0; i < 10; ++i) pool.submit([&] { ++n; });
  pool.quiesce();
  EXPECT_EQ(n.load(), 10);
}

TEST(AffinityTest, OnlinePusPositive) { EXPECT_GE(online_pus(), 1); }

TEST(AffinityTest, CurrentCpuWithinRange) {
  const int cpu = current_cpu();
#if defined(__linux__)
  EXPECT_GE(cpu, 0);
#else
  EXPECT_EQ(cpu, -1);
#endif
}

TEST(AffinityTest, PinToCpuZero) {
#if defined(__linux__)
  const topo::CpuSet before = current_affinity();
  EXPECT_TRUE(pin_current_thread_to(0));
  EXPECT_TRUE(current_affinity().test(0));
  EXPECT_EQ(current_affinity().count(), 1);
  // Restore.
  if (!before.empty()) pin_current_thread(before);
#endif
}

TEST(AffinityTest, EmptyMaskFails) { EXPECT_FALSE(pin_current_thread(topo::CpuSet{})); }

TEST(AffinityTest, NonexistentPuFails) {
  EXPECT_FALSE(pin_current_thread(topo::CpuSet::of({200})));
}

// --- round-robin wraparound regressions --------------------------------------
// The cursor was std::atomic<int>: after 2^31 submissions fetch_add wrapped
// negative, `% n_threads` went non-positive, and submit_to's range check
// killed the pool mid-run.  seed_round_robin() plants the cursor just short
// of the old wrap point so a handful of submissions crosses it.

TEST(ThreadPoolTest, RoundRobinSurvivesInt32Wrap) {
  FixedThreadPool pool({.n_threads = 3, .queue_mode = QueueMode::PerThread});
  pool.seed_round_robin((1ull << 31) - 2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) pool.submit([&] { ++ran; });
  pool.quiesce();
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(pool.failed_tasks(), 0);
}

TEST(ThreadPoolTest, RoundRobinSurvivesUint64Wrap) {
  FixedThreadPool pool({.n_threads = 3, .queue_mode = QueueMode::WorkStealing});
  pool.seed_round_robin(std::numeric_limits<std::uint64_t>::max() - 2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) pool.submit([&] { ++ran; });
  pool.quiesce();
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(pool.failed_tasks(), 0);
}

// --- failure diagnostics ------------------------------------------------------

TEST(ThreadPoolTest, LastErrorKeepsFirstFailureMessage) {
  FixedThreadPool pool({.n_threads = 1});
  EXPECT_EQ(pool.last_error(), "");
  pool.submit([] { throw std::runtime_error("root cause"); });
  pool.quiesce();
  pool.submit([] { throw std::runtime_error("cascade"); });
  pool.quiesce();
  EXPECT_EQ(pool.failed_tasks(), 2);
  EXPECT_EQ(pool.last_error(), "root cause");
}

TEST(ThreadPoolTest, NonStdExceptionFailureIsRecorded) {
  FixedThreadPool pool({.n_threads = 1});
  pool.submit([] { throw 42; });
  pool.quiesce();
  EXPECT_EQ(pool.failed_tasks(), 1);
  EXPECT_EQ(pool.last_error(), "unknown exception");
}

// --- JobHandle: per-job completion, errors, isolation -------------------------

TEST(JobHandleTest, TracksOwnSubmissionsOnly) {
  FixedThreadPool pool({.n_threads = 2, .queue_mode = QueueMode::WorkStealing});
  JobHandle job;
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) pool.submit([&] { ++ran; }, job);
  job.wait();
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(job.submitted(), 10);
  EXPECT_EQ(job.completed(), 10);
  EXPECT_EQ(job.failed(), 0);
  EXPECT_TRUE(job.ok());
  EXPECT_EQ(job.error(), "");
}

TEST(JobHandleTest, FailurePropagatesFirstMessage) {
  FixedThreadPool pool({.n_threads = 2});
  JobHandle job;
  pool.submit([] { throw std::runtime_error("job-level failure"); }, job);
  pool.submit([] {}, job);
  job.wait();
  EXPECT_FALSE(job.ok());
  EXPECT_EQ(job.failed(), 1);
  EXPECT_EQ(job.completed(), 2);  // failed tasks still complete the job
  EXPECT_EQ(job.error(), "job-level failure");
  // The pool-wide backstop sees it too.
  pool.quiesce();
  EXPECT_EQ(pool.failed_tasks(), 1);
  EXPECT_EQ(pool.last_error(), "job-level failure");
}

// The quiesce() starvation fix: one client's wait must terminate while a
// second client keeps the shared pool continuously busy.  (JobHandle.wait()
// counts only its own tasks; pool.quiesce() counts everyone's and would spin
// here until the churner stops.)
TEST(JobHandleTest, WaitTerminatesWhileAnotherClientKeepsSubmitting) {
  FixedThreadPool pool({.n_threads = 2, .queue_mode = QueueMode::WorkStealing});
  std::atomic<bool> churn{true};
  std::thread churner([&] {
    JobHandle background;
    while (churn.load(std::memory_order_relaxed)) {
      pool.submit([] { std::this_thread::yield(); }, background);
      std::this_thread::yield();
    }
    background.wait();
  });

  // The foreground tenant's job must finish despite the endless background
  // stream — this deadlocked by construction when phases used quiesce().
  for (int round = 0; round < 20; ++round) {
    JobHandle job;
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) pool.submit([&] { ++ran; }, job);
    job.wait();
    EXPECT_EQ(ran.load(), 8);
    EXPECT_TRUE(job.ok());
  }
  churn.store(false);
  churner.join();
  pool.quiesce();
}

// Pools compose: a worker of pool A submitting a job to pool B and waiting
// on it must not deadlock (B's workers are independent of A's).
TEST(JobHandleTest, NestedCrossPoolSubmissionCompletes) {
  FixedThreadPool pool_a({.n_threads = 2, .queue_mode = QueueMode::WorkStealing});
  FixedThreadPool pool_b({.n_threads = 2, .queue_mode = QueueMode::WorkStealing});
  JobHandle outer;
  std::atomic<int> inner_ran{0};
  pool_a.submit(
      [&] {
        JobHandle inner;
        for (int i = 0; i < 4; ++i) pool_b.submit([&] { ++inner_ran; }, inner);
        inner.wait();
        EXPECT_TRUE(inner.ok());
      },
      outer);
  outer.wait();
  EXPECT_TRUE(outer.ok());
  EXPECT_EQ(inner_ran.load(), 4);
}

TEST_P(QueueModes, JobScopedSubmitToRunsEverywhere) {
  FixedThreadPool pool({.n_threads = 3, .queue_mode = GetParam()});
  JobHandle job;
  std::atomic<int> ran{0};
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 5; ++i) pool.submit_to(w, [&] { ++ran; }, job);
  }
  job.wait();
  EXPECT_EQ(ran.load(), 15);
  EXPECT_TRUE(job.ok());
}

}  // namespace
}  // namespace mwx::parallel
