// Park/wake protocol of the executor's spin-then-park waits
// (parallel/spin_wait.hpp), for every QueueMode: work that arrives after the
// workers have given up spinning and parked, waiters that park before the
// last task finishes, quiesce()/shutdown() racing spinning workers, and a
// stress loop whose idle gaps straddle the spin budget.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/spin_wait.hpp"
#include "parallel/task_queue.hpp"
#include "parallel/thread_pool.hpp"

namespace mwx::parallel {
namespace {

using Clock = std::chrono::steady_clock;

// Well past the spin budget: any idle worker or waiter has parked by then.
constexpr auto kParked = 10 * kSpinBudget;
constexpr int kThreads = 4;

class ThreadPoolSpinPark : public ::testing::TestWithParam<QueueMode> {
 protected:
  [[nodiscard]] ThreadPoolConfig config() const {
    return {.n_threads = kThreads, .queue_mode = GetParam()};
  }
};

TEST_P(ThreadPoolSpinPark, TaskSubmittedAfterWorkersParkedRuns) {
  FixedThreadPool pool(config());
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(kParked);
    JobHandle job;
    std::atomic<int> ran{0};
    for (int w = 0; w < kThreads; ++w) {
      pool.submit_to(w, [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }, job);
    }
    job.wait();
    EXPECT_EQ(ran.load(), kThreads);
    EXPECT_EQ(job.completed(), kThreads);
  }
  // A lone task (one worker woken, the rest stay parked) runs as well.
  std::this_thread::sleep_for(kParked);
  JobHandle job;
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran.store(true); }, job);
  job.wait();
  EXPECT_TRUE(ran.load());
}

TEST_P(ThreadPoolSpinPark, ParkedWaiterIsWokenByLastTask) {
  FixedThreadPool pool(config());
  JobHandle job;
  std::atomic<int> ran{0};
  // Staggered finishes, the last well past the budget, so the waiter has
  // parked long before the final task completes.
  for (int w = 0; w < kThreads; ++w) {
    pool.submit_to(
        w,
        [&ran, w] {
          std::this_thread::sleep_for(kParked + w * std::chrono::milliseconds(2));
          ran.fetch_add(1, std::memory_order_relaxed);
        },
        job);
  }
  const auto t0 = Clock::now();
  job.wait();
  EXPECT_GE(Clock::now() - t0, kParked);
  EXPECT_EQ(ran.load(), kThreads);
  EXPECT_EQ(job.completed(), job.submitted());
}

TEST_P(ThreadPoolSpinPark, QuiesceWhileWorkersSpinLosesNothing) {
  FixedThreadPool pool(config());
  std::atomic<int> ran{0};
  for (int round = 1; round <= 300; ++round) {
    for (int i = 0; i < 2 * kThreads; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.quiesce();  // workers are spinning from the previous round
    ASSERT_EQ(ran.load(), round * 2 * kThreads);
  }
  // A quiesce that outlasts its spin budget parks and is still released.
  pool.submit([&ran] {
    std::this_thread::sleep_for(kParked);
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  pool.quiesce();
  EXPECT_EQ(ran.load(), 300 * 2 * kThreads + 1);
}

TEST_P(ThreadPoolSpinPark, ShutdownWhileWorkersSpinDrainsAndJoins) {
  for (int round = 0; round < 40; ++round) {
    std::atomic<int> ran{0};
    {
      FixedThreadPool pool(config());
      JobHandle job;
      for (int i = 0; i < kThreads; ++i) {
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); }, job);
      }
      job.wait();  // the workers are now spinning for the next task
      for (int i = 0; i < 2 * kThreads; ++i) {
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
      if (round % 2 == 0) std::this_thread::sleep_for(kSpinBudget / 2);
      pool.shutdown();
      EXPECT_EQ(ran.load(), 3 * kThreads);
    }
    EXPECT_EQ(ran.load(), 3 * kThreads);
  }
}

TEST_P(ThreadPoolSpinPark, StressPhasesAroundSpinBudget) {
  FixedThreadPool pool(config());
  JobHandle job;  // reused by every phase: wait() covers what was submitted so far
  std::atomic<long long> ran{0};
  std::mt19937 rng(20101);
  // Gaps drawn across the budget boundary, so some phases find the workers
  // (or the waiter) still spinning, others find them just parked.
  std::uniform_int_distribution<long long> gap_us(kSpinBudget.count() / 2,
                                                  kSpinBudget.count() * 3 / 2);
  constexpr int kPhases = 33000;
  for (int phase = 0; phase < kPhases; ++phase) {
    const bool master_gap = phase % 64 == 0;
    const bool task_gap = phase % 64 == 32;
    if (master_gap) std::this_thread::sleep_for(std::chrono::microseconds(gap_us(rng)));
    const std::chrono::microseconds task_sleep(task_gap ? gap_us(rng) : 0);
    for (int w = 0; w < kThreads; ++w) {
      pool.submit_to(
          w,
          [&ran, task_sleep, w] {
            if (w == 0 && task_sleep.count() > 0) std::this_thread::sleep_for(task_sleep);
            ran.fetch_add(1, std::memory_order_relaxed);
          },
          job);
    }
    job.wait();
    ASSERT_EQ(ran.load(), static_cast<long long>(phase + 1) * kThreads);
  }
  EXPECT_EQ(job.submitted(), job.completed());
  EXPECT_EQ(job.completed(), static_cast<long long>(kPhases) * kThreads);
  EXPECT_EQ(pool.failed_tasks(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ThreadPoolSpinPark,
                         ::testing::Values(QueueMode::Single, QueueMode::PerThread,
                                           QueueMode::WorkStealing));

// The spin path must publish the tasks' writes exactly as the parking path
// does (release on finish, acquire in wait): plain writes, read right after a
// wait() that returned while spinning.  ThreadSanitizer flags a missing edge.
TEST(JobHandleSpinPark, SpinningWaitSeesTaskWrites) {
  FixedThreadPool pool({.n_threads = kThreads, .queue_mode = QueueMode::PerThread});
  std::vector<long long> slots(kThreads, 0);
  for (int phase = 1; phase <= 2000; ++phase) {
    JobHandle job;
    for (int w = 0; w < kThreads; ++w) {
      pool.submit_to(w, [&slots, w, phase] { slots[static_cast<std::size_t>(w)] = phase; }, job);
    }
    job.wait();
    for (int w = 0; w < kThreads; ++w) ASSERT_EQ(slots[static_cast<std::size_t>(w)], phase);
  }
}

TEST(JobHandleSpinPark, FailureRecordIsVisibleAfterSpinningWait) {
  FixedThreadPool pool({.n_threads = 2, .queue_mode = QueueMode::Single});
  for (int round = 0; round < 500; ++round) {
    JobHandle job;
    pool.submit([] { throw std::runtime_error("spin failure"); }, job);
    job.wait();
    ASSERT_FALSE(job.ok());
    ASSERT_EQ(job.error(), "spin failure");
  }
}

TEST(TaskQueueSpinPark, CloseReleasesSpinningAndParkedPoppers) {
  for (const auto delay : {std::chrono::microseconds(0), kSpinBudget / 4, 4 * kSpinBudget}) {
    TaskQueue q;
    std::atomic<int> released{0};
    std::vector<std::thread> poppers;
    for (int i = 0; i < 3; ++i) {
      poppers.emplace_back([&] {
        if (!q.pop().has_value()) released.fetch_add(1);
      });
    }
    std::this_thread::sleep_for(delay);
    q.close();
    for (auto& t : poppers) t.join();
    EXPECT_EQ(released.load(), 3);
  }
}

TEST(TaskQueueSpinPark, PushReachesParkedPopper) {
  TaskQueue q;
  std::optional<Task> got;
  std::thread popper([&] { got = q.pop(); });
  std::this_thread::sleep_for(kParked);
  int ran = 0;
  ASSERT_TRUE(q.push([&ran] { ++ran; }));
  popper.join();
  ASSERT_TRUE(got.has_value());
  (*got)();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(q.size(), 0u);
}

}  // namespace
}  // namespace mwx::parallel
