// Park/wake protocol of the pool's spin-then-park waits
// (parallel/spin_wait.hpp), for every QueueMode: a phase published after the
// workers have given up spinning and parked, a run_phase caller that parks
// before the last item finishes, shutdown() racing spinning workers, and a
// stress loop whose idle gaps straddle the spin budget.  Every phase here
// runs with caller_runs = false, so its items need the workers to wake.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/require.hpp"
#include "parallel/spin_wait.hpp"
#include "parallel/thread_pool.hpp"

namespace mwx::parallel {
namespace {

using Clock = std::chrono::steady_clock;

// Well past the spin budget: any idle worker or waiter has parked by then.
constexpr auto kParked = 10 * kSpinBudget;
constexpr int kThreads = 4;
constexpr bool kWorkersOnly = false;  // run_phase's caller_runs

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
    std::atomic<int> ran{0};
    pool.run_phase(
        kThreads, [&ran](int) { ran.fetch_add(1, std::memory_order_relaxed); }, kWorkersOnly);
    EXPECT_EQ(ran.load(), kThreads);
  }
  // A lone item (one worker woken, the rest stay parked) runs as well.
  std::this_thread::sleep_for(kParked);
  std::atomic<bool> ran{false};
  pool.run_phase(1, [&ran](int) { ran.store(true); }, kWorkersOnly);
  EXPECT_TRUE(ran.load());
}

TEST_P(ThreadPoolSpinPark, ParkedWaiterIsWokenByLastTask) {
  FixedThreadPool pool(config());
  std::atomic<int> ran{0};
  // Staggered finishes, the last well past the budget, so the caller has
  // parked long before the final item completes.
  const auto t0 = Clock::now();
  pool.run_phase(
      kThreads,
      [&ran](int item) {
        std::this_thread::sleep_for(kParked + item * std::chrono::milliseconds(2));
        ran.fetch_add(1, std::memory_order_relaxed);
      },
      kWorkersOnly);
  EXPECT_GE(Clock::now() - t0, kParked);
  EXPECT_EQ(ran.load(), kThreads);
}

TEST_P(ThreadPoolSpinPark, PhasesWhileWorkersSpinLoseNothing) {
  FixedThreadPool pool(config());
  std::atomic<int> ran{0};
  const auto count = [&ran](int) { ran.fetch_add(1, std::memory_order_relaxed); };
  for (int round = 1; round <= 300; ++round) {
    // The workers are spinning from the previous round.
    pool.run_phase(2 * kThreads, count, kWorkersOnly);
    ASSERT_EQ(ran.load(), round * 2 * kThreads);
  }
}

TEST_P(ThreadPoolSpinPark, ShutdownWhileWorkersSpinDrainsAndJoins) {
  for (int round = 0; round < 40; ++round) {
    std::atomic<int> ran{0};
    {
      FixedThreadPool pool(config());
      pool.run_phase(
          kThreads, [&ran](int) { ran.fetch_add(1, std::memory_order_relaxed); }, kWorkersOnly);
      // The workers now spin for the next phase.  A second caller opens one;
      // shutdown() must let it finish before the workers leave.
      std::atomic<bool> started{false};
      std::thread caller([&] {
        pool.run_phase(
            2 * kThreads,
            [&](int) {
              started.store(true);
              ran.fetch_add(1, std::memory_order_relaxed);
            },
            kWorkersOnly);
      });
      while (!started.load()) std::this_thread::yield();
      if (round % 2 == 0) std::this_thread::sleep_for(kSpinBudget / 2);
      pool.shutdown();
      EXPECT_EQ(ran.load(), 3 * kThreads);
      caller.join();
    }
    EXPECT_EQ(ran.load(), 3 * kThreads);
  }
}

TEST_P(ThreadPoolSpinPark, StressPhasesAroundSpinBudget) {
  FixedThreadPool pool(config());
  std::atomic<long long> ran{0};
  std::mt19937 rng(20101);
  // Gaps drawn across the budget boundary, so some phases find the workers
  // (or the waiting caller) still spinning, others find them just parked.
  std::uniform_int_distribution<long long> gap_us(kSpinBudget.count() / 2,
                                                  kSpinBudget.count() * 3 / 2);
  constexpr int kPhases = 33000;
  for (int phase = 0; phase < kPhases; ++phase) {
    const bool master_gap = phase % 64 == 0;
    const bool task_gap = phase % 64 == 32;
    if (master_gap) std::this_thread::sleep_for(std::chrono::microseconds(gap_us(rng)));
    const std::chrono::microseconds task_sleep(task_gap ? gap_us(rng) : 0);
    pool.run_phase(
        kThreads,
        [&ran, task_sleep](int item) {
          if (item == 0 && task_sleep.count() > 0) std::this_thread::sleep_for(task_sleep);
          ran.fetch_add(1, std::memory_order_relaxed);
        },
        kWorkersOnly);
    ASSERT_EQ(ran.load(), static_cast<long long>(phase + 1) * kThreads);
  }
}

// The spin path must publish the items' writes exactly as the parking path
// does (release on finish, acquire in the wait): plain writes, read right
// after a run_phase that returned while spinning.  ThreadSanitizer flags a
// missing edge.
TEST_P(ThreadPoolSpinPark, SpinningWaitSeesItemWrites) {
  FixedThreadPool pool(config());
  std::vector<long long> slots(kThreads, 0);
  for (int phase = 1; phase <= 2000; ++phase) {
    pool.run_phase(
        kThreads, [&slots, phase](int item) { slots[static_cast<std::size_t>(item)] = phase; },
        kWorkersOnly);
    for (int w = 0; w < kThreads; ++w) ASSERT_EQ(slots[static_cast<std::size_t>(w)], phase);
  }
}

TEST_P(ThreadPoolSpinPark, FailureRecordIsVisibleAfterSpinningWait) {
  FixedThreadPool pool(config());
  for (int round = 0; round < 500; ++round) {
    std::string error;
    try {
      pool.run_phase(1, [](int) { throw std::runtime_error("spin failure"); }, kWorkersOnly);
    } catch (const ContractError& e) {
      error = e.what();
    }
    ASSERT_NE(error.find("spin failure"), std::string::npos) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ThreadPoolSpinPark,
                         ::testing::Values(QueueMode::Single, QueueMode::PerThread,
                                           QueueMode::WorkStealing));

}  // namespace
}  // namespace mwx::parallel
