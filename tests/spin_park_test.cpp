// Park/wake protocol of the pool's spin-then-park waits
// (parallel/spin_wait.hpp), for every QueueMode: a phase published after the
// workers have given up spinning and parked, a run_phase caller that parks
// before the last item finishes, shutdown() racing spinning workers, and a
// stress loop whose idle gaps straddle the spin budget, and shutdown() of a
// parked pool.  The phases here are Rendezvous phases (rendezvous.hpp) of at
// most kThreads items: the caller can finish only one item, so the others
// need the workers to wake.
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
#include "rendezvous.hpp"

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
    std::atomic<int> ran{0};
    Rendezvous all(kThreads);
    pool.run_phase(kThreads, [&](int) {
      all.arrive();
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), kThreads);
  }
  // A phase smaller than the pool wakes the workers it needs: its two items
  // meet on two threads, at least one of them a worker woken from its park.
  std::this_thread::sleep_for(kParked);
  std::atomic<int> on_workers{0};
  Rendezvous pair(2);
  pool.run_phase(2, [&](int) {
    pair.arrive();
    if (pool.worker_index() >= 0) on_workers.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_GE(on_workers.load(), 1);
}

TEST_P(ThreadPoolSpinPark, ShutdownOfParkedPoolJoins) {
  FixedThreadPool pool(config());
  std::this_thread::sleep_for(kParked);
  pool.shutdown();  // only its wake-up gets the parked workers to leave
}

TEST_P(ThreadPoolSpinPark, ParkedWaiterIsWokenByLastTask) {
  FixedThreadPool pool(config());
  std::atomic<int> ran{0};
  Rendezvous all(kThreads);
  // The caller's own item ends at the rendezvous; the workers' finish
  // staggered, the last well past the budget, so the caller has parked long
  // before the final item completes.
  const auto t0 = Clock::now();
  pool.run_phase(kThreads, [&](int item) {
    all.arrive();
    if (pool.worker_index() >= 0) {
      std::this_thread::sleep_for(kParked + item * std::chrono::milliseconds(2));
    }
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_GE(Clock::now() - t0, kParked);
  EXPECT_EQ(ran.load(), kThreads);
}

TEST_P(ThreadPoolSpinPark, PhasesWhileWorkersSpinLoseNothing) {
  FixedThreadPool pool(config());
  std::atomic<int> ran{0};
  for (int round = 1; round <= 300; ++round) {
    // The workers are spinning from the previous round.
    Rendezvous all(kThreads);
    pool.run_phase(kThreads, [&](int) {
      all.arrive();
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(ran.load(), round * kThreads);
  }
}

TEST_P(ThreadPoolSpinPark, ShutdownWhileWorkersSpinDrainsAndJoins) {
  for (int round = 0; round < 40; ++round) {
    std::atomic<int> ran{0};
    {
      FixedThreadPool pool(config());
      Rendezvous first(kThreads);
      pool.run_phase(kThreads, [&](int) {
        first.arrive();
        ran.fetch_add(1, std::memory_order_relaxed);
      });
      // The workers now spin for the next phase.  A second caller opens one
      // that cannot finish without them; shutdown() must let it finish
      // before the workers leave.
      std::atomic<bool> started{false};
      Rendezvous second(kThreads);
      std::thread caller([&] {
        pool.run_phase(kThreads, [&](int) {
          started.store(true);
          second.arrive();
          ran.fetch_add(1, std::memory_order_relaxed);
        });
      });
      while (!started.load()) std::this_thread::yield();
      if (round % 2 == 0) std::this_thread::sleep_for(kSpinBudget / 2);
      pool.shutdown();
      EXPECT_EQ(ran.load(), 2 * kThreads);
      caller.join();
    }
    EXPECT_EQ(ran.load(), 2 * kThreads);
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
    Rendezvous all(kThreads);
    pool.run_phase(kThreads, [&](int item) {
      all.arrive();
      if (item == 0 && task_sleep.count() > 0) std::this_thread::sleep_for(task_sleep);
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(ran.load(), static_cast<long long>(phase + 1) * kThreads);
  }
}

// The spin path must publish the items' writes exactly as the parking path
// does (release on finish, acquire in the wait): plain writes, most of them
// by workers, read right after a run_phase that returned while spinning.
// ThreadSanitizer flags a missing edge.
TEST_P(ThreadPoolSpinPark, SpinningWaitSeesItemWrites) {
  FixedThreadPool pool(config());
  std::vector<long long> slots(kThreads, 0);
  for (int phase = 1; phase <= 2000; ++phase) {
    Rendezvous all(kThreads);
    pool.run_phase(kThreads, [&](int item) {
      all.arrive();
      slots[static_cast<std::size_t>(item)] = phase;
    });
    for (int w = 0; w < kThreads; ++w) ASSERT_EQ(slots[static_cast<std::size_t>(w)], phase);
  }
}

TEST_P(ThreadPoolSpinPark, FailureRecordIsVisibleAfterSpinningWait) {
  FixedThreadPool pool(config());
  for (int round = 0; round < 500; ++round) {
    std::string error;
    Rendezvous all(kThreads);
    try {
      // Only workers fail, so the record crosses threads.
      pool.run_phase(kThreads, [&](int) {
        all.arrive();
        if (pool.worker_index() >= 0) throw std::runtime_error("spin failure");
      });
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
