#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/require.hpp"
#include "parallel/affinity.hpp"
#include "parallel/chunked.hpp"
#include "parallel/thread_pool.hpp"
#include "rendezvous.hpp"

namespace mwx::parallel {
namespace {

TEST(ThreadPoolTest, RejectsZeroThreads) {
  EXPECT_THROW(FixedThreadPool({.n_threads = 0}), ContractError);
}

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  // A Single pool hands out items in order, one per claim: items 0-3 meet on
  // four threads, so each of the three workers runs one of them.
  FixedThreadPool pool({.n_threads = 3});
  std::atomic<int> count{0};
  std::atomic<int> on_workers{0};
  Rendezvous first(4);
  pool.run_phase(100, [&](int item) {
    if (item < 4) {
      first.arrive();
      if (pool.worker_index() >= 0) ++on_workers;
    }
    ++count;
  });
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(on_workers.load(), 3);
}

TEST(ThreadPoolTest, PerThreadQueuesRouteToOwner) {
  FixedThreadPool pool({.n_threads = 4, .queue_mode = QueueMode::PerThread});
  std::atomic<int> wrong{0};
  pool.run_phase(4, [&](int w) {
    if (pool.worker_index() != w) ++wrong;
  });
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ThreadPoolTest, CurrentWorkerOutsidePoolIsMinusOne) {
  FixedThreadPool pool({.n_threads = 1});
  EXPECT_EQ(pool.worker_index(), -1);
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
  // PerThread runs item c only on worker c % n_threads, so the executing
  // worker is the placement for_chunks chose.
  FixedThreadPool pool({.n_threads = 3, .queue_mode = QueueMode::PerThread});
  std::vector<int> worker_of_chunk(8, -2);
  for_chunks(&pool, 8, 800, [&](int c, long long, long long) {
    worker_of_chunk[static_cast<std::size_t>(c)] = pool.worker_index();
  });
  for (int c = 0; c < 8; ++c) EXPECT_EQ(worker_of_chunk[static_cast<std::size_t>(c)], c % 3);
}

TEST(ForChunks, NullPoolRunsInlineInChunkOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  long long covered = 0;
  for_chunks(nullptr, 3, 10, [&](int c, long long begin, long long end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
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

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  FixedThreadPool pool({.n_threads = 2});
  pool.run_phase(2, [](int) {});
  pool.shutdown();
  pool.shutdown();
}

TEST(ThreadPoolTest, PhaseWaitsForAllWork) {
  // The three items meet on three threads; then the caller's returns at once
  // while the two workers' run slowly, so run_phase must wait for them.
  FixedThreadPool pool({.n_threads = 2});
  std::atomic<int> slow_done{0};
  Rendezvous all(3);
  pool.run_phase(3, [&](int) {
    all.arrive();
    if (pool.worker_index() < 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ++slow_done;
  });
  EXPECT_EQ(slow_done.load(), 2);
}

TEST(ThreadPoolTest, WorkStealingExecutesAllTasks) {
  FixedThreadPool pool({.n_threads = 4, .queue_mode = QueueMode::WorkStealing});
  std::atomic<int> count{0};
  pool.run_phase(1000, [&](int) { ++count; });
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, WorkStealingPreferredWorkerIsAPreference) {
  // Worker 0 is held inside an item of an outer phase.  Claims that prefer
  // it must be taken by its peers rather than strand behind it — the whole
  // point of the third discipline.
  FixedThreadPool pool({.n_threads = 4, .queue_mode = QueueMode::WorkStealing});
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    while (!held.load()) {
      pool.run_phase(4, [&](int) {
        if (pool.worker_index() != 0 || held.exchange(true)) return;
        while (!release.load()) std::this_thread::yield();
      });
    }
  });
  while (!held.load()) std::this_thread::yield();
  const long long steals_before = pool.steals();
  std::atomic<int> ran{0};
  std::atomic<int> on_worker_zero{0};
  const auto body = [&](int) {
    ++ran;
    if (pool.worker_index() == 0) ++on_worker_zero;
  };
  // A one-item phase's only claim prefers worker 0; so do claims 0, 4, ...,
  // 28 of a 32-item phase.
  for (int phase = 0; phase < 50; ++phase) pool.run_phase(1, body);
  pool.run_phase(32, body);
  EXPECT_EQ(ran.load(), 50 + 32);
  EXPECT_EQ(on_worker_zero.load(), 0);
  EXPECT_GE(pool.steals() - steals_before, 50 + 8);
  release.store(true);
  holder.join();
}

TEST(ThreadPoolTest, WorkStealingNestedSubmitRuns) {
  // Items fork a phase on their own pool and wait for it.  The three items
  // meet on three threads, so at least two of them run on pool workers.
  FixedThreadPool pool({.n_threads = 2, .queue_mode = QueueMode::WorkStealing});
  std::atomic<int> count{0};
  std::atomic<int> on_workers{0};
  Rendezvous all(3);
  pool.run_phase(3, [&](int) {
    all.arrive();
    if (pool.worker_index() >= 0) ++on_workers;
    ++count;
    pool.run_phase(1, [&](int) { ++count; });
  });
  EXPECT_EQ(count.load(), 6);
  EXPECT_GE(on_workers.load(), 2);
}

// Starts a phase of `n` items on its own thread and returns once one item has
// finished, so a shutdown() issued next finds the phase open.
std::thread start_phase(FixedThreadPool& pool, int n, std::atomic<int>& count) {
  std::thread caller([&pool, n, &count] {
    pool.run_phase(n, [&count](int) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ++count;
    });
  });
  while (count.load() == 0) std::this_thread::yield();
  return caller;
}

TEST(ThreadPoolTest, WorkStealingShutdownDrainsQueuedWork) {
  // shutdown() stops new phases but lets an open one finish.
  FixedThreadPool pool({.n_threads = 3, .queue_mode = QueueMode::WorkStealing});
  std::atomic<int> count{0};
  std::thread caller = start_phase(pool, 100, count);
  pool.shutdown();
  EXPECT_EQ(count.load(), 100);
  caller.join();
}

TEST(ThreadPoolTest, ConcurrentShutdownJoinsExactlyOnce) {
  // shutdown() used to check-and-set a plain bool: two concurrent callers
  // (e.g. an explicit shutdown racing the destructor) could both run the
  // teardown and double-join the workers.  One caller must win, and every
  // caller must block until the workers are joined.
  for (int round = 0; round < 20; ++round) {
    FixedThreadPool pool({.n_threads = 4, .queue_mode = QueueMode::WorkStealing});
    std::atomic<int> count{0};
    std::thread phase = start_phase(pool, 50, count);
    std::atomic<int> early{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < 4; ++c) {
      callers.emplace_back([&] {
        pool.shutdown();
        // Returned only after the drain: the open phase is complete.
        if (count.load() != 50) ++early;
      });
    }
    for (auto& t : callers) t.join();
    phase.join();
    EXPECT_EQ(early.load(), 0);
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(ThreadPoolTest, WorkStealingSubmitRacingShutdownNeverLosesTasks) {
  // Callers issue phases back to back while another thread shuts the pool
  // down.  Each call must either run every item or throw ContractError
  // having run none, and no call may hang: a phase published after the
  // workers left would never finish.
  for (int round = 0; round < 10; ++round) {
    FixedThreadPool pool({.n_threads = 4, .queue_mode = QueueMode::WorkStealing});
    std::atomic<int> partial{0};
    std::atomic<int> rejected{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < 3; ++c) {
      callers.emplace_back([&] {
        for (;;) {
          std::atomic<int> ran{0};
          try {
            pool.run_phase(8, [&](int) { ++ran; });
            if (ran.load() != 8) ++partial;
          } catch (const ContractError&) {
            if (ran.load() != 0) ++partial;
            ++rejected;
            return;
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100 * round));
    pool.shutdown();  // races the in-flight phases
    for (auto& t : callers) t.join();
    EXPECT_EQ(partial.load(), 0);
    EXPECT_EQ(rejected.load(), 3);
  }
}

// Pools compose: an item of pool A running a phase on pool B and waiting for
// it must not deadlock (B's workers are independent of A's).  A's three
// items meet on three threads, so both of A's workers fork onto B.
TEST(ThreadPoolTest, NestedCrossPoolPhaseCompletes) {
  FixedThreadPool pool_a({.n_threads = 2, .queue_mode = QueueMode::WorkStealing});
  FixedThreadPool pool_b({.n_threads = 2, .queue_mode = QueueMode::WorkStealing});
  std::atomic<int> inner_ran{0};
  std::atomic<int> on_a_workers{0};
  Rendezvous all(3);
  pool_a.run_phase(3, [&](int) {
    all.arrive();
    if (pool_a.worker_index() >= 0) ++on_a_workers;
    pool_b.run_phase(4, [&](int) { ++inner_ran; });
  });
  EXPECT_EQ(inner_ran.load(), 12);
  EXPECT_EQ(on_a_workers.load(), 2);
}

TEST(ThreadPoolTest, PinnedPoolStillExecutes) {
  // Pinning may fail on restricted hosts; work must complete regardless.
  // Items 0-2 meet on three threads, so both pinned workers run one.
  FixedThreadPool pool({.n_threads = 2,
                        .queue_mode = QueueMode::Single,
                        .pin_masks = {topo::CpuSet::of({0}), topo::CpuSet::of({0})}});
  std::atomic<int> n{0};
  std::atomic<int> on_workers{0};
  Rendezvous first(3);
  pool.run_phase(10, [&](int item) {
    if (item < 3) {
      first.arrive();
      if (pool.worker_index() >= 0) ++on_workers;
    }
    ++n;
  });
  EXPECT_EQ(n.load(), 10);
  EXPECT_EQ(on_workers.load(), 2);
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

// --- failure diagnostics ------------------------------------------------------

TEST(ThreadPoolTest, PhaseKeepsFirstFailureMessage) {
  // The one PerThread worker claims every item, in order, so item 1 fails
  // first.  The first message is kept: later failures are usually cascade,
  // the first is the root cause.
  FixedThreadPool pool({.n_threads = 1, .queue_mode = QueueMode::PerThread});
  try {
    pool.run_phase(4, [](int item) {
      if (item == 1) throw std::runtime_error("root cause");
      if (item == 3) throw std::runtime_error("cascade");
    });
    FAIL() << "a throwing item must not be swallowed";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("root cause"), std::string::npos) << e.what();
    EXPECT_EQ(std::string(e.what()).find("cascade"), std::string::npos) << e.what();
  }
}

TEST(ThreadPoolTest, NonStdExceptionFailureIsRecorded) {
  FixedThreadPool pool({.n_threads = 1});
  try {
    pool.run_phase(1, [](int) { throw 42; });
    FAIL() << "a throwing item must not be swallowed";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown exception"), std::string::npos) << e.what();
  }
}

TEST(ThreadPoolExceptionTest, ThrowingTaskDoesNotKillWorker) {
  // Each phase meets on every thread that may claim its items (both workers,
  // plus the caller unless PerThread), so both workers throw in the first
  // and must each run an item of the second.
  for (const QueueMode mode : {QueueMode::Single, QueueMode::PerThread, QueueMode::WorkStealing}) {
    FixedThreadPool pool({.n_threads = 2, .queue_mode = mode});
    const int k = mode == QueueMode::PerThread ? 2 : 3;
    Rendezvous failing(k);
    EXPECT_THROW(pool.run_phase(k,
                                [&](int) {
                                  failing.arrive();
                                  if (pool.worker_index() >= 0) {
                                    throw std::runtime_error("task failure");
                                  }
                                }),
                 ContractError);
    std::atomic<int> on_workers{0};
    Rendezvous after(k);
    pool.run_phase(k, [&](int) {
      after.arrive();
      if (pool.worker_index() >= 0) ++on_workers;
    });
    EXPECT_EQ(on_workers.load(), 2) << "workers must keep serving after their items throw";
  }
}

TEST(ThreadPoolExceptionTest, NoFailuresByDefault) {
  FixedThreadPool pool({.n_threads = 1});
  EXPECT_NO_THROW(pool.run_phase(4, [](int) {}));
}

}  // namespace
}  // namespace mwx::parallel
