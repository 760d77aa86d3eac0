// FixedThreadPool::run_phase — the fork-join behind every engine phase and
// every parallel::for_chunks pass: each item runs exactly once under every
// queue discipline, PerThread keeps its placement, failures surface after the
// whole phase ran, concurrent callers on one pool never see each other's
// generations, and a pool worker may fork-join on its own pool.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/require.hpp"
#include "parallel/thread_pool.hpp"

namespace mwx::parallel {
namespace {

class PhaseDispatch : public ::testing::TestWithParam<QueueMode> {
 protected:
  [[nodiscard]] ThreadPoolConfig config(int threads) const {
    return {.n_threads = threads, .queue_mode = GetParam()};
  }
};

TEST_P(PhaseDispatch, EveryItemRunsExactlyOnce) {
  FixedThreadPool pool(config(4));
  for (const bool caller_runs : {true, false}) {
    for (const int n : {0, 1, 3, 64}) {
      for (int round = 0; round < 50; ++round) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
        pool.run_phase(
            n, [&](int item) { hits[static_cast<std::size_t>(item)].fetch_add(1); },
            caller_runs);
        for (int c = 0; c < n; ++c) {
          ASSERT_EQ(hits[static_cast<std::size_t>(c)].load(), 1)
              << "n=" << n << " item " << c << " caller_runs=" << caller_runs;
        }
      }
    }
  }
}

TEST_P(PhaseDispatch, ThrowingItemSurfacesAfterEveryItemRan) {
  FixedThreadPool pool(config(3));
  for (const bool caller_runs : {true, false}) {
    std::atomic<int> ran{0};
    try {
      pool.run_phase(
          16,
          [&](int item) {
            ran.fetch_add(1);
            if (item == 5) throw std::runtime_error("item five broke");
          },
          caller_runs);
      FAIL() << "a throwing item must not be swallowed";
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("item five broke"), std::string::npos) << e.what();
    }
    EXPECT_EQ(ran.load(), 16);
    // The pool keeps serving phases after a failure.
    std::atomic<int> after{0};
    pool.run_phase(8, [&](int) { after.fetch_add(1); }, caller_runs);
    EXPECT_EQ(after.load(), 8);
  }
}

TEST_P(PhaseDispatch, TwoCallersIssueTenThousandPhasesEach) {
  // Back-to-back phases reuse slots and bump generations as fast as the pool
  // can go; a helper that claimed into the wrong generation would run an
  // item twice, skip one, or write into the other caller's counts.  The
  // counts are plain ints: the caller reads them right after the barrier.
  FixedThreadPool pool(config(3));
  constexpr int kPhases = 10000;
  std::atomic<bool> ok{true};
  const auto caller = [&](int seed) {
    std::vector<int> counts(40, 0);
    for (int phase = 0; phase < kPhases && ok.load(std::memory_order_relaxed); ++phase) {
      const int n = 1 + (phase * 7 + seed) % 40;
      pool.run_phase(n, [&](int item) { ++counts[static_cast<std::size_t>(item)]; });
      for (int c = 0; c < n; ++c) {
        if (counts[static_cast<std::size_t>(c)] != 1) ok.store(false);
        counts[static_cast<std::size_t>(c)] = 0;
      }
    }
  };
  std::thread a(caller, 0);
  std::thread b(caller, 13);
  a.join();
  b.join();
  EXPECT_TRUE(ok.load());
}

TEST_P(PhaseDispatch, PoolWorkerRunsPhaseOnItsOwnPool) {
  FixedThreadPool pool(config(2));
  // From a plain task.
  std::atomic<int> inner{0};
  pool.submit([&] { pool.run_phase(8, [&](int) { inner.fetch_add(1); }); });
  pool.quiesce();
  EXPECT_EQ(inner.load(), 8);
  // From inside an outer phase whose every item forks again: under PerThread
  // each worker's inner phase needs items only the other worker may run.
  inner.store(0);
  pool.run_phase(2, [&](int) { pool.run_phase(4, [&](int) { inner.fetch_add(1); }); });
  EXPECT_EQ(inner.load(), 8);
}

TEST_P(PhaseDispatch, MoreCallersThanSlotsAllComplete) {
  FixedThreadPool pool(config(2));
  constexpr int kCallers = 24;
  std::atomic<long long> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int phase = 0; phase < 100; ++phase) {
        pool.run_phase(5, [&](int) { total.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(total.load(), kCallers * 100LL * 5);
}

TEST_P(PhaseDispatch, RunPhaseAfterShutdownThrows) {
  FixedThreadPool pool(config(2));
  pool.shutdown();
  EXPECT_THROW(pool.run_phase(3, [](int) {}), ContractError);
}

INSTANTIATE_TEST_SUITE_P(AllQueueModes, PhaseDispatch,
                         ::testing::Values(QueueMode::Single, QueueMode::PerThread,
                                           QueueMode::WorkStealing));

TEST(PhaseDispatchPlacement, PerThreadKeepsItemOnWorkerModuloWidth) {
  FixedThreadPool pool({.n_threads = 3, .queue_mode = QueueMode::PerThread});
  for (const bool caller_runs : {true, false}) {
    for (const int n : {8, 64}) {
      std::vector<int> worker_of(static_cast<std::size_t>(n), -2);
      pool.run_phase(
          n,
          [&](int item) {
            worker_of[static_cast<std::size_t>(item)] = FixedThreadPool::current_worker();
          },
          caller_runs);
      for (int c = 0; c < n; ++c) {
        EXPECT_EQ(worker_of[static_cast<std::size_t>(c)], c % 3) << "n=" << n << " item " << c;
      }
    }
  }
}

TEST(PhaseDispatchPlacement, PoolWiderThanOneClaimWord) {
  // 40 workers take two 32-bit claim words: item c still belongs to worker
  // c % 40, also past 40 items, where a claim runs several items.
  constexpr int kWorkers = 40;
  for (const QueueMode mode : {QueueMode::Single, QueueMode::PerThread, QueueMode::WorkStealing}) {
    FixedThreadPool pool({.n_threads = kWorkers, .queue_mode = mode});
    for (const bool caller_runs : {true, false}) {
      for (const int n : {64, 100}) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
        std::vector<int> worker_of(static_cast<std::size_t>(n), -2);
        pool.run_phase(
            n,
            [&](int item) {
              hits[static_cast<std::size_t>(item)].fetch_add(1);
              worker_of[static_cast<std::size_t>(item)] = FixedThreadPool::current_worker();
            },
            caller_runs);
        for (int c = 0; c < n; ++c) {
          const auto i = static_cast<std::size_t>(c);
          ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " item " << c;
          if (mode == QueueMode::PerThread) {
            EXPECT_EQ(worker_of[i], c % kWorkers) << "n=" << n << " item " << c;
          }
        }
      }
    }
  }
}

TEST(PhaseDispatchPlacement, CallerThatOnlyWaitsRunsNothing) {
  for (const QueueMode mode : {QueueMode::Single, QueueMode::WorkStealing}) {
    FixedThreadPool pool({.n_threads = 2, .queue_mode = mode});
    std::atomic<int> on_caller{0};
    for (int round = 0; round < 100; ++round) {
      pool.run_phase(
          6, [&](int) { on_caller.fetch_add(FixedThreadPool::current_worker() < 0 ? 1 : 0); },
          /*caller_runs=*/false);
    }
    EXPECT_EQ(on_caller.load(), 0);
  }
}

}  // namespace
}  // namespace mwx::parallel
