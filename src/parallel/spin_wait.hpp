// Spin-then-park: the one wait policy of the native executor.
//
// Every blocking wait in the pool — a worker with nothing to run or claim
// (the pool's idle loop), a run_phase caller waiting for its phase's last
// item (the engine's phase barrier, parallel::for_chunks), a thread waiting
// on a JobHandle, FixedThreadPool::quiesce() — first spins on an atomic
// predicate for up to kSpinBudget and only then parks on its condition
// variable; TaskQueue::pop, off the pool's path, waits the same way.  A
// timestep is a handful of sub-millisecond phases separated by barriers; a
// parked thread takes tens to hundreds of microseconds to wake, so parking at
// every barrier turns that wake latency into idle workers and phase overhead.
//
//   * The budget is wall time, checked against steady_clock, not a count of
//     pauses: one pause costs 10–140 cycles depending on the x86 generation.
//     About 0.5 ms covers every barrier of a small-system step; a much shorter
//     budget lets workers that got no task in a short phase park anyway.
//   * The spin yields every kYieldEvery pauses, so a spinning waiter hands its
//     core to a runnable thread (a worker still finishing the phase) instead
//     of competing with it — that is what keeps the policy safe with more
//     threads than cores, down to a single core.
//   * The price is CPU time: a thread that finds nothing within the budget
//     has burned up to kSpinBudget of a core before it parks.
//
// The parking path is unchanged: the predicate is re-checked under the
// monitor's mutex before every cv wait, so the spin only ever adds a way to
// return early and never a way to miss a wakeup.
#pragma once

#include <chrono>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace mwx::parallel {

inline constexpr std::chrono::microseconds kSpinBudget{500};
inline constexpr unsigned kYieldEvery = 64;

// Spins until ready() returns true (then returns true) or kSpinBudget has
// elapsed (then returns false, and the caller parks).  ready() is polled
// between pauses, so it must be cheap: an atomic load, or a try_lock.
template <typename Ready>
bool spin_until(Ready&& ready) {
  if (ready()) return true;
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (unsigned i = 1;; ++i) {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#endif
    if (ready()) return true;
    if (i % kYieldEvery == 0) {
      std::this_thread::yield();
      if (std::chrono::steady_clock::now() >= deadline) return false;
    }
  }
}

}  // namespace mwx::parallel
