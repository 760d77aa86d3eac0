// Phase items that meet: each item of a k-item phase waits until all k have
// started.  A thread runs one item at a time, so such a phase occupies k
// distinct threads.  The run_phase caller can be inside at most one of them;
// the others need pool workers that are awake, which is what the pool's
// wake-up tests rely on.  k must not exceed the threads that may claim the
// phase's items (the pool's workers, plus the caller under Single and
// WorkStealing), or the phase never finishes.
#pragma once

#include <atomic>
#include <thread>

namespace mwx::parallel {

class Rendezvous {
 public:
  explicit Rendezvous(int k) : k_(k) {}

  // Called first thing in an item: returns once all k items have arrived.
  void arrive() {
    arrived_.fetch_add(1, std::memory_order_acq_rel);
    while (arrived_.load(std::memory_order_acquire) < k_) std::this_thread::yield();
  }

 private:
  const int k_;
  std::atomic<int> arrived_{0};
};

}  // namespace mwx::parallel
