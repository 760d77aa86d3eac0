#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/require.hpp"
#include "parallel/spin_wait.hpp"

namespace mwx::parallel {

namespace {
thread_local int t_worker_index = -1;
// Which pool the current thread belongs to: a worker of pool A running a
// phase on pool B must be treated as an external caller by B.
thread_local const FixedThreadPool* t_worker_pool = nullptr;
}  // namespace

FixedThreadPool::FixedThreadPool(ThreadPoolConfig config) : config_(std::move(config)) {
  require(config_.n_threads > 0, "pool needs at least one thread");
  const int n = config_.n_threads;
  claim_words_ = (n + 31) / 32;
  max_claims_ = n * (32 * claim_words_ / n);
  own_claims_.assign(static_cast<std::size_t>(n * claim_words_), 0);
  for (int u = 0; u < max_claims_; ++u) {
    own_claims_[static_cast<std::size_t>(u % n * claim_words_ + u / 32)] |= 1u << (u % 32);
  }
  for (PhaseSlot& slot : slots_) {
    if (claim_words_ > 1) {
      slot.more = std::make_unique<std::atomic<std::uint64_t>[]>(claim_words_ - 1);
    }
  }
  threads_.reserve(static_cast<std::size_t>(config_.n_threads));
  for (int i = 0; i < config_.n_threads; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

FixedThreadPool::~FixedThreadPool() { shutdown(); }

void FixedThreadPool::wake_parked() {
  wake_.fetch_add(1, std::memory_order_release);
  wake_.notify_all();
}

template <typename Ready>
void FixedThreadPool::wait_until(Ready&& ready) {
  if (spin_until(ready)) return;
  // A waiter that reads wake_ before a waker's bump blocks on that old value
  // and is woken by the notify that follows the bump; one that reads it after
  // acquires the waker's write, so ready() sees it.
  for (;;) {
    const std::uint32_t seen = wake_.load(std::memory_order_acquire);
    if (ready()) return;
    wake_.wait(seen, std::memory_order_acquire);
  }
}

void FixedThreadPool::worker_main(int index) {
  t_worker_index = index;
  t_worker_pool = this;
  if (!config_.pin_masks.empty()) {
    pin_current_thread(config_.pin_masks[static_cast<std::size_t>(index) %
                                         config_.pin_masks.size()]);
  }
  const auto work_or_closing = [this, index] {
    return closing_.load(std::memory_order_acquire) || claimable(index);
  };
  for (;;) {
    if (serve_phases(index)) continue;
    if (closing_.load(std::memory_order_seq_cst)) {
      // Draining: leave once no phase is open.
      if (open_slots_.load(std::memory_order_seq_cst) == 0) return;
      std::this_thread::yield();
      continue;
    }
    wait_until(work_or_closing);
  }
}

// --- run_phase ---------------------------------------------------------------

int FixedThreadPool::acquire_slot() {
  std::uint32_t free = free_slots_.load(std::memory_order_relaxed);
  while (free != 0) {
    const std::uint32_t bit = free & (~free + 1);
    if (free_slots_.compare_exchange_weak(free, free & ~bit, std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
      return std::countr_zero(bit);
    }
  }
  return -1;
}

namespace {
// Clears one set bit of `allowed` in the claim word (its lowest, or its
// highest when `highest`) and returns its index, or -1 if none is set.
int take_bit(std::atomic<std::uint64_t>& claim, std::uint32_t allowed, bool highest) {
  std::uint64_t word = claim.load(std::memory_order_acquire);
  for (;;) {
    const std::uint32_t left = static_cast<std::uint32_t>(word) & allowed;
    if (left == 0) return -1;
    const int bit = highest ? 31 - std::countl_zero(left) : std::countr_zero(left);
    if (claim.compare_exchange_weak(word, word & ~(std::uint64_t{1} << bit),
                                    std::memory_order_acq_rel, std::memory_order_acquire)) {
      return bit;
    }
  }
}
}  // namespace

int FixedThreadPool::try_claim(PhaseSlot& slot, int me) {
  // Once a claim succeeds the record is stable: the phase cannot end before
  // the claim has run.
  if (config_.queue_mode == QueueMode::Single) {
    std::atomic<std::uint64_t>& claim = slot.word(0);
    std::uint64_t word = claim.load(std::memory_order_acquire);
    while (static_cast<std::uint32_t>(word) != 0) {
      if (claim.compare_exchange_weak(word, word - 1, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        return slot.n_claims - static_cast<int>(static_cast<std::uint32_t>(word));
      }
    }
    return -1;
  }
  for (int k = 0; me >= 0 && k < claim_words_; ++k) {
    if (const int bit = take_bit(slot.word(k), own_claims(me, k), false); bit >= 0) {
      return 32 * k + bit;
    }
  }
  if (config_.queue_mode == QueueMode::WorkStealing) {
    // Take the claim its owner would reach last.
    for (int k = claim_words_ - 1; k >= 0; --k) {
      if (const int bit = take_bit(slot.word(k), ~0u, true); bit >= 0) {
        steals_.fetch_add(1, std::memory_order_relaxed);
        return 32 * k + bit;
      }
    }
  }
  return -1;
}

void FixedThreadPool::run_claim(PhaseSlot& slot, int claim) {
  // Copies the message while the exception is still alive.
  const auto note = [&slot](const char* what) {
    if (!slot.failed.exchange(true, std::memory_order_relaxed)) slot.error = what;
  };
  for (int item = claim; item < slot.n_items; item += slot.n_claims) {
    try {
      slot.fn(slot.body, item);
    } catch (const std::exception& e) {
      note(e.what());
    } catch (...) {
      note("unknown exception");
    }
  }
  if (slot.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) wake_parked();
}

bool FixedThreadPool::claimable(int me) const {
  for (std::uint32_t open = open_slots_.load(std::memory_order_acquire); open != 0;
       open &= open - 1) {
    const PhaseSlot& slot = slots_[static_cast<std::size_t>(std::countr_zero(open))];
    for (int k = 0; k < claim_words_; ++k) {
      const auto state = static_cast<std::uint32_t>(slot.word(k).load(std::memory_order_acquire));
      if ((state & (config_.queue_mode == QueueMode::PerThread ? own_claims(me, k) : ~0u)) != 0) {
        return true;
      }
    }
  }
  return false;
}

bool FixedThreadPool::serve_phases(int me) {
  bool ran = false;
  for (std::uint32_t open = open_slots_.load(std::memory_order_acquire); open != 0;
       open &= open - 1) {
    PhaseSlot& slot = slots_[static_cast<std::size_t>(std::countr_zero(open))];
    for (int c; (c = try_claim(slot, me)) >= 0;) {
      run_claim(slot, c);
      ran = true;
    }
  }
  return ran;
}

void FixedThreadPool::run_phase_erased(int n_items, PhaseFn fn, void* body) {
  if (n_items <= 0) return;
  require(!closing_.load(std::memory_order_acquire), "run_phase after shutdown");
  const int me = worker_index();
  int s;
  while ((s = acquire_slot()) < 0) {
    if (me < 0 || !serve_phases(me)) std::this_thread::yield();
  }

  PhaseSlot& slot = slots_[static_cast<std::size_t>(s)];
  const std::uint32_t bit = 1u << s;
  const bool single = config_.queue_mode == QueueMode::Single;
  slot.fn = fn;
  slot.body = body;
  slot.n_items = n_items;
  slot.n_claims = single ? n_items : std::min(n_items, max_claims_);
  slot.failed.store(false, std::memory_order_relaxed);
  slot.error.clear();
  slot.pending.store(slot.n_claims, std::memory_order_relaxed);
  // Open the slot before publishing, then re-check shutdown: a draining
  // worker leaves only when it sees no open slot, so either it sees this one
  // or this caller sees the shutdown and withdraws the unpublished phase.
  open_slots_.fetch_or(bit, std::memory_order_seq_cst);
  if (closing_.load(std::memory_order_seq_cst)) {
    open_slots_.fetch_and(~bit, std::memory_order_seq_cst);
    free_slots_.fetch_or(bit, std::memory_order_release);
    require(false, "run_phase after shutdown");
  }
  const std::uint64_t tag = ((slot.word(0).load(std::memory_order_relaxed) >> 32) + 1) << 32;
  if (single) {
    slot.word(0).store(tag | static_cast<std::uint32_t>(n_items), std::memory_order_release);
  } else {
    for (int k = 0; k < claim_words_; ++k) {
      const int claims = std::clamp(slot.n_claims - 32 * k, 0, 32);
      slot.word(k).store(tag | ((std::uint64_t{1} << claims) - 1), std::memory_order_release);
    }
  }
  wake_parked();

  for (int c; (c = try_claim(slot, me)) >= 0;) run_claim(slot, c);
  const auto done = [&slot] { return slot.pending.load(std::memory_order_acquire) == 0; };
  if (me < 0) {
    wait_until(done);
  } else {
    // A worker waiting on its own pool keeps serving other phases: an outer
    // phase's PerThread item may be waiting for exactly this worker.
    while (!done()) {
      if (!serve_phases(me)) wait_until([&] { return done() || claimable(me); });
    }
  }
  const bool failed = slot.failed.load(std::memory_order_relaxed);
  std::string error = failed ? std::move(slot.error) : std::string();
  open_slots_.fetch_and(~bit, std::memory_order_seq_cst);
  free_slots_.fetch_or(bit, std::memory_order_release);
  if (failed) require(false, "phase item failed: " + error);
}

void FixedThreadPool::shutdown() {
  // The mutex makes concurrent shutdown() calls (or shutdown() racing the
  // destructor) claim the teardown exactly once, and makes the losers wait
  // until the winner has joined every worker, so no caller can return and
  // start destroying the pool while threads are still draining.
  std::lock_guard lock(shutdown_mutex_);
  if (closing_.load(std::memory_order_relaxed)) return;
  closing_.store(true, std::memory_order_seq_cst);
  wake_parked();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

int FixedThreadPool::worker_index() const { return t_worker_pool == this ? t_worker_index : -1; }

}  // namespace mwx::parallel
