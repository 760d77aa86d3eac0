#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "common/require.hpp"
#include "parallel/spin_wait.hpp"

namespace mwx::parallel {

namespace {
thread_local int t_worker_index = -1;
// Which pool the current thread belongs to: a worker of pool A submitting to
// pool B must be treated as an external caller by B.
thread_local const FixedThreadPool* t_worker_pool = nullptr;
}  // namespace

FixedThreadPool::FixedThreadPool(ThreadPoolConfig config) : config_(std::move(config)) {
  require(config_.n_threads > 0, "pool needs at least one thread");
  const int n_queues = config_.queue_mode == QueueMode::Single ? 1 : config_.n_threads;
  queues_.reserve(static_cast<std::size_t>(n_queues));
  for (int i = 0; i < n_queues; ++i) queues_.push_back(std::make_unique<TaskQueue>());
  if (config_.queue_mode == QueueMode::WorkStealing) {
    deques_.reserve(static_cast<std::size_t>(config_.n_threads));
    for (int i = 0; i < config_.n_threads; ++i) deques_.push_back(std::make_unique<StealDeque>());
  }
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

TaskQueue& FixedThreadPool::queue_for(int worker) const {
  return config_.queue_mode == QueueMode::Single ? *queues_.front()
                                                 : *queues_[static_cast<std::size_t>(worker)];
}

int FixedThreadPool::next_target() {
  if (config_.queue_mode == QueueMode::Single) return 0;
  return t_worker_pool == this
             ? t_worker_index  // keep locally spawned work on the spawner
             : static_cast<int>(round_robin_.fetch_add(1, std::memory_order_relaxed) %
                                static_cast<std::uint64_t>(config_.n_threads));
}

void FixedThreadPool::submit(Task task) { submit_to(next_target(), std::move(task)); }

namespace {
// Wraps a task so its completion (and any failure, message included) is
// recorded on the job.  The exception is rethrown after the job is updated,
// so the pool-level accounting in run_one (failed_, last_error_) still sees
// it.
Task wrap_for_job(std::shared_ptr<detail::JobState> state, Task task) {
  return [state = std::move(state), task = std::move(task)] {
    try {
      task();
    } catch (const std::exception& e) {
      state->finish(e.what());
      throw;
    } catch (...) {
      state->finish("unknown exception");
      throw;
    }
    state->finish(nullptr);
  };
}
}  // namespace

void FixedThreadPool::submit(Task task, const JobHandle& job) {
  submit_to(next_target(), std::move(task), job);
}

void FixedThreadPool::submit_to(int worker, Task task, const JobHandle& job) {
  require(job.state_ != nullptr, "job handle is empty");
  job.state_->on_submit();
  try {
    submit_to(worker, wrap_for_job(job.state_, std::move(task)));
  } catch (...) {
    // Rejected push (shutdown race): the task will never run, so it must not
    // leave the job waiting.
    job.state_->on_revoke();
    throw;
  }
}

void FixedThreadPool::submit_to(int worker, Task task) {
  require(worker >= 0 && worker < config_.n_threads, "worker index out of range");
  // Count before enqueueing so completed_ can never overtake submitted_ (a
  // quiescing thread would wake between the two and miss the final notify);
  // undo the count if the push is rejected so quiesce() is not left waiting
  // on a task that never runs.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  enqueue(worker, std::move(task));
}

void FixedThreadPool::enqueue(int worker, Task task) {
  if (config_.queue_mode == QueueMode::WorkStealing && t_worker_pool == this &&
      t_worker_index == worker) {
    // Owner push: lock-free bottom push onto the worker's own deque.
    deques_[static_cast<std::size_t>(worker)]->push(std::move(task));
  } else if (!queue_for(worker).push(std::move(task))) {
    submitted_.fetch_sub(1, std::memory_order_relaxed);
    require(false, "submit after shutdown");
  }
  wake_parked();
}

void FixedThreadPool::run_one(Task task) {
  try {
    task();
  } catch (const std::exception& e) {
    // A throwing task must not kill the worker (the pool outlives any one
    // task, like an ExecutorService).  The failure is counted, the first
    // message is kept for last_error(), and the pool keeps serving.
    note_failure(e.what());
  } catch (...) {
    note_failure("unknown exception");
  }
  completed_.fetch_add(1, std::memory_order_release);
  // Lock-then-notify so a quiescing thread between its predicate check and
  // wait() cannot miss the wakeup.
  { std::lock_guard lock(quiesce_mutex_); }
  quiesce_cv_.notify_all();
}

void FixedThreadPool::note_failure(const char* what) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(error_mutex_);
  if (last_error_.empty()) last_error_ = what;
}

void FixedThreadPool::wake_parked() {
  // Pairs with the fence in wait_until: either the parked thread's check
  // sees what the caller just published, or the caller sees it parked.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_relaxed) == 0) return;
  { std::lock_guard lock(sleep_mutex_); }
  sleep_cv_.notify_all();
}

template <typename Ready>
void FixedThreadPool::wait_until(Ready&& ready) {
  if (spin_until(ready)) return;
  std::unique_lock lock(sleep_mutex_);
  parked_.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  sleep_cv_.wait(lock, ready);
  parked_.fetch_sub(1, std::memory_order_relaxed);
}

bool FixedThreadPool::has_task(int worker) const {
  if (config_.queue_mode == QueueMode::WorkStealing) {
    // Some task is still sitting in a deque or inbox.
    return submitted_.load(std::memory_order_acquire) > taken_.load(std::memory_order_acquire);
  }
  return queue_for(worker).has_tasks();
}

std::optional<Task> FixedThreadPool::take_task(int index) {
  if (config_.queue_mode != QueueMode::WorkStealing) return queue_for(index).try_pop();
  // 1. Own deque (lock-free LIFO pop), refilling it from the inbox.
  StealDeque& own = *deques_[static_cast<std::size_t>(index)];
  std::optional<Task> task = own.pop();
  if (!task) {
    while (auto moved = queues_[static_cast<std::size_t>(index)]->try_pop()) {
      own.push(std::move(*moved));
    }
    task = own.pop();
  }
  // 2. Steal: oldest task from a peer's deque, else raid its inbox.
  const int n = config_.n_threads;
  for (int k = 1; k < n && !task; ++k) {
    const std::size_t victim = static_cast<std::size_t>((index + k) % n);
    task = deques_[victim]->steal();
    if (!task) task = queues_[victim]->try_pop();
    if (task) steals_.fetch_add(1, std::memory_order_relaxed);
  }
  return task;
}

void FixedThreadPool::worker_main(int index) {
  t_worker_index = index;
  t_worker_pool = this;
  if (!config_.pin_masks.empty()) {
    pin_current_thread(config_.pin_masks[static_cast<std::size_t>(index) %
                                         config_.pin_masks.size()]);
  }
  const auto work_or_closing = [this, index] {
    return closing_.load(std::memory_order_acquire) || has_task(index) || claimable(index);
  };
  for (;;) {
    // Phase items first: a caller is waiting on each of them.
    if (serve_phases(index)) continue;
    if (std::optional<Task> task = take_task(index)) {
      taken_.fetch_add(1, std::memory_order_relaxed);
      run_one(std::move(*task));
      continue;
    }
    if (closing_.load(std::memory_order_seq_cst)) {
      // Draining: leave once no queued task and no open phase is left.
      if (!has_task(index) && open_slots_.load(std::memory_order_seq_cst) == 0) return;
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
    std::lock_guard lock(slot.error_mutex);
    if (!slot.failed) slot.error = what;
    slot.failed = true;
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

void FixedThreadPool::run_phase_erased(int n_items, PhaseFn fn, void* body, bool caller_runs) {
  if (n_items <= 0) return;
  require(!closing_.load(std::memory_order_acquire), "run_phase after shutdown");
  const int me = t_worker_pool == this ? t_worker_index : -1;
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
  slot.failed = false;
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

  if (caller_runs) {
    for (int c; (c = try_claim(slot, me)) >= 0;) run_claim(slot, c);
  }
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
  const bool failed = slot.failed;
  std::string error = failed ? std::move(slot.error) : std::string();
  open_slots_.fetch_and(~bit, std::memory_order_seq_cst);
  free_slots_.fetch_or(bit, std::memory_order_release);
  if (failed) require(false, "phase item failed: " + error);
}

void FixedThreadPool::quiesce() {
  const auto drained = [this] {
    return completed_.load(std::memory_order_acquire) ==
           submitted_.load(std::memory_order_acquire);
  };
  if (spin_until(drained)) return;
  std::unique_lock lock(quiesce_mutex_);
  quiesce_cv_.wait(lock, drained);
}

void FixedThreadPool::shutdown() {
  // The exchange makes concurrent shutdown() calls (or shutdown() racing the
  // destructor) claim the teardown exactly once; the mutex makes the losers
  // wait until the winner has joined every worker, so no caller can return
  // and start destroying the pool while threads are still draining.
  std::lock_guard lock(shutdown_mutex_);
  if (shutdown_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& q : queues_) q->close();
  {
    std::lock_guard sleep_lock(sleep_mutex_);
    closing_.store(true, std::memory_order_seq_cst);
  }
  sleep_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

int FixedThreadPool::current_worker() { return t_worker_index; }

}  // namespace mwx::parallel
