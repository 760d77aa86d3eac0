#include "parallel/thread_pool.hpp"

#include <atomic>
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
  threads_.reserve(static_cast<std::size_t>(config_.n_threads));
  for (int i = 0; i < config_.n_threads; ++i) {
    threads_.emplace_back([this, i] {
      config_.queue_mode == QueueMode::WorkStealing ? worker_main_stealing(i) : worker_main(i);
    });
  }
}

FixedThreadPool::~FixedThreadPool() { shutdown(); }

TaskQueue& FixedThreadPool::queue_for(int worker) {
  return config_.queue_mode == QueueMode::Single ? *queues_.front()
                                                 : *queues_[static_cast<std::size_t>(worker)];
}

void FixedThreadPool::submit(Task task) {
  int target = 0;
  if (config_.queue_mode != QueueMode::Single) {
    target = t_worker_pool == this
                 ? t_worker_index  // keep locally spawned work on the spawner
                 : static_cast<int>(round_robin_.fetch_add(1, std::memory_order_relaxed) %
                                    static_cast<std::uint64_t>(config_.n_threads));
  }
  submit_to(target, std::move(task));
}

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
  int target = 0;
  if (config_.queue_mode != QueueMode::Single) {
    target = t_worker_pool == this
                 ? t_worker_index
                 : static_cast<int>(round_robin_.fetch_add(1, std::memory_order_relaxed) %
                                    static_cast<std::uint64_t>(config_.n_threads));
  }
  submit_to(target, std::move(task), job);
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
  if (config_.queue_mode == QueueMode::WorkStealing) {
    if (t_worker_pool == this && t_worker_index == worker) {
      // Owner push: lock-free bottom push onto the worker's own deque.
      deques_[static_cast<std::size_t>(worker)]->push(std::move(task));
    } else if (!queues_[static_cast<std::size_t>(worker)]->push(std::move(task))) {
      submitted_.fetch_sub(1, std::memory_order_relaxed);
      require(false, "submit after shutdown");
    }
    // Lock-then-notify so a worker between its idle scan and wait() cannot
    // miss the wakeup.
    { std::lock_guard lock(sleep_mutex_); }
    sleep_cv_.notify_all();
    return;
  }
  if (!queue_for(worker).push(std::move(task))) {
    submitted_.fetch_sub(1, std::memory_order_relaxed);
    require(false, "submit after shutdown");
  }
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

void FixedThreadPool::worker_main(int index) {
  t_worker_index = index;
  t_worker_pool = this;
  if (!config_.pin_masks.empty()) {
    pin_current_thread(config_.pin_masks[static_cast<std::size_t>(index) %
                                         config_.pin_masks.size()]);
  }
  TaskQueue& q = queue_for(index);
  while (auto task = q.pop()) {
    taken_.fetch_add(1, std::memory_order_relaxed);
    run_one(std::move(*task));
  }
}

void FixedThreadPool::worker_main_stealing(int index) {
  t_worker_index = index;
  t_worker_pool = this;
  if (!config_.pin_masks.empty()) {
    pin_current_thread(config_.pin_masks[static_cast<std::size_t>(index) %
                                         config_.pin_masks.size()]);
  }
  StealDeque& own = *deques_[static_cast<std::size_t>(index)];
  TaskQueue& inbox = *queues_[static_cast<std::size_t>(index)];
  const int n = config_.n_threads;

  for (;;) {
    // 1. Own deque (lock-free LIFO pop), refilling it from the inbox.
    std::optional<Task> task = own.pop();
    if (!task) {
      while (auto moved = inbox.try_pop()) own.push(std::move(*moved));
      task = own.pop();
    }
    // 2. Steal: oldest task from a peer's deque, else raid its inbox.
    if (!task) {
      for (int k = 1; k < n && !task; ++k) {
        const std::size_t victim = static_cast<std::size_t>((index + k) % n);
        task = deques_[victim]->steal();
        if (!task) task = queues_[victim]->try_pop();
        if (task) steals_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (task) {
      taken_.fetch_add(1, std::memory_order_relaxed);
      run_one(std::move(*task));
      continue;
    }
    // 3. Nothing anywhere: exit if draining is done, otherwise wait until a
    // submission (or shutdown) arrives — spinning first, then parking.
    // `submitted_ > taken_` means some task is still sitting in a deque or
    // inbox — rescan rather than sleep.
    const auto work_or_closing = [this] {
      return closing_.load(std::memory_order_acquire) ||
             submitted_.load(std::memory_order_acquire) >
                 taken_.load(std::memory_order_acquire);
    };
    if (!closing_.load(std::memory_order_acquire) && spin_until(work_or_closing)) continue;
    std::unique_lock lock(sleep_mutex_);
    if (closing_.load(std::memory_order_acquire) &&
        submitted_.load(std::memory_order_acquire) == taken_.load(std::memory_order_acquire)) {
      return;
    }
    sleep_cv_.wait(lock, work_or_closing);
  }
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
    closing_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

int FixedThreadPool::current_worker() { return t_worker_index; }

}  // namespace mwx::parallel
