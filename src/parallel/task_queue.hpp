// Blocking MPMC work queue backing the thread pool.
//
// Parallel MW used both a single shared queue ("all threads are contending
// for access to that single resource") and one queue per thread
// (Section II-B).  The pool supports both configurations.  The queue itself
// is a mutex-protected deque, not a lock-free design, so the single queue's
// contention is the paper's.  What differs from a Java executor's
// LinkedBlockingQueue is how an idle consumer waits: it polls an atomic copy
// of the task count (has_tasks(), try_lock only once it reads non-zero) for
// up to kSpinBudget before parking (parallel/spin_wait.hpp), so it is still
// awake when the next task arrives.  The pool's workers poll has_tasks() in
// their shared idle loop, which also watches run_phase's slots, take with
// try_pop() and park on the pool's monitor.  pop() is the queue's own
// blocking wait for standalone consumers; it is not on the pool's path, and
// push() touches the queue's condition variable only while a pop() is
// parked on it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>

#include "parallel/spin_wait.hpp"

namespace mwx::parallel {

using Task = std::function<void()>;

class TaskQueue {
 public:
  TaskQueue() = default;
  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  // Enqueues a task.  Returns false when the queue is closed.
  bool push(Task task) {
    {
      std::lock_guard lock(mutex_);
      if (closed_.load(std::memory_order_relaxed)) return false;
      tasks_.push_back(std::move(task));
      count_.store(tasks_.size(), std::memory_order_relaxed);
      if (parked_ == 0) return true;
    }
    cv_.notify_one();
    return true;
  }

  // Blocks for a task; returns nullopt once the queue is closed and drained.
  // Spins first (see the header comment), then parks.  Not used by the pool.
  std::optional<Task> pop() {
    std::optional<Task> task;
    bool done = false;
    const bool ready = spin_until([&] {
      if (count_.load(std::memory_order_relaxed) == 0 &&
          !closed_.load(std::memory_order_relaxed)) {
        return false;
      }
      std::unique_lock lock(mutex_, std::try_to_lock);
      if (!lock.owns_lock()) return false;
      done = take_locked(task);
      return done;
    });
    if (ready) return task;
    std::unique_lock lock(mutex_);
    ++parked_;
    cv_.wait(lock, [this] { return closed_.load(std::memory_order_relaxed) || !tasks_.empty(); });
    --parked_;
    take_locked(task);
    return task;
  }

  // Non-blocking variant used by work-stealing helpers and tests.
  std::optional<Task> try_pop() {
    std::optional<Task> task;
    std::lock_guard lock(mutex_);
    take_locked(task);
    return task;
  }

  // Closes the queue: pending tasks still drain, new pushes fail, blocked
  // poppers wake with nullopt when empty.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_.store(true, std::memory_order_relaxed);
    }
    cv_.notify_all();
  }

  // Lock-free hint for a spinning consumer: true when a task may be waiting.
  [[nodiscard]] bool has_tasks() const { return count_.load(std::memory_order_relaxed) != 0; }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return tasks_.size();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_.load(std::memory_order_relaxed);
  }

 private:
  // With mutex_ held: moves the front task into `out` if there is one.
  // Returns true when pop() is finished — a task was taken, or the queue is
  // closed and drained.
  bool take_locked(std::optional<Task>& out) {
    if (tasks_.empty()) return closed_.load(std::memory_order_relaxed);
    out = std::move(tasks_.front());
    tasks_.pop_front();
    count_.store(tasks_.size(), std::memory_order_relaxed);
    return true;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  int parked_ = 0;  // pop() calls waiting on cv_, under mutex_
  std::deque<Task> tasks_;
  // Written only under mutex_; read without it as the spinning consumers'
  // hint (the mutex still orders the task hand-off itself).
  std::atomic<std::size_t> count_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace mwx::parallel
