// JobHandle — per-job completion groups for a shared FixedThreadPool.
//
// The paper's executor model is one application owning its pools for one
// run, so the original pool tracked completion globally: quiesce() waited
// for *every* submission ever made.  A long-running multi-tenant service
// breaks that in two ways:
//   * starvation — with a second client continuously submitting,
//     `submitted_ == completed_` may never hold, so one tenant's drain
//     blocks forever on another tenant's traffic;
//   * lost diagnostics — a failing task was only a counter bump, with no
//     way to tell *whose* job failed or why.
// A JobHandle scopes both concerns to one logical job: tasks submitted with
// the handle are counted against that job only, wait() terminates as soon
// as *this job's* tasks have finished regardless of other traffic, and the
// first failure (message included) is captured on the handle.
//
// Handles are cheap shared references: copy them freely, submit from any
// thread, wait from any thread.  A handle is reusable — wait() returns when
// everything submitted *so far* has finished, and more work may be
// submitted afterwards.
//
// A handle tracks completion and failure only.  Trace and counter brackets
// belong to the client that knows what a task means: md::Engine brackets
// its own task chains under its phase tags, so the executor never charges
// untagged time to a worker.
//
// wait() follows the pool's spin-then-park policy (parallel/spin_wait.hpp):
// it spins on an atomic pending count before parking on the monitor, so the
// engine's phase barrier returns as soon as the last chain finishes instead
// of paying a condition-variable wakeup per phase.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>

#include "parallel/spin_wait.hpp"

namespace mwx::parallel {

class FixedThreadPool;

namespace detail {

// Shared between every copy of a JobHandle and the wrapped tasks in flight.
// A mutex/cv monitor keeps the accounting race-free (completed can never be
// observed ahead of submitted).  `pending` mirrors submitted - completed for
// waiters that spin before taking the monitor: it is changed under the mutex
// and decremented with release once a task's effects (and its failure
// record) are in place, so a waiter that reads 0 with acquire sees them all.
struct JobState {
  mutable std::mutex mutex;
  mutable std::condition_variable cv;
  long long submitted = 0;
  long long completed = 0;
  long long failed = 0;
  std::atomic<long long> pending{0};
  std::string first_error;  // message of the first task that threw

  void on_submit() {
    std::lock_guard lock(mutex);
    ++submitted;
    pending.fetch_add(1, std::memory_order_relaxed);
  }

  // Undo of on_submit when the pool rejected the push (shutdown race):
  // the task will never run, so it must not count as pending.
  void on_revoke() {
    std::lock_guard lock(mutex);
    --submitted;
    pending.fetch_sub(1, std::memory_order_release);
    if (completed == submitted) cv.notify_all();
  }

  // `error` is nullptr for success; first failure message wins.
  void finish(const char* error) {
    std::lock_guard lock(mutex);
    ++completed;
    if (error != nullptr) {
      ++failed;
      if (first_error.empty()) first_error = error;
    }
    pending.fetch_sub(1, std::memory_order_release);
    if (completed == submitted) cv.notify_all();
  }
};

}  // namespace detail

class JobHandle {
 public:
  JobHandle() : state_(std::make_shared<detail::JobState>()) {}

  // Blocks until every task submitted with this handle *so far* has
  // finished (successfully or not).  Unlike FixedThreadPool::quiesce(),
  // this cannot be starved by other clients of the same pool: only the
  // job's own counters are consulted.  Spins on the pending count for up to
  // kSpinBudget, then parks.
  void wait() const {
    detail::JobState* s = state_.get();
    if (spin_until([s] { return s->pending.load(std::memory_order_acquire) == 0; })) return;
    std::unique_lock lock(s->mutex);
    s->cv.wait(lock, [s] { return s->completed == s->submitted; });
  }

  // True when no task of this job has failed (so far).
  [[nodiscard]] bool ok() const {
    std::lock_guard lock(state_->mutex);
    return state_->failed == 0;
  }

  [[nodiscard]] long long submitted() const {
    std::lock_guard lock(state_->mutex);
    return state_->submitted;
  }

  [[nodiscard]] long long completed() const {
    std::lock_guard lock(state_->mutex);
    return state_->completed;
  }

  [[nodiscard]] long long failed() const {
    std::lock_guard lock(state_->mutex);
    return state_->failed;
  }

  // Message of the first task that terminated with an exception; empty when
  // every task (so far) succeeded.
  [[nodiscard]] std::string error() const {
    std::lock_guard lock(state_->mutex);
    return state_->first_error;
  }

 private:
  friend class FixedThreadPool;
  std::shared_ptr<detail::JobState> state_;
};

}  // namespace mwx::parallel
