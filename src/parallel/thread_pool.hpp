// FixedThreadPool — the ExecutorService analogue.
//
// Parallel MW creates "one or more fixed sized thread pools ... when the
// application starts" and dispatches each phase's work to them
// (Sections I, II-B).  Three queue configurations are supported.  The first
// two match the paper's discussion of their trade-off; the third resolves it:
//   * QueueMode::Single       — one shared queue; any idle worker picks up
//                               waiting work, but all workers contend on it.
//   * QueueMode::PerThread    — one queue per worker; no contention, but work
//                               sits if its designated queue's owner is busy.
//   * QueueMode::WorkStealing — one Chase–Lev deque per worker.  Owners push
//                               and pop lock-free; an idle worker steals the
//                               oldest task from a busy peer, so there is
//                               neither a global contention point nor
//                               stranded work.  External submissions land in
//                               a per-worker inbox (a small mutex queue) that
//                               the owner drains into its deque — and that
//                               thieves may also raid while the owner is busy.
// Workers may optionally be pinned to PUs at startup (the JNI
// sched_setaffinity experiment of Section V-B).
//
// An idle worker does not park right away, as a Java pool thread does: it
// spins for up to kSpinBudget (parallel/spin_wait.hpp) on its queue's task
// count — or, under WorkStealing, on `submitted > taken` — and parks on a
// condition variable only when nothing arrived.  Between the barriers of a
// sub-millisecond timestep the workers therefore stay awake, and a new
// phase's tasks start without a wakeup.  The simulator (sim::Machine) still
// models the JVM's park/unpark costs; this policy is the native pool's only.
//
// The pool is re-entrant: N independent clients (engines, tenants) may
// submit concurrently and each track completion of its own work through a
// JobHandle (parallel/job.hpp) — quiesce() remains the single-owner drain.
// A worker of pool A submitting to pool B is treated as an external caller
// by B (per-pool thread-locals), so pools compose.
//
// The pool schedules and counts; it does not instrument.  Task brackets
// (trace events, counter reads) are the client's: md::Engine records its
// task chains under its own phase tags.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "parallel/affinity.hpp"
#include "parallel/job.hpp"
#include "parallel/steal_deque.hpp"
#include "parallel/task_queue.hpp"
#include "topo/cpuset.hpp"

namespace mwx::parallel {

enum class QueueMode { Single, PerThread, WorkStealing };

struct ThreadPoolConfig {
  int n_threads = 1;
  QueueMode queue_mode = QueueMode::Single;
  // When non-empty, worker i is pinned to pin_masks[i % pin_masks.size()].
  std::vector<topo::CpuSet> pin_masks{};
  std::string name_prefix = "mwx-worker";
};

class FixedThreadPool {
 public:
  explicit FixedThreadPool(ThreadPoolConfig config);

  // Joins all workers after draining queued tasks.
  ~FixedThreadPool();

  FixedThreadPool(const FixedThreadPool&) = delete;
  FixedThreadPool& operator=(const FixedThreadPool&) = delete;

  [[nodiscard]] int n_threads() const { return config_.n_threads; }
  [[nodiscard]] const ThreadPoolConfig& config() const { return config_; }

  // Submits to the shared queue (Single mode) or round-robins
  // (PerThread/WorkStealing).  Throws ContractError after shutdown — a
  // silently dropped task would leave quiesce() waiting forever.
  void submit(Task task);

  // Submits to a specific worker's queue.  In Single mode this degrades to
  // submit() since all workers share one queue — same semantics Java gives a
  // single-queue executor.  In WorkStealing mode the target is a preference:
  // the task lands in `worker`'s inbox/deque but may be stolen by an idle
  // peer.  Throws ContractError after shutdown.
  void submit_to(int worker, Task task);

  // Job-scoped variants: the task is additionally counted against `job`, so
  // job.wait() terminates when that job's tasks are done — even while other
  // clients keep the pool busy — and a task that throws records its message
  // on the handle (and in last_error()) instead of vanishing into a counter.
  // These are what make the pool safely shareable between concurrent
  // engines/tenants.
  void submit(Task task, const JobHandle& job);
  void submit_to(int worker, Task task, const JobHandle& job);

  // Blocks until every queued task has completed (workers stay alive).
  // Pool-global: this counts *all* clients' submissions, so with another
  // client continuously submitting it may never return.  Single-owner pools
  // (the benches, the original one-app model) use it freely; multi-tenant
  // callers should wait on their own JobHandle instead.
  void quiesce();

  // Stops accepting work, drains queues, joins workers.  Idempotent.
  void shutdown();

  // Index of the calling pool worker, or -1 when called from outside.
  static int current_worker();

  // Tasks that terminated with an exception (the worker survives; the task
  // is still counted as completed for quiesce()).
  [[nodiscard]] long long failed_tasks() const {
    return failed_.load(std::memory_order_relaxed);
  }

  // Message of the first task exception this pool ever swallowed, "" if
  // none.  The first message is kept (not the latest): later failures are
  // usually cascade, the first is the root cause.  Per-job diagnostics live
  // on the JobHandle; this is the pool-wide backstop for tasks submitted
  // without one.
  [[nodiscard]] std::string last_error() const {
    std::lock_guard lock(error_mutex_);
    return last_error_;
  }

  // Test hook: places the round-robin cursor used by submit()'s
  // PerThread/WorkStealing target choice.  Exists so the 2^31/2^64
  // wraparound regression tests can reach the wrap point without issuing
  // billions of submissions (the cursor used to be a signed int whose
  // fetch_add wrapped negative and made `% n_threads` non-positive).
  void seed_round_robin(std::uint64_t value) {
    round_robin_.store(value, std::memory_order_relaxed);
  }

  // Successful steals performed by pool workers (WorkStealing mode only).
  [[nodiscard]] long long steals() const { return steals_.load(std::memory_order_relaxed); }

 private:
  void worker_main(int index);
  void worker_main_stealing(int index);
  void run_one(Task task);
  void note_failure(const char* what);
  void enqueue(int worker, Task task);
  TaskQueue& queue_for(int worker);

  ThreadPoolConfig config_;
  std::vector<std::unique_ptr<TaskQueue>> queues_;   // Single/PerThread queues; WS inboxes
  std::vector<std::unique_ptr<StealDeque>> deques_;  // WorkStealing mode only
  std::vector<std::thread> threads_;
  // Unsigned so the fetch_add wraps to 0 instead of going negative: the old
  // std::atomic<int> made `% n_threads` non-positive after 2^31 submissions
  // and submit_to()'s range check killed an otherwise-healthy pool.
  std::atomic<std::uint64_t> round_robin_{0};
  std::atomic<long long> submitted_{0};
  std::atomic<long long> taken_{0};  // tasks claimed by a worker (WS sleep predicate)
  std::atomic<long long> completed_{0};
  std::atomic<long long> failed_{0};
  std::atomic<long long> steals_{0};
  std::mutex quiesce_mutex_;
  std::condition_variable quiesce_cv_;
  // WorkStealing idle workers park here once their spin budget runs out;
  // submissions wake them.
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<bool> closing_{false};
  // shutdown() must be idempotent *and* safe against concurrent callers
  // (explicit shutdown racing the destructor): the atomic flag makes the
  // check-and-set a single operation, and the mutex makes every caller wait
  // until the workers are actually joined before returning.
  std::atomic<bool> shutdown_{false};
  std::mutex shutdown_mutex_;
  // First task-exception message (see last_error()).
  mutable std::mutex error_mutex_;
  std::string last_error_;
};

}  // namespace mwx::parallel
