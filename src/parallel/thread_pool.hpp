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
// count — or, under WorkStealing, on `submitted > taken` — and on the phase
// slots holding an item it may claim, and parks on the pool's condition
// variable only when nothing arrived.  Between the barriers of a
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
// A barriered phase does not go through the task queues at all: run_phase()
// is a synchronous fork-join over a pool-owned slot table.  The caller
// publishes one phase record, items are claimed from a generation-tagged
// atomic claim word (one per 32 workers), and completion is one atomic
// count — no std::function, no queue lock and no per-item completion
// monitor.  Idle workers find
// claimable items from the same spin-then-park loop that serves the queues,
// and the caller claims items too instead of spinning while it waits.
//
// The pool schedules and counts; it does not instrument.  Task brackets
// (trace events, counter reads) are the client's: md::Engine records its
// task chains under its own phase tags.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
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

  // Runs body(item) once for every item in [0, n_items) and returns when all
  // of them have finished — the engine's phase barrier and for_chunks'.
  // Items are claimed under the pool's queue discipline:
  //   * Single       — by any thread, in item order;
  //   * PerThread    — item c only by worker c % n_threads; the caller runs
  //                    an item only if it is that worker;
  //   * WorkStealing — worker c % n_threads first, and idle threads (the
  //                    caller included) take the rest, counted in steals().
  // A phase has at most U claims, U being the largest multiple of n_threads
  // that fits the slot's claim words (32 bits each, one word per 32
  // workers); with more items, claim u runs items u, u + U, u + 2U, ... in
  // order, so every item of a claim has the same preferred worker at any
  // pool width.  When `caller_runs` is false the caller only waits, so every
  // item runs on a pool worker.  A throwing item does not stop the others;
  // once all have run, the first failure is rethrown as ContractError
  // carrying its message.  A pool worker may call run_phase on its own pool:
  // while it waits it serves other phases' items.  Concurrent callers each
  // take their own slot; with every slot taken, a caller waits for one (a
  // pool worker serves phases meanwhile).  Throws ContractError after
  // shutdown.
  template <typename Body>
  void run_phase(int n_items, Body&& body, bool caller_runs = true) {
    using Fn = std::remove_reference_t<Body>;
    run_phase_erased(
        n_items, [](void* fn, int item) { (*static_cast<Fn*>(fn))(item); },
        const_cast<void*>(static_cast<const void*>(&body)), caller_runs);
  }

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

  // Successful steals (WorkStealing mode only): tasks taken from a peer's
  // deque or inbox, and phase items claimed by a thread other than their
  // preferred worker.
  [[nodiscard]] long long steals() const { return steals_.load(std::memory_order_relaxed); }

 private:
  using PhaseFn = void (*)(void*, int);

  // One in-flight run_phase.  The record fields are written by the owning
  // caller before it publishes the claim words (release) and read by a
  // claimant only after its claim succeeded (acquire); the owner rewrites
  // them only after `pending` has reached zero, so no claimant is left
  // reading.
  struct alignas(64) PhaseSlot {
    // Claim word k: generation << 32 | unclaimed state.  Under Single, word
    // 0 holds the count of unclaimed items (a claim that finds `count` left
    // takes item n - count); otherwise bit b of word k is claim 32k + b.  A
    // claim is a CAS on a whole word, so a helper that read an earlier
    // generation can never claim into a later phase.  Word 0 shares the
    // record's cache line; pools wider than 32 workers keep words 1.. in
    // `more`.
    std::atomic<std::uint64_t> claim{0};
    std::unique_ptr<std::atomic<std::uint64_t>[]> more;
    std::atomic<int> pending{0};  // claims not yet finished
    PhaseFn fn = nullptr;
    void* body = nullptr;
    int n_items = 0;
    int n_claims = 0;  // U: claim u runs items u, u + U, u + 2U, ...
    std::mutex error_mutex;
    bool failed = false;  // first item failure and its message, under
    std::string error;    // error_mutex; the owner reads them once done
    std::atomic<std::uint64_t>& word(int k) { return k == 0 ? claim : more[k - 1]; }
    const std::atomic<std::uint64_t>& word(int k) const { return k == 0 ? claim : more[k - 1]; }
  };
  static constexpr int kPhaseSlots = 16;
  static_assert(kPhaseSlots <= 32, "the slot masks are 32-bit words");

  void run_phase_erased(int n_items, PhaseFn fn, void* body, bool caller_runs);
  [[nodiscard]] int acquire_slot();
  // Claims one claim of `slot` as thread `me` (a worker index, or -1 for an
  // external caller) under the pool's discipline.  Returns the claim index,
  // or -1 when nothing is left that `me` may claim.
  int try_claim(PhaseSlot& slot, int me);
  // Worker `me`'s claims in word k: the bits b with (32k + b) % n_threads
  // == me, below max_claims_.
  [[nodiscard]] std::uint32_t own_claims(int me, int k) const {
    return own_claims_[static_cast<std::size_t>(me * claim_words_ + k)];
  }
  void run_claim(PhaseSlot& slot, int claim);
  // Runs every phase claim `me` can take across the slot table; true when it
  // ran at least one.
  bool serve_phases(int me);
  [[nodiscard]] bool claimable(int me) const;
  [[nodiscard]] bool has_task(int worker) const;
  std::optional<Task> take_task(int worker);
  // Spin-then-park on the pool's one sleep monitor until ready() holds.
  template <typename Ready>
  void wait_until(Ready&& ready);
  // Wakes parked threads, touching the monitor only when one is parked.
  void wake_parked();

  // submit()'s target: 0 under Single, the calling worker itself, or the
  // next worker round-robin.
  int next_target();
  void worker_main(int index);
  void run_one(Task task);
  void note_failure(const char* what);
  void enqueue(int worker, Task task);
  // Single: the one shared queue; otherwise the worker's queue (its inbox
  // under WorkStealing).
  [[nodiscard]] TaskQueue& queue_for(int worker) const;

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
  // Idle workers and run_phase callers park here once their spin budget runs
  // out; submissions, phase publications and phase completions wake them.
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<int> parked_{0};
  // run_phase's slot table: a bit per free slot, and a bit per slot whose
  // phase is still running (cleared by its owner once every item is done).
  std::array<PhaseSlot, kPhaseSlots> slots_;
  std::atomic<std::uint32_t> free_slots_{(1u << kPhaseSlots) - 1};
  std::atomic<std::uint32_t> open_slots_{0};
  int claim_words_ = 1;  // claim words per slot: one per 32 workers
  int max_claims_ = 0;   // the largest multiple of n_threads in 32 * claim_words_
  std::vector<std::uint32_t> own_claims_;  // see own_claims()
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
