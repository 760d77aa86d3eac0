// FixedThreadPool — the ExecutorService analogue, as a fork-join pool.
//
// Parallel MW creates "one or more fixed sized thread pools ... when the
// application starts" and dispatches each phase's work to them
// (Sections I, II-B).  Here a phase is one run_phase() call: a synchronous
// fork-join over a pool-owned slot table.  The caller publishes one phase
// record, items are claimed from a generation-tagged atomic claim word (one
// per 32 workers), and completion is one atomic count — no std::function,
// no queue lock and no per-item completion monitor.  The caller claims
// items too instead of only waiting.  Three claim disciplines stand in for
// the paper's queue configurations; the first two match its discussion of
// their trade-off, the third resolves it:
//   * QueueMode::Single       — one shared claim counter; any thread takes
//                               the next item, but all contend on one word.
//   * QueueMode::PerThread    — item c belongs to worker c % n_threads; no
//                               contention, but an item waits for its owner
//                               even when other threads are idle.
//   * QueueMode::WorkStealing — item c prefers worker c % n_threads; an idle
//                               thread takes the claim its owner would reach
//                               last, so no item strands behind a busy owner.
// Workers may optionally be pinned to PUs at startup (the JNI
// sched_setaffinity experiment of Section V-B).
//
// An idle worker does not park right away, as a Java pool thread does: it
// spins for up to kSpinBudget (parallel/spin_wait.hpp) on the phase slots
// holding an item it may claim, and parks on the pool's wake word only when
// nothing arrived.  Between the barriers of a sub-millisecond timestep the
// workers therefore stay awake, and a new phase's items start without a
// wakeup.  The simulator (sim::Machine) still models the JVM's
// park/unpark costs; this policy is the native pool's only.
//
// The pool is re-entrant: independent clients (engines, tenants) may run
// phases concurrently, each waiting only for its own.  A worker of pool A
// running a phase on pool B is an external caller to B (per-pool
// thread-locals), so pools compose.
//
// The pool schedules and counts; it does not instrument.  Item brackets
// (trace events, counter reads) are the client's: md::Engine records its
// task chains under its own phase tags.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "parallel/affinity.hpp"
#include "topo/cpuset.hpp"

namespace mwx::parallel {

enum class QueueMode { Single, PerThread, WorkStealing };

struct ThreadPoolConfig {
  int n_threads = 1;
  QueueMode queue_mode = QueueMode::Single;
  // When non-empty, worker i is pinned to pin_masks[i % pin_masks.size()].
  std::vector<topo::CpuSet> pin_masks{};
};

class FixedThreadPool {
 public:
  explicit FixedThreadPool(ThreadPoolConfig config);

  // Joins all workers after the open phases have finished.
  ~FixedThreadPool();

  FixedThreadPool(const FixedThreadPool&) = delete;
  FixedThreadPool& operator=(const FixedThreadPool&) = delete;

  [[nodiscard]] int n_threads() const { return config_.n_threads; }

  // Runs body(item) once for every item in [0, n_items) and returns when all
  // of them have finished — the engine's phase barrier and for_chunks'.
  // Items are claimed under the pool's claim discipline (its QueueMode):
  //   * Single       — by any thread, in item order;
  //   * PerThread    — item c only by worker c % n_threads; the caller runs
  //                    an item only if it is that worker;
  //   * WorkStealing — worker c % n_threads first, and idle threads (the
  //                    caller included) take the rest, counted in steals().
  // A phase has at most U claims, U being the largest multiple of n_threads
  // that fits the slot's claim words (32 bits each, one word per 32
  // workers); with more items, claim u runs items u, u + U, u + 2U, ... in
  // order, so every item of a claim has the same preferred worker at any
  // pool width.  The caller always claims what its discipline allows, so a
  // phase runs one schedule whether or not its items are instrumented.  A
  // throwing item does not stop the others; once all have run, the first
  // failure is rethrown as ContractError carrying its message.  A pool
  // worker may call run_phase on its own pool: while it waits it serves
  // other phases' items.  Concurrent callers each take their own slot; with
  // every slot taken, a caller waits for one (a pool worker serves phases
  // meanwhile).  Throws ContractError after shutdown.
  template <typename Body>
  void run_phase(int n_items, Body&& body) {
    using Fn = std::remove_reference_t<Body>;
    run_phase_erased(
        n_items, [](void* fn, int item) { (*static_cast<Fn*>(fn))(item); },
        const_cast<void*>(static_cast<const void*>(&body)));
  }

  // Stops new phases, lets the open ones finish, joins the workers.
  // Idempotent; concurrent callers all return after the join.
  void shutdown();

  // The calling thread's worker index in this pool, or -1 when it is not one
  // of this pool's workers (a worker of another pool included).
  [[nodiscard]] int worker_index() const;

  // Successful steals (WorkStealing mode only): phase claims taken by a
  // thread other than their preferred worker.
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
    // The first failing item wins `failed` and alone writes `error`; the
    // owner reads both once `pending` has reached zero.
    std::atomic<bool> failed{false};
    std::string error;
    std::atomic<std::uint64_t>& word(int k) { return k == 0 ? claim : more[k - 1]; }
    const std::atomic<std::uint64_t>& word(int k) const { return k == 0 ? claim : more[k - 1]; }
  };
  static constexpr int kPhaseSlots = 16;
  static_assert(kPhaseSlots <= 32, "the slot masks are 32-bit words");

  void run_phase_erased(int n_items, PhaseFn fn, void* body);
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
  // Spin-then-park on wake_ until ready() holds.
  template <typename Ready>
  void wait_until(Ready&& ready);
  // Bumps wake_ and wakes every thread parked on it.
  void wake_parked();

  void worker_main(int index);

  ThreadPoolConfig config_;
  std::vector<std::thread> threads_;
  // Every steal writes steals_, and every claim reads config_: one cache line
  // for both would bounce between the claimants.
  alignas(64) std::atomic<long long> steals_{0};
  // Idle workers and run_phase callers park on this word once their spin
  // budget runs out; phase publications, phase completions and shutdown bump
  // it after their own write and notify.
  std::atomic<std::uint32_t> wake_{0};
  // run_phase's slot table: a bit per free slot, and a bit per slot whose
  // phase is still running (cleared by its owner once every item is done).
  std::array<PhaseSlot, kPhaseSlots> slots_;
  std::atomic<std::uint32_t> free_slots_{(1u << kPhaseSlots) - 1};
  std::atomic<std::uint32_t> open_slots_{0};
  // Every run_phase writes the two masks above twice; every claim and every
  // idle poll reads the fields below, so they start a cache line of their own.
  alignas(64) int claim_words_ = 1;  // claim words per slot: one per 32 workers
  int max_claims_ = 0;   // the largest multiple of n_threads in 32 * claim_words_
  std::vector<std::uint32_t> own_claims_;  // see own_claims()
  std::atomic<bool> closing_{false};
  // shutdown() must be idempotent *and* safe against concurrent callers
  // (explicit shutdown racing the destructor): the mutex makes the
  // check-and-set of closing_ one step, and makes every caller wait until
  // the workers are actually joined before returning.
  std::mutex shutdown_mutex_;
};

}  // namespace mwx::parallel
