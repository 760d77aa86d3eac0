// BatchScheduler — the multi-tenant job server over the re-entrant engine.
//
// Architecture (the MPJ-Express daemon shape over the paper's executor):
//
//   clients ── submit(JobRequest) ──► per-tenant FIFO queues ──┐
//                                                              │ fair-share /
//   driver threads (max_drivers) ◄── pick_job() ◄──────────────┘ EDF pick
//        │ run one job for one *quantum* (preempt_slice_steps, or to
//        │ completion when preemption is off):
//        │   first dispatch: SceneCache::load (content-hash dedup), then
//        │     Engine(copy of cached system, job's config)
//        │   continuation: the job's parked Engine, taken from its queue entry
//        │   engine.run_native(shard pool, slice) per sample interval
//        │   quantum exhausted with steps left → record_preemption, park
//        │   the engine in the re-enqueued queue entry of the same ticket
//        ▼
//   1..n_pools FixedThreadPools (shards) — shared by every concurrent job;
//   each engine phase is its own run_phase fork-join on its own slot, so
//   tenants cannot starve or corrupt each other (the re-entrancy refactor
//   this layer required).
//
// Fairness is start-time fair queueing over a virtual clock: each tenant
// accumulates virtual time  cost / weight  per dispatched *quantum* (cost ∝
// quantum steps × scene bytes, a proxy for steps × atoms), and the driver
// serves the backlogged tenant with the smallest virtual time — a weight-2
// tenant receives ~2× the work of a weight-1 tenant under contention, and an
// idle tenant re-enters at the current clock (no hoarded credit).  Charging
// per quantum (not per job) is what makes preemption fair: an oversized job
// pays for exactly the slice it ran before yielding the driver.
//
// SchedMode::Deadline keeps the same queues but picks
// earliest-deadline-first among jobs that carry a deadline_ms, falling back
// to the fair-share pick when no queued job has one — deadline tenants get
// latency SLOs, batch tenants still share the residual capacity fairly.
//
// Preemption correctness: a preempted job's continuation is the engine it
// was preempted from.  The engine is parked in the job's queue entry and the
// next dispatch calls run_native on it again, on whichever shard it lands on
// — an engine is not tied to a pool, and its energy bits are fixed by
// n_threads alone — so its final energies are bit-identical to an
// uninterrupted run by construction (split run_native calls: StepPipeline.*;
// per job through serve: ServeTrafficTest, ServeLongHorizonTest).  Nothing
// is serialized on the way: the "mws 2" checkpoint text (checkpoint_text,
// load_scene with an nref receiver, Engine::restore_continuation) is the
// export/import path, not the preemption path.  During stop() preemption is
// suppressed (the running quantum extends to completion): shutdown owes
// every accepted job a terminal state and gains nothing from more requeues.
//
// Admission control is per-tenant and global queue caps: a submission over
// either cap is returned as a Rejected ticket immediately (closed-loop
// clients back off and retry), so a misbehaving tenant cannot grow the
// queues without bound or crowd out others' admission.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "serve/job.hpp"
#include "serve/scene_cache.hpp"

namespace mwx::md {
class Engine;
}  // namespace mwx::md

namespace mwx::serve {

struct TenantQuota {
  double weight = 1.0;   // fair-share weight (2.0 = twice the service rate)
  int max_queued = 64;   // admission cap on this tenant's queued jobs
};

// Scheduling discipline for picking the next job to dispatch.
enum class SchedMode {
  FairShare,  // start-time fair queueing over tenant virtual time
  Deadline,   // EDF over deadline_ms jobs, fair-share among the rest
};

struct SchedulerConfig {
  // Worker-pool shards.  Jobs are placed on the shard with the least
  // outstanding dispatched cost (quantum steps × scene bytes) — running-job
  // *count* would let one shard collect all the oversized jobs.
  int n_pools = 1;
  int threads_per_pool = 4;
  parallel::QueueMode queue_mode = parallel::QueueMode::WorkStealing;
  // Concurrently running jobs (driver threads).  Each dispatch occupies one
  // driver for one quantum; queued jobs wait.
  int max_drivers = 4;
  // Global admission cap across all tenants' queues.
  int max_queued_total = 256;
  TenantQuota default_quota;
  std::size_t scene_cache_entries = 64;
  // Preemption quantum: a dispatched job runs at most this many steps, then
  // is re-enqueued as a continuation on the same ticket, its engine parked
  // beside it, and re-charged from its tenant's vtime — so a 100k-step job
  // cannot hold a driver slot hostage while 50-step jobs queue behind it.
  // 0 = off (every dispatch runs to completion, the pre-preemption behavior).
  int preempt_slice_steps = 0;
  // Scheduling discipline (see SchedMode).
  SchedMode mode = SchedMode::FairShare;
  // Per-ticket bound on retained samples: the newest max_samples_per_job
  // samples are kept, older ones are dropped and counted on the ticket
  // (JobTicket::samples_dropped).  A million-step job with
  // sample_interval=1 must not OOM the scheduler process.  0 = unbounded.
  std::size_t max_samples_per_job = 4096;
  // When true the drivers idle until start() — lets tests (and batch
  // clients) enqueue a full workload and observe a deterministic dispatch
  // order.  drain() and stop() release paused drivers themselves: both owe
  // the caller completion of every accepted job, which paused drivers would
  // never deliver (the pre-fix drain() deadlocked here).
  bool start_paused = false;
};

class BatchScheduler {
 public:
  explicit BatchScheduler(SchedulerConfig config = {});

  // Drains: completes every accepted job, then joins drivers and pools.
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  // Admission + enqueue.  Always returns a ticket; check status() —
  // Rejected tickets (over quota, invalid request, stopping scheduler)
  // never run and carry the reason in error().
  std::shared_ptr<JobTicket> submit(JobRequest request);

  // Sets a tenant's fair-share weight and admission cap (takes effect for
  // subsequent dispatch/admission decisions).
  void set_quota(const std::string& tenant, TenantQuota quota);

  // Releases the drivers of a start_paused scheduler (no-op otherwise).
  void start();

  // Blocks until every job accepted so far has reached a terminal state.
  // On a paused scheduler this releases the drivers first (wake-and-run):
  // waiting for paused drivers to drain a non-empty queue would deadlock.
  void drain();

  // Stops accepting (new submissions are Rejected), completes every
  // already-accepted job, joins drivers.  Idempotent and safe to call
  // concurrently (each caller returns only once the scheduler is down);
  // called by ~.
  void stop();

  struct Stats {
    long long accepted = 0;
    long long rejected = 0;
    long long completed = 0;    // Done
    long long failed = 0;       // Failed
    long long preemptions = 0;  // park + re-enqueue events
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const SceneCache& scene_cache() const { return cache_; }
  [[nodiscard]] SceneCache& scene_cache() { return cache_; }
  [[nodiscard]] const SchedulerConfig& config() const { return config_; }

  // Outstanding dispatched cost per shard (test observability).
  [[nodiscard]] std::vector<double> shard_costs() const;

 private:
  // A queued job, and for a continuation the engine it was preempted from,
  // parked until its next dispatch (null before the first).
  struct QueuedJob {
    std::shared_ptr<JobTicket> job;
    std::unique_ptr<md::Engine> engine;
  };

  struct Tenant {
    TenantQuota quota;
    std::deque<QueuedJob> queue;
    double vtime = 0.0;  // virtual time consumed / weight
  };

  // One driver dispatch: the picked job, its shard, the step quantum it may
  // run, and the cost charged to the shard (subtracted back on completion).
  struct Dispatch {
    QueuedJob queued;
    int shard = 0;
    int quantum = 0;
    double cost = 0.0;
  };

  void driver_main();
  // Picks per config_.mode and charges tenant vtime + shard cost; requires
  // lock.  Returns false when no job is queued.
  bool pick_job_locked(Dispatch* out);
  // Runs `job` for up to `quantum` steps on `shard`, on `engine` (its parked
  // engine, or null to build one from the scene).  Returns the engine if the
  // job was preempted (status back to Queued) — the caller parks it and
  // re-enqueues the job; null if the job reached a terminal state.
  std::unique_ptr<md::Engine> run_job(JobTicket& job, std::unique_ptr<md::Engine> engine,
                                      int shard, int quantum);
  // Counts the job's terminal state in stats_, then finishes its ticket: a
  // client woken by the ticket already reads itself in stats().
  void finish_job(JobTicket& job, JobStatus terminal, double pe, double ke, std::string scene,
                  std::string error);
  [[nodiscard]] static double slice_cost(const JobRequest& request, int quantum);

  SchedulerConfig config_;
  SceneCache cache_;
  std::vector<std::unique_ptr<parallel::FixedThreadPool>> pools_;

  mutable std::mutex mutex_;
  std::mutex stop_mutex_;            // serializes concurrent stop() teardowns
  std::condition_variable cv_;       // drivers wait here for work/stop
  std::condition_variable idle_cv_;  // drain()/stop() wait here
  std::map<std::string, Tenant> tenants_;  // ordered: deterministic vtime ties
  std::vector<double> shard_cost_;   // outstanding dispatched cost per shard
  int queued_total_ = 0;
  int running_ = 0;
  double vclock_ = 0.0;  // vtime of the most recent dispatch
  bool paused_ = false;
  bool stopping_ = false;
  Stats stats_;
  std::vector<std::thread> drivers_;
};

}  // namespace mwx::serve
