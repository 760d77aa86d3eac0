#include "serve/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "common/require.hpp"
#include "md/engine.hpp"

namespace mwx::serve {

BatchScheduler::BatchScheduler(SchedulerConfig config)
    : config_(config), cache_(config.scene_cache_entries) {
  require(config_.n_pools > 0, "scheduler needs at least one pool");
  require(config_.threads_per_pool > 0, "pools need at least one thread");
  require(config_.max_drivers > 0, "scheduler needs at least one driver");
  require(config_.max_queued_total > 0, "global admission cap must be positive");
  require(config_.preempt_slice_steps >= 0, "preempt_slice_steps must be non-negative");
  pools_.reserve(static_cast<std::size_t>(config_.n_pools));
  for (int p = 0; p < config_.n_pools; ++p) {
    pools_.push_back(std::make_unique<parallel::FixedThreadPool>(parallel::ThreadPoolConfig{
        .n_threads = config_.threads_per_pool,
        .queue_mode = config_.queue_mode}));
  }
  shard_cost_.assign(static_cast<std::size_t>(config_.n_pools), 0.0);
  paused_ = config_.start_paused;
  drivers_.reserve(static_cast<std::size_t>(config_.max_drivers));
  for (int d = 0; d < config_.max_drivers; ++d) {
    drivers_.emplace_back([this] { driver_main(); });
  }
}

BatchScheduler::~BatchScheduler() { stop(); }

double BatchScheduler::slice_cost(const JobRequest& request, int quantum) {
  // Work proxy: quantum steps × scene bytes.  The .mws text is ~one line per
  // atom, so bytes ∝ atoms and cost ∝ steps × atoms — close enough to true
  // work for fair-share and shard-balance purposes without parsing at
  // dispatch time.  Charged per quantum, so a preempted job pays for the
  // slice it ran, not its full length up front.
  return static_cast<double>(quantum) *
         static_cast<double>(std::max<std::size_t>(1, request.scene_text.size()));
}

std::shared_ptr<JobTicket> BatchScheduler::submit(JobRequest request) {
  auto reject = [this](JobRequest req, const std::string& why) {
    auto ticket = std::make_shared<JobTicket>(std::move(req));
    ticket->mark_submitted();
    ticket->finish(JobStatus::Rejected, 0.0, 0.0, "", why);
    std::lock_guard lock(mutex_);
    ++stats_.rejected;
    return ticket;
  };

  if (request.scene_text.empty()) return reject(std::move(request), "empty scene");
  if (request.steps <= 0) return reject(std::move(request), "steps must be positive");
  if (request.n_threads <= 0 || request.chunks_per_thread <= 0) {
    return reject(std::move(request), "decomposition width must be positive");
  }
  if (request.sample_interval < 0) {
    return reject(std::move(request), "sample_interval must be non-negative");
  }
  if (request.deadline_ms < 0.0) {
    return reject(std::move(request), "deadline_ms must be non-negative");
  }

  auto ticket = std::make_shared<JobTicket>(std::move(request));
  ticket->set_sample_cap(config_.max_samples_per_job);
  ticket->mark_submitted();
  {
    std::lock_guard lock(mutex_);
    if (stopping_) {
      ticket->finish(JobStatus::Rejected, 0.0, 0.0, "", "scheduler is stopping");
      ++stats_.rejected;
      return ticket;
    }
    auto [it, inserted] = tenants_.try_emplace(ticket->request().tenant);
    Tenant& tenant = it->second;
    if (inserted) tenant.quota = config_.default_quota;
    if (queued_total_ >= config_.max_queued_total) {
      ticket->finish(JobStatus::Rejected, 0.0, 0.0, "", "global queue full");
      ++stats_.rejected;
      return ticket;
    }
    if (static_cast<int>(tenant.queue.size()) >= tenant.quota.max_queued) {
      ticket->finish(JobStatus::Rejected, 0.0, 0.0, "", "tenant queue full");
      ++stats_.rejected;
      return ticket;
    }
    // A tenant going from idle to backlogged joins at the current virtual
    // clock: it competes fairly from now on but cannot spend an idle period
    // as hoarded credit.
    if (tenant.queue.empty()) tenant.vtime = std::max(tenant.vtime, vclock_);
    tenant.queue.push_back({ticket, nullptr});
    ++queued_total_;
    ++stats_.accepted;
  }
  cv_.notify_one();
  return ticket;
}

void BatchScheduler::set_quota(const std::string& tenant, TenantQuota quota) {
  require(quota.weight > 0.0, "tenant weight must be positive");
  require(quota.max_queued > 0, "tenant admission cap must be positive");
  std::lock_guard lock(mutex_);
  tenants_.try_emplace(tenant).first->second.quota = quota;
}

void BatchScheduler::start() {
  {
    std::lock_guard lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

void BatchScheduler::drain() {
  {
    std::lock_guard lock(mutex_);
    // Wake-and-run: drain() promises completion of every accepted job, and
    // paused drivers never pick work — waiting on them with a non-empty
    // queue deadlocked here before this release was added.
    paused_ = false;
  }
  cv_.notify_all();
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queued_total_ == 0 && running_ == 0; });
}

void BatchScheduler::stop() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
    paused_ = false;  // a paused scheduler still owes its accepted jobs
  }
  cv_.notify_all();
  // Serialize the teardown: concurrent stop() callers (including ~) queue
  // here, and each returns only once drivers are joined and pools are down
  // (pool shutdown itself is idempotent).
  std::lock_guard stop_lock(stop_mutex_);
  {
    std::unique_lock lock(mutex_);
    idle_cv_.wait(lock, [this] { return queued_total_ == 0 && running_ == 0; });
  }
  std::vector<std::thread> drivers;
  {
    std::lock_guard lock(mutex_);
    drivers.swap(drivers_);
  }
  for (auto& d : drivers) {
    if (d.joinable()) d.join();
  }
  for (auto& pool : pools_) pool->shutdown();
}

BatchScheduler::Stats BatchScheduler::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

bool BatchScheduler::pick_job_locked(Dispatch* out) {
  Tenant* tenant = nullptr;
  std::deque<QueuedJob>::iterator pos;

  if (config_.mode == SchedMode::Deadline) {
    // EDF: earliest absolute deadline among jobs that carry one.  Ties (and
    // the no-deadline-jobs case) resolve deterministically: tenants_ is an
    // ordered map and each queue is FIFO.
    JobTicket::Clock::time_point best = JobTicket::Clock::time_point::max();
    for (auto& [name, t] : tenants_) {
      for (auto it = t.queue.begin(); it != t.queue.end(); ++it) {
        if (it->job->request().deadline_ms <= 0.0) continue;
        if (it->job->deadline_at_ < best) {
          best = it->job->deadline_at_;
          tenant = &t;
          pos = it;
        }
      }
    }
  }
  if (tenant == nullptr) {
    // Fair-share pick (SchedMode::FairShare, or Deadline with no deadline
    // job queued): backlogged tenant with minimum virtual time, FIFO within.
    for (auto& [name, t] : tenants_) {
      if (t.queue.empty()) continue;
      if (tenant == nullptr || t.vtime < tenant->vtime) tenant = &t;
    }
    if (tenant == nullptr) return false;
    pos = tenant->queue.begin();
  }

  QueuedJob queued = std::move(*pos);
  tenant->queue.erase(pos);
  --queued_total_;
  const JobTicket& job = *queued.job;

  const int remaining = job.request().steps - static_cast<int>(job.steps_completed());
  int quantum = remaining;
  if (config_.preempt_slice_steps > 0) {
    quantum = std::min(quantum, config_.preempt_slice_steps);
  }
  const double cost = slice_cost(job.request(), quantum);
  vclock_ = tenant->vtime;
  tenant->vtime += cost / tenant->quota.weight;

  // Least outstanding dispatched *cost*, not running-job count: with counts,
  // one shard can collect every oversized job while the other idles through
  // its 50-step neighbors.
  int shard = 0;
  for (int p = 1; p < config_.n_pools; ++p) {
    if (shard_cost_[static_cast<std::size_t>(p)] <
        shard_cost_[static_cast<std::size_t>(shard)]) {
      shard = p;
    }
  }
  shard_cost_[static_cast<std::size_t>(shard)] += cost;
  ++running_;
  out->queued = std::move(queued);
  out->shard = shard;
  out->quantum = quantum;
  out->cost = cost;
  return true;
}

void BatchScheduler::driver_main() {
  for (;;) {
    Dispatch d;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] {
        return (!paused_ && queued_total_ > 0) || (stopping_ && queued_total_ == 0);
      });
      if (queued_total_ == 0) return;  // stopping and fully drained
      if (!pick_job_locked(&d)) continue;
      d.queued.job->mark_running(d.shard);
    }

    JobTicket& job = *d.queued.job;
    d.queued.engine = run_job(job, std::move(d.queued.engine), d.shard, d.quantum);

    {
      std::lock_guard lock(mutex_);
      shard_cost_[static_cast<std::size_t>(d.shard)] -= d.cost;
      --running_;
      if (d.queued.engine) {
        // Re-enqueue the continuation, its engine parked beside it, on its
        // tenant's FIFO under the same lock as the running_ decrement, so
        // drain()/stop() never observe a preempted-but-unqueued job as
        // "idle".  No vtime rejoin bump: the tenant was being served, not
        // idle, and already paid for the slice.
        tenants_.find(job.request().tenant)->second.queue.push_back(std::move(d.queued));
        ++queued_total_;
        ++stats_.preemptions;
      }
    }
    idle_cv_.notify_all();
    // A queued job (possibly the continuation) may be waiting for a driver.
    cv_.notify_one();
  }
}

void BatchScheduler::finish_job(JobTicket& job, JobStatus terminal, double pe, double ke,
                                std::string scene, std::string error) {
  {
    std::lock_guard lock(mutex_);
    if (terminal == JobStatus::Done) {
      ++stats_.completed;
    } else {
      ++stats_.failed;
    }
  }
  job.finish(terminal, pe, ke, std::move(scene), std::move(error));
}

std::unique_ptr<md::Engine> BatchScheduler::run_job(JobTicket& job,
                                                    std::unique_ptr<md::Engine> engine,
                                                    int shard, int quantum) {
  const JobRequest& req = job.request();
  try {
    if (!engine) {
      md::EngineConfig cfg;
      cfg.n_threads = req.n_threads;
      cfg.chunks_per_thread = req.chunks_per_thread;
      cfg.assignment = req.assignment;
      cfg.dt_fs = req.dt_fs;
      cfg.cutoff = req.cutoff;
      cfg.skin = req.skin;
      // Private copy; the cache stays immutable.
      engine = std::make_unique<md::Engine>(*cache_.load(req.scene_text), cfg);
    }

    parallel::FixedThreadPool& pool = *pools_[static_cast<std::size_t>(shard)];
    const int si = req.sample_interval;
    const long long steps = req.steps;
    const long long base = job.steps_completed();
    long long total = base;
    long long end = base + quantum;
    while (total < steps) {
      if (total == end) {
        // Quantum exhausted with steps left.  During stop() the quantum
        // extends to completion instead: shutdown owes every accepted job a
        // terminal state and gains nothing from further requeues.
        bool preempt = false;
        {
          std::lock_guard lock(mutex_);
          preempt = !stopping_;
        }
        if (preempt) {
          job.record_preemption(total - base);
          return engine;  // parked: the next dispatch resumes this engine
        }
        end = steps;
      }
      // Run to the next sample boundary on the *global* step grid (or the
      // quantum/job end), so a preempted job streams samples at exactly the
      // steps an uninterrupted run would.
      long long next = end;
      if (si > 0) next = std::min(next, (total / si + 1) * static_cast<long long>(si));
      engine->run_native(pool, static_cast<int>(next - total));
      total = next;
      const bool at_job_end = total == steps;
      if (si > 0 ? (total % si == 0 || at_job_end) : at_job_end) {
        job.push_sample({total, engine->potential_energy(), engine->kinetic_energy()});
      }
    }
    finish_job(job, JobStatus::Done, engine->potential_energy(), engine->kinetic_energy(),
               req.return_scene ? scene_text(engine->system()) : "", "");
  } catch (const std::exception& e) {
    finish_job(job, JobStatus::Failed, 0.0, 0.0, "", e.what());
  } catch (...) {
    finish_job(job, JobStatus::Failed, 0.0, 0.0, "", "unknown exception");
  }
  return nullptr;
}

}  // namespace mwx::serve
