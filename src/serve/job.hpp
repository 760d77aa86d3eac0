// mwx::serve job vocabulary — what a client submits and what it streams back.
//
// The ROADMAP's "simulation-as-a-service" shape, in the mold of MPJ
// Express's runtime daemon: a client hands the scheduler a Job (scene + step
// budget + decomposition width) and receives a JobTicket, a shared handle it
// can poll or block on while the scheduler runs the job over the shared
// worker pools.  Observables stream into the ticket as Samples at the
// requested cadence; the final energies (and optionally the final scene — a
// trajectory endpoint that can be resubmitted to continue the run) land on
// the ticket when the job finishes.
//
// Determinism contract: a job's energies are bit-identical to running the
// same scene + EngineConfig on a dedicated single-engine pool, no matter how
// many tenants share the pools — the engine's accumulation-slot chains fix
// the floating-point order by n_threads alone (see md/engine.hpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "sim/access.hpp"

namespace mwx::serve {

enum class JobStatus {
  Queued,    // accepted, waiting for a driver
  Running,   // stepping on a shard
  Done,      // all steps completed; final energies valid
  Failed,    // a step or the scene parse threw; error() has the message
  Rejected,  // admission control refused it; never ran
};

[[nodiscard]] inline const char* to_string(JobStatus s) {
  switch (s) {
    case JobStatus::Queued: return "queued";
    case JobStatus::Running: return "running";
    case JobStatus::Done: return "done";
    case JobStatus::Failed: return "failed";
    case JobStatus::Rejected: return "rejected";
  }
  return "?";
}

// One streamed observable record.
struct Sample {
  long long step = 0;
  double pe = 0.0;  // potential energy, engine units
  double ke = 0.0;  // kinetic energy
};

struct JobRequest {
  std::string tenant = "default";  // fair-share / quota bucket
  // The scene as an .mws document (md/scene_io).  Also the scene-cache key:
  // scene_io is byte-stable, so identical systems serialize identically and
  // deduplicate to one parse.
  std::string scene_text;
  int steps = 100;
  // Decomposition width: fixes n_slots and therefore the energy bits.  NOT
  // the number of threads the job gets — workers are shared property of the
  // scheduler's pools.
  int n_threads = 2;
  int chunks_per_thread = 1;
  sim::Assignment assignment = sim::Assignment::Static;
  // Stream (step, pe, ke) every `sample_interval` steps; 0 = final sample
  // only.
  int sample_interval = 0;
  // Stream back the final scene (save_scene of the end state).
  bool return_scene = false;
  // Latency SLO: the job should reach a terminal state within `deadline_ms`
  // of submission.  0 = no deadline.  Under SchedMode::Deadline the
  // scheduler orders deadline jobs earliest-deadline-first; in every mode
  // the ticket's deadline_missed() reports whether the SLO held.
  double deadline_ms = 0.0;
  // Integrator/cutoff parameters (scene files carry geometry, not these).
  double dt_fs = 2.0;
  double cutoff = 8.0;
  double skin = 0.9;
};

// Shared client/scheduler handle for one submitted job.  Clients hold it as
// a shared_ptr; every accessor is thread-safe.
class JobTicket {
 public:
  explicit JobTicket(JobRequest request) : request_(std::move(request)) {}

  JobTicket(const JobTicket&) = delete;
  JobTicket& operator=(const JobTicket&) = delete;

  [[nodiscard]] const JobRequest& request() const { return request_; }

  [[nodiscard]] JobStatus status() const {
    std::lock_guard lock(mutex_);
    return status_;
  }

  // Blocks until the job reaches a terminal state (Done/Failed/Rejected).
  void wait() const {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] {
      return status_ == JobStatus::Done || status_ == JobStatus::Failed ||
             status_ == JobStatus::Rejected;
    });
  }

  // Snapshot of the observables streamed so far (monotone in step).  When a
  // sample cap is set (BatchScheduler does), this is a ring of the most
  // recent samples; samples_dropped() counts evictions.
  [[nodiscard]] std::vector<Sample> samples() const {
    std::lock_guard lock(mutex_);
    return {samples_.begin(), samples_.end()};
  }

  // Samples evicted from the ring because the cap was reached.
  [[nodiscard]] long long samples_dropped() const {
    std::lock_guard lock(mutex_);
    return samples_dropped_;
  }

  // Times this job was preempted and re-enqueued mid-run (0 when the
  // scheduler ran it in one dispatch).
  [[nodiscard]] long long preemptions() const {
    std::lock_guard lock(mutex_);
    return preemptions_;
  }

  // Steps integrated so far (request().steps once Done).
  [[nodiscard]] long long steps_completed() const {
    std::lock_guard lock(mutex_);
    return steps_completed_;
  }

  // True once terminal if request().deadline_ms was set and the job reached
  // its terminal state after the deadline.
  [[nodiscard]] bool deadline_missed() const {
    std::lock_guard lock(mutex_);
    return deadline_missed_;
  }

  // Pool shard of the most recent dispatch (-1 before the first).
  [[nodiscard]] int shard() const {
    std::lock_guard lock(mutex_);
    return shard_;
  }

  // Final energies — valid once status() == Done.
  [[nodiscard]] double potential_energy() const {
    std::lock_guard lock(mutex_);
    return final_pe_;
  }
  [[nodiscard]] double kinetic_energy() const {
    std::lock_guard lock(mutex_);
    return final_ke_;
  }
  [[nodiscard]] double total_energy() const {
    std::lock_guard lock(mutex_);
    return final_pe_ + final_ke_;
  }

  // Failure / rejection reason ("" otherwise).
  [[nodiscard]] std::string error() const {
    std::lock_guard lock(mutex_);
    return error_;
  }

  // Final scene text when request().return_scene was set ("" otherwise).
  [[nodiscard]] std::string final_scene() const {
    std::lock_guard lock(mutex_);
    return final_scene_;
  }

  // Submit-to-terminal latency and submit-to-start queueing delay, seconds.
  // Valid once terminal (0 for rejected start time).
  [[nodiscard]] double latency_seconds() const {
    std::lock_guard lock(mutex_);
    return latency_seconds_;
  }
  [[nodiscard]] double queue_seconds() const {
    std::lock_guard lock(mutex_);
    return queue_seconds_;
  }

 private:
  friend class BatchScheduler;
  using Clock = std::chrono::steady_clock;

  void mark_submitted() {
    std::lock_guard lock(mutex_);
    submitted_at_ = Clock::now();
    if (request_.deadline_ms > 0.0) {
      deadline_at_ = submitted_at_ +
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(request_.deadline_ms));
    }
  }

  // Cap on retained samples (0 = unbounded); set by the scheduler before the
  // ticket is shared, never changed after.
  void set_sample_cap(std::size_t cap) {
    std::lock_guard lock(mutex_);
    sample_cap_ = cap;
  }

  void mark_running(int shard) {
    std::lock_guard lock(mutex_);
    status_ = JobStatus::Running;
    shard_ = shard;
    // Queue delay is submit-to-*first*-start; continuations re-entering the
    // queue after a preemption don't reset it.
    if (!started_) {
      started_ = true;
      queue_seconds_ = std::chrono::duration<double>(Clock::now() - submitted_at_).count();
    }
  }

  void push_sample(const Sample& s) {
    std::lock_guard lock(mutex_);
    if (sample_cap_ > 0 && samples_.size() >= sample_cap_) {
      samples_.pop_front();
      ++samples_dropped_;
    }
    samples_.push_back(s);
  }

  // Preemption: the job leaves its driver mid-run after a quantum of
  // `steps_ran` steps; the scheduler parks its engine for the continuation.
  // Status returns to Queued — the caller re-enqueues the same ticket.
  void record_preemption(long long steps_ran) {
    std::lock_guard lock(mutex_);
    status_ = JobStatus::Queued;
    steps_completed_ += steps_ran;
    ++preemptions_;
  }

  void finish(JobStatus terminal, double pe, double ke, std::string scene,
              std::string error) {
    std::lock_guard lock(mutex_);
    status_ = terminal;
    final_pe_ = pe;
    final_ke_ = ke;
    final_scene_ = std::move(scene);
    error_ = std::move(error);
    if (terminal == JobStatus::Done) steps_completed_ = request_.steps;
    const Clock::time_point now = Clock::now();
    latency_seconds_ = std::chrono::duration<double>(now - submitted_at_).count();
    if (request_.deadline_ms > 0.0 && terminal != JobStatus::Rejected) {
      deadline_missed_ = now > deadline_at_;
    }
    cv_.notify_all();
  }

  JobRequest request_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  JobStatus status_ = JobStatus::Queued;
  std::deque<Sample> samples_;
  std::size_t sample_cap_ = 0;
  long long samples_dropped_ = 0;
  long long preemptions_ = 0;
  long long steps_completed_ = 0;
  int shard_ = -1;
  bool started_ = false;
  bool deadline_missed_ = false;
  double final_pe_ = 0.0;
  double final_ke_ = 0.0;
  std::string final_scene_;
  std::string error_;
  Clock::time_point submitted_at_ = Clock::now();
  // Absolute deadline; written once in mark_submitted() (before the ticket
  // is shared) and immutable after — the scheduler's EDF pick reads it
  // without taking the ticket lock.
  Clock::time_point deadline_at_ = Clock::time_point::max();
  double latency_seconds_ = 0.0;
  double queue_seconds_ = 0.0;
};

}  // namespace mwx::serve
