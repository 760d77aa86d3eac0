// mwx::serve — scene cache, batch scheduler, admission control, fair share.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/require.hpp"
#include "md/engine.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/scheduler.hpp"
#include "workloads/workloads.hpp"

namespace mwx::serve {
namespace {

std::string small_scene(std::uint64_t seed = 42) {
  return scene_text(workloads::make_lj_gas(48, 0.005, 300.0, seed));
}

SchedulerConfig small_sched(int threads_per_pool, int max_drivers) {
  SchedulerConfig sc;
  sc.threads_per_pool = threads_per_pool;
  sc.max_drivers = max_drivers;
  return sc;
}

TEST(SceneCacheTest, HashIsStableAndContentSensitive) {
  const std::string a = small_scene(1);
  const std::string b = small_scene(2);
  EXPECT_EQ(SceneCache::content_hash(a), SceneCache::content_hash(a));
  EXPECT_NE(SceneCache::content_hash(a), SceneCache::content_hash(b));
  EXPECT_NE(SceneCache::content_hash(""), SceneCache::content_hash(" "));
}

TEST(SceneCacheTest, DeduplicatesIdenticalText) {
  SceneCache cache(8);
  const std::string text = small_scene();
  const auto first = cache.load(text);
  const auto second = cache.load(text);
  EXPECT_EQ(first.get(), second.get());  // one parse, shared result
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SceneCacheTest, DistinctScenesGetDistinctEntries) {
  SceneCache cache(8);
  const auto a = cache.load(small_scene(1));
  const auto b = cache.load(small_scene(2));
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SceneCacheTest, EvictsOldestTouchedAtCapacity) {
  SceneCache cache(2);
  const std::string s1 = small_scene(1), s2 = small_scene(2), s3 = small_scene(3);
  cache.load(s1);
  cache.load(s2);
  cache.load(s1);  // touch s1 so s2 is the eviction victim
  cache.load(s3);
  EXPECT_EQ(cache.size(), 2u);
  cache.load(s1);  // still cached
  EXPECT_EQ(cache.hits(), 2);
  cache.load(s2);  // evicted → reparse
  EXPECT_EQ(cache.misses(), 4);
}

TEST(SceneCacheTest, MalformedSceneThrows) {
  SceneCache cache(4);
  EXPECT_THROW(cache.load("definitely not a scene"), ContractError);
}

TEST(SceneCacheTest, RacerBeatUsCountsAsHit) {
  // Two concurrent first loads of the same text: the loser of the insert
  // race must count a *hit* (the cache resolved its request), not a miss —
  // the pre-fix code charged the miss before re-checking under the lock and
  // under-reported hit rate.  The parse hook runs in the loser's race
  // window, where we let a second load win the insert.
  SceneCache cache(8);
  const std::string text = small_scene();
  std::atomic<bool> raced{false};
  cache.set_parse_hook([&] {
    if (raced.exchange(true)) return;  // the inner load skips the hook body
    cache.load(text);                  // racer: parses and inserts first
  });
  const auto outer = cache.load(text);
  const auto inner = cache.load(text);  // plain hit on the racer's entry
  EXPECT_EQ(outer.get(), inner.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1);  // only the racer's winning parse
  EXPECT_EQ(cache.hits(), 2);    // the outer (beaten) load + the plain hit
}

TEST(ServeTest, JobsMatchDedicatedEngineBitwise) {
  const std::string scene = small_scene();
  constexpr int kSteps = 20;

  // Dedicated reference.
  SceneCache parse(1);
  md::EngineConfig cfg;
  cfg.n_threads = 2;
  md::Engine reference(*parse.load(scene), cfg);
  parallel::FixedThreadPool dedicated({.n_threads = 2});
  reference.run_native(dedicated, kSteps);
  dedicated.shutdown();

  SchedulerConfig sc;
  sc.threads_per_pool = 4;
  sc.max_drivers = 4;
  BatchScheduler scheduler(sc);
  std::vector<std::shared_ptr<JobTicket>> tickets;
  for (int j = 0; j < 8; ++j) {
    JobRequest req;
    req.tenant = j % 2 == 0 ? "alice" : "bob";
    req.scene_text = scene;
    req.steps = kSteps;
    req.n_threads = 2;
    tickets.push_back(scheduler.submit(req));
  }
  scheduler.drain();
  for (const auto& t : tickets) {
    ASSERT_EQ(t->status(), JobStatus::Done) << t->error();
    EXPECT_EQ(t->potential_energy(), reference.potential_energy());
    EXPECT_EQ(t->kinetic_energy(), reference.kinetic_energy());
    EXPECT_GE(t->latency_seconds(), 0.0);
  }
  const BatchScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.accepted, 8);
  EXPECT_EQ(stats.completed, 8);
  EXPECT_EQ(stats.failed, 0);
}

TEST(ServeTest, SamplesStreamAtRequestedCadence) {
  JobRequest req;
  req.scene_text = small_scene();
  req.steps = 12;
  req.sample_interval = 4;
  BatchScheduler scheduler(small_sched(2, 1));
  const auto ticket = scheduler.submit(req);
  ticket->wait();
  ASSERT_EQ(ticket->status(), JobStatus::Done) << ticket->error();
  const std::vector<Sample> samples = ticket->samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].step, 4);
  EXPECT_EQ(samples[1].step, 8);
  EXPECT_EQ(samples[2].step, 12);
  EXPECT_EQ(samples.back().pe, ticket->potential_energy());
}

TEST(ServeTest, ReturnSceneIsReproducibleAndResubmittable) {
  JobRequest req;
  req.scene_text = small_scene();
  req.steps = 10;
  req.return_scene = true;
  BatchScheduler scheduler(small_sched(2, 2));
  const auto first = scheduler.submit(req);
  const auto repeat = scheduler.submit(req);
  first->wait();
  repeat->wait();
  ASSERT_EQ(first->status(), JobStatus::Done) << first->error();
  ASSERT_EQ(repeat->status(), JobStatus::Done) << repeat->error();
  // Determinism extends to the trajectory endpoint: the same job returns the
  // same scene byte-for-byte (scene_io is byte-stable), so endpoints are
  // themselves valid scene-cache keys.
  ASSERT_FALSE(first->final_scene().empty());
  EXPECT_EQ(first->final_scene(), repeat->final_scene());
  EXPECT_NE(first->final_scene(), req.scene_text);  // atoms actually moved

  // The endpoint is resubmittable — trajectory continuation as a service.
  JobRequest cont = req;
  cont.scene_text = first->final_scene();
  cont.return_scene = false;
  const auto second = scheduler.submit(cont);
  second->wait();
  ASSERT_EQ(second->status(), JobStatus::Done) << second->error();
  EXPECT_NE(second->potential_energy(), first->potential_energy());  // it kept moving
}

TEST(ServeTest, MalformedSceneFailsWithoutPoisoningOthers) {
  BatchScheduler scheduler(small_sched(2, 2));
  JobRequest bad;
  bad.scene_text = "this is not an .mws document";
  bad.steps = 5;
  JobRequest good;
  good.scene_text = small_scene();
  good.steps = 5;
  const auto bad_ticket = scheduler.submit(bad);
  const auto good_ticket = scheduler.submit(good);
  scheduler.drain();
  EXPECT_EQ(bad_ticket->status(), JobStatus::Failed);
  EXPECT_FALSE(bad_ticket->error().empty());
  EXPECT_EQ(good_ticket->status(), JobStatus::Done) << good_ticket->error();
  const BatchScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.completed, 1);
}

TEST(ServeTest, StatsCountEveryJobWhoseTicketIsTerminal) {
  // One job at a time, no drain(): the moment a ticket reads terminal,
  // stats() must already count it.  A count taken after the wake-up loses
  // the race only now and then, so the test repeats it 2000 times.
  BatchScheduler scheduler(small_sched(2, 1));
  JobRequest good;
  good.scene_text = small_scene();
  good.steps = 1;
  JobRequest bad;
  bad.scene_text = "this is not an .mws document";
  bad.steps = 1;
  constexpr int kJobs = 2000;
  long long done = 0;
  long long failed = 0;
  for (int j = 0; j < kJobs; ++j) {
    const bool fails = j % 4 == 3;
    const auto ticket = scheduler.submit(fails ? bad : good);
    ticket->wait();
    ASSERT_EQ(ticket->status(), fails ? JobStatus::Failed : JobStatus::Done) << ticket->error();
    ++(fails ? failed : done);
    const BatchScheduler::Stats stats = scheduler.stats();
    ASSERT_EQ(stats.completed, done) << "job " << j;
    ASSERT_EQ(stats.failed, failed) << "job " << j;
  }
}

TEST(ServeTest, InvalidRequestsRejectImmediatelyWithReason) {
  BatchScheduler scheduler(small_sched(1, 1));
  JobRequest req;
  req.scene_text = small_scene();

  JobRequest empty = req;
  empty.scene_text = "";
  EXPECT_EQ(scheduler.submit(empty)->status(), JobStatus::Rejected);
  JobRequest no_steps = req;
  no_steps.steps = 0;
  EXPECT_EQ(scheduler.submit(no_steps)->status(), JobStatus::Rejected);
  JobRequest bad_width = req;
  bad_width.n_threads = -1;
  const auto t = scheduler.submit(bad_width);
  EXPECT_EQ(t->status(), JobStatus::Rejected);
  EXPECT_FALSE(t->error().empty());
  EXPECT_EQ(scheduler.stats().accepted, 0);
}

TEST(ServeTest, AdmissionCapsRejectOverflow) {
  // Paused scheduler: nothing drains, so the caps are hit deterministically.
  SchedulerConfig sc;
  sc.threads_per_pool = 1;
  sc.max_drivers = 1;
  sc.start_paused = true;
  sc.default_quota.max_queued = 2;
  sc.max_queued_total = 3;
  BatchScheduler scheduler(sc);
  JobRequest req_a;
  req_a.scene_text = small_scene();
  req_a.steps = 1;
  req_a.tenant = "a";
  JobRequest req_b = req_a;
  req_b.tenant = "b";

  EXPECT_NE(scheduler.submit(req_a)->status(), JobStatus::Rejected);
  EXPECT_NE(scheduler.submit(req_a)->status(), JobStatus::Rejected);
  const auto over_tenant = scheduler.submit(req_a);  // tenant cap (2) hit
  EXPECT_EQ(over_tenant->status(), JobStatus::Rejected);
  EXPECT_EQ(over_tenant->error(), "tenant queue full");

  EXPECT_NE(scheduler.submit(req_b)->status(), JobStatus::Rejected);
  const auto over_global = scheduler.submit(req_b);  // global cap (3) hit
  EXPECT_EQ(over_global->status(), JobStatus::Rejected);
  EXPECT_EQ(over_global->error(), "global queue full");

  scheduler.start();
  scheduler.drain();
  EXPECT_EQ(scheduler.stats().completed, 3);
}

TEST(ServeTest, FairShareServesWeightedTenantProportionally) {
  // One driver + paused start → strictly serial, deterministic dispatch.
  // With equal-cost jobs and weights 2:1, start-time fair queueing dispatches
  // a,b,a,a,b,a over the first six decisions — tenant a gets 2× the service.
  SchedulerConfig sc;
  sc.threads_per_pool = 2;
  sc.max_drivers = 1;
  sc.start_paused = true;
  sc.default_quota.max_queued = 16;
  BatchScheduler scheduler(sc);
  scheduler.set_quota("a", {.weight = 2.0, .max_queued = 16});
  scheduler.set_quota("b", {.weight = 1.0, .max_queued = 16});

  // Jobs heavy enough (ms-scale) that serial start times dominate the µs
  // spread between the submit calls below — queue_seconds then recovers the
  // dispatch order exactly.
  JobRequest req_a;
  req_a.scene_text = scene_text(workloads::make_lj_gas(128, 0.006, 300.0, 5));
  req_a.steps = 25;
  req_a.tenant = "a";
  JobRequest req_b = req_a;
  req_b.tenant = "b";
  std::vector<std::shared_ptr<JobTicket>> tickets;
  for (int j = 0; j < 6; ++j) {
    tickets.push_back(scheduler.submit(req_a));
    tickets.push_back(scheduler.submit(req_b));
  }
  scheduler.start();
  scheduler.drain();

  // Recover dispatch order: with one driver, jobs start strictly serially,
  // so queue delay orders them.
  std::sort(tickets.begin(), tickets.end(),
            [](const auto& x, const auto& y) { return x->queue_seconds() < y->queue_seconds(); });
  int a_in_first_six = 0;
  for (int i = 0; i < 6; ++i) {
    if (tickets[static_cast<std::size_t>(i)]->request().tenant == "a") ++a_in_first_six;
  }
  EXPECT_EQ(a_in_first_six, 4);  // the a,b,a,a,b,a prefix
  for (const auto& t : tickets) EXPECT_EQ(t->status(), JobStatus::Done) << t->error();
}

TEST(ServeTest, StoppedSchedulerRejectsNewWork) {
  BatchScheduler scheduler(small_sched(1, 1));
  JobRequest req;
  req.scene_text = small_scene();
  req.steps = 1;
  const auto before = scheduler.submit(req);
  scheduler.stop();
  EXPECT_EQ(before->status(), JobStatus::Done) << before->error();  // stop() drains
  const auto after = scheduler.submit(req);
  EXPECT_EQ(after->status(), JobStatus::Rejected);
  EXPECT_EQ(after->error(), "scheduler is stopping");
}

TEST(ServeTest, SceneCacheDedupesAcrossJobs) {
  const std::string scene = small_scene();
  BatchScheduler scheduler(small_sched(2, 1));
  JobRequest req;
  req.scene_text = scene;
  req.steps = 2;
  // Serial submissions (wait each) so every load after the first is a
  // deterministic cache hit.
  scheduler.submit(req)->wait();
  scheduler.submit(req)->wait();
  scheduler.submit(req)->wait();
  EXPECT_EQ(scheduler.scene_cache().misses(), 1);
  EXPECT_EQ(scheduler.scene_cache().hits(), 2);
}

TEST(ServeTest, DrainReleasesPausedScheduler) {
  // Regression: drain() on a paused scheduler with queued jobs used to wait
  // forever on queued_total_ == 0 while the paused drivers never picked
  // work.  drain() promises completion, so it must release the drivers.
  SchedulerConfig sc = small_sched(2, 1);
  sc.start_paused = true;
  BatchScheduler scheduler(sc);
  JobRequest req;
  req.scene_text = small_scene();
  req.steps = 3;
  const auto a = scheduler.submit(req);
  const auto b = scheduler.submit(req);
  scheduler.drain();  // no start() — pre-fix this deadlocked
  EXPECT_EQ(a->status(), JobStatus::Done) << a->error();
  EXPECT_EQ(b->status(), JobStatus::Done) << b->error();
}

TEST(ServeTest, SampleRingCapsRetainedSamples) {
  // A long job with sample_interval=1 must not grow its ticket without
  // bound: the ring keeps the newest max_samples_per_job samples and counts
  // the evictions.
  SchedulerConfig sc = small_sched(2, 1);
  sc.max_samples_per_job = 5;
  BatchScheduler scheduler(sc);
  JobRequest req;
  req.scene_text = small_scene();
  req.steps = 20;
  req.sample_interval = 1;
  const auto ticket = scheduler.submit(req);
  ticket->wait();
  ASSERT_EQ(ticket->status(), JobStatus::Done) << ticket->error();
  EXPECT_EQ(ticket->samples_dropped(), 15);
  const std::vector<Sample> samples = ticket->samples();
  ASSERT_EQ(samples.size(), 5u);
  for (std::size_t k = 0; k < samples.size(); ++k) {
    EXPECT_EQ(samples[k].step, 16 + static_cast<long long>(k));
  }
  EXPECT_EQ(samples.back().pe, ticket->potential_energy());
}

TEST(ServeTest, ShardSelectionBalancesOnCost) {
  // One oversized job + three small ones over two shards and four drivers.
  // Balancing on outstanding *cost* keeps every small job off the oversized
  // job's shard; the pre-fix running-job *count* balance tie-broke the
  // second small job onto shard 0 alongside the giant.
  SchedulerConfig sc;
  sc.n_pools = 2;
  sc.threads_per_pool = 2;
  sc.max_drivers = 4;
  sc.start_paused = true;
  BatchScheduler scheduler(sc);

  JobRequest big;
  big.tenant = "bulk";
  big.scene_text = scene_text(workloads::make_lj_gas(1024, 0.006, 300.0, 17));
  big.steps = 60;
  JobRequest small;
  small.tenant = "bulk";
  small.scene_text = scene_text(workloads::make_lj_gas(128, 0.006, 300.0, 18));
  small.steps = 60;

  const auto big_ticket = scheduler.submit(big);
  std::vector<std::shared_ptr<JobTicket>> smalls;
  for (int j = 0; j < 3; ++j) smalls.push_back(scheduler.submit(small));
  scheduler.start();
  scheduler.drain();

  ASSERT_EQ(big_ticket->status(), JobStatus::Done) << big_ticket->error();
  for (const auto& t : smalls) {
    ASSERT_EQ(t->status(), JobStatus::Done) << t->error();
    EXPECT_NE(t->shard(), big_ticket->shard());
  }
}

TEST(ServePreemptTest, PreemptedJobBitwiseMatchesUninterrupted) {
  // The tentpole discipline on the hardest anchor we know: salt with 3
  // decomposition slots, preempted every 11 steps of 40 — each continuation
  // restores mid-neighbor-window, where a naive restart diverges.  Energies
  // and sample cadence must be indistinguishable from the uninterrupted run.
  auto spec = workloads::make_benchmark("salt", 7);
  JobRequest req;
  req.scene_text = scene_text(spec.system);
  req.steps = 40;
  req.n_threads = 3;
  req.sample_interval = 8;
  req.dt_fs = spec.engine.dt_fs;
  req.cutoff = spec.engine.cutoff;
  req.skin = spec.engine.skin;

  std::shared_ptr<JobTicket> plain;
  {
    BatchScheduler scheduler(small_sched(3, 1));
    plain = scheduler.submit(req);
    scheduler.drain();
  }
  ASSERT_EQ(plain->status(), JobStatus::Done) << plain->error();
  EXPECT_EQ(plain->preemptions(), 0);

  SchedulerConfig sc = small_sched(3, 1);
  sc.preempt_slice_steps = 11;
  BatchScheduler scheduler(sc);
  const auto preempted = scheduler.submit(req);
  scheduler.drain();
  ASSERT_EQ(preempted->status(), JobStatus::Done) << preempted->error();
  EXPECT_EQ(preempted->preemptions(), 3);  // dispatched 11+11+11+7
  EXPECT_EQ(preempted->steps_completed(), 40);
  EXPECT_EQ(preempted->potential_energy(), plain->potential_energy());
  EXPECT_EQ(preempted->kinetic_energy(), plain->kinetic_energy());

  const auto a = plain->samples();
  const auto b = preempted->samples();
  ASSERT_EQ(a.size(), b.size());  // 8,16,24,32,40 — quantum edges add none
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].step, b[k].step);
    EXPECT_EQ(a[k].pe, b[k].pe);
    EXPECT_EQ(a[k].ke, b[k].ke);
  }
  EXPECT_EQ(scheduler.stats().preemptions, 3);
  EXPECT_EQ(scheduler.stats().completed, 1);
}

TEST(ServePreemptTest, FinalSceneUnchangedByPreemption) {
  JobRequest req;
  req.scene_text = small_scene(9);
  req.steps = 30;
  req.return_scene = true;
  std::shared_ptr<JobTicket> plain;
  {
    BatchScheduler scheduler(small_sched(2, 1));
    plain = scheduler.submit(req);
    scheduler.drain();
  }
  SchedulerConfig sc = small_sched(2, 1);
  sc.preempt_slice_steps = 7;
  BatchScheduler scheduler(sc);
  const auto preempted = scheduler.submit(req);
  scheduler.drain();
  ASSERT_EQ(preempted->status(), JobStatus::Done) << preempted->error();
  EXPECT_EQ(preempted->preemptions(), 4);  // 7+7+7+7+2
  // Byte-identical endpoint: the continuation chain is the same trajectory.
  EXPECT_EQ(preempted->final_scene(), plain->final_scene());
}

TEST(ServePreemptTest, PreemptDuringDrainCompletesJob) {
  // drain() must ride out preemptions: the continuation re-enters the queue
  // atomically with the running count dropping, so drain can never observe
  // the job as idle mid-requeue.
  SchedulerConfig sc = small_sched(2, 2);
  sc.preempt_slice_steps = 5;
  BatchScheduler scheduler(sc);
  JobRequest req;
  req.scene_text = small_scene();
  req.steps = 55;
  const auto ticket = scheduler.submit(req);
  scheduler.drain();
  EXPECT_EQ(ticket->status(), JobStatus::Done) << ticket->error();
  EXPECT_EQ(ticket->preemptions(), 10);
  EXPECT_EQ(scheduler.stats().preemptions, 10);
}

TEST(ServePreemptTest, QueueDelayMeasuredToFirstStartOnly) {
  SchedulerConfig sc = small_sched(2, 1);
  sc.preempt_slice_steps = 3;
  BatchScheduler scheduler(sc);
  JobRequest req;
  req.scene_text = small_scene();
  req.steps = 12;
  const auto ticket = scheduler.submit(req);
  scheduler.drain();
  ASSERT_EQ(ticket->status(), JobStatus::Done) << ticket->error();
  EXPECT_GT(ticket->preemptions(), 0);
  // Queue delay cannot exceed total latency, and preemption re-queues must
  // not have reset it to a later window.
  EXPECT_LE(ticket->queue_seconds(), ticket->latency_seconds());
}

TEST(ServeLongHorizonTest, EveryStepPreemptedMatchesDedicatedPoolBitwise) {
  // Two 2000-step jobs preempted after every step, so each resumes its
  // parked engine 1999 times, on whichever of two shards is free: a 256-atom
  // LJ gas and the 2048-atom LJ+Coulomb gas (a quarter charged) of
  // bench/e2e's serve_mix bulk jobs.  Final energies must equal one
  // dedicated-pool run_native call bit for bit, and total energy must stay
  // within kMaxDrift of its first sample over the whole run (NVE).
  constexpr int kSteps = 2000;
  constexpr int kWidth = 4;
  // Worst sample, as a share of max(|E|, KE) at step 1: 1.4e-4 (LJ gas) and
  // 3.2e-5 (charged gas).  The energies are a pure function of the scene and
  // the width, so these numbers do not vary from run to run.
  constexpr double kMaxDrift = 1e-3;
  std::vector<JobRequest> requests(2);
  requests[0].scene_text = scene_text(workloads::make_lj_gas(256, 0.006, 300.0, 17));
  requests[1].scene_text =
      scene_text(workloads::make_lj_coulomb_gas(2048, 0.008, 300.0, 0.25, 18));
  requests[1].dt_fs = 1.0;
  for (JobRequest& req : requests) {
    req.steps = kSteps;
    req.n_threads = kWidth;
    req.sample_interval = 1;
  }

  SchedulerConfig sc = small_sched(2, 2);
  sc.n_pools = 2;
  sc.preempt_slice_steps = 1;
  BatchScheduler scheduler(sc);
  std::vector<std::shared_ptr<JobTicket>> tickets;
  for (const JobRequest& req : requests) tickets.push_back(scheduler.submit(req));
  scheduler.drain();

  parallel::FixedThreadPool dedicated({.n_threads = kWidth});
  for (std::size_t j = 0; j < requests.size(); ++j) {
    SCOPED_TRACE(j == 0 ? "LJ gas" : "LJ+Coulomb gas");
    const JobTicket& t = *tickets[j];
    ASSERT_EQ(t.status(), JobStatus::Done) << t.error();
    EXPECT_EQ(t.preemptions(), kSteps - 1);

    md::EngineConfig cfg;
    cfg.n_threads = kWidth;
    cfg.dt_fs = requests[j].dt_fs;
    md::Engine reference(*scheduler.scene_cache().load(requests[j].scene_text), cfg);
    reference.run_native(dedicated, kSteps);
    EXPECT_EQ(t.potential_energy(), reference.potential_energy());
    EXPECT_EQ(t.kinetic_energy(), reference.kinetic_energy());

    const std::vector<Sample> samples = t.samples();
    ASSERT_EQ(samples.size(), static_cast<std::size_t>(kSteps));
    const double e0 = samples.front().pe + samples.front().ke;
    const double scale = std::max(std::fabs(e0), samples.front().ke);
    double drift = 0.0;
    for (const Sample& s : samples) drift = std::max(drift, std::fabs(s.pe + s.ke - e0) / scale);
    EXPECT_LT(drift, kMaxDrift);
  }
  EXPECT_EQ(scheduler.stats().preemptions, 2 * (kSteps - 1));
  dedicated.shutdown();
}

TEST(ServeDeadlineTest, DeadlineModePrefersEarliestDeadline) {
  // Paused single-driver scheduler: dispatch order is exactly the pick
  // order.  EDF serves the 5s deadline before the 10s one; the deadline-less
  // job goes last via the fair-share fallback.
  SchedulerConfig sc;
  sc.threads_per_pool = 2;
  sc.max_drivers = 1;
  sc.start_paused = true;
  sc.mode = SchedMode::Deadline;
  BatchScheduler scheduler(sc);

  JobRequest req;
  req.scene_text = scene_text(workloads::make_lj_gas(128, 0.006, 300.0, 5));
  req.steps = 25;
  JobRequest none = req;
  none.tenant = "batch";
  JobRequest loose = req;
  loose.tenant = "loose";
  loose.deadline_ms = 10000.0;
  JobRequest tight = req;
  tight.tenant = "tight";
  tight.deadline_ms = 5000.0;

  // Submit in anti-EDF order so FIFO cannot masquerade as the fix.
  const auto t_none = scheduler.submit(none);
  const auto t_loose = scheduler.submit(loose);
  const auto t_tight = scheduler.submit(tight);
  scheduler.start();
  scheduler.drain();
  for (const auto& t : {t_none, t_loose, t_tight}) {
    ASSERT_EQ(t->status(), JobStatus::Done) << t->error();
  }
  EXPECT_LT(t_tight->queue_seconds(), t_loose->queue_seconds());
  EXPECT_LT(t_loose->queue_seconds(), t_none->queue_seconds());
  EXPECT_FALSE(t_tight->deadline_missed());
  EXPECT_FALSE(t_loose->deadline_missed());
  EXPECT_FALSE(t_none->deadline_missed());  // no deadline, never "missed"
}

TEST(ServeDeadlineTest, MissedDeadlineFlagged) {
  SchedulerConfig sc = small_sched(2, 1);
  sc.start_paused = true;  // hold the job queued past its microscopic SLO
  BatchScheduler scheduler(sc);
  JobRequest req;
  req.scene_text = small_scene();
  req.steps = 10;
  req.deadline_ms = 0.001;
  const auto ticket = scheduler.submit(req);
  scheduler.drain();
  ASSERT_EQ(ticket->status(), JobStatus::Done) << ticket->error();
  EXPECT_TRUE(ticket->deadline_missed());
}

TEST(ServeDeadlineTest, NegativeDeadlineRejected) {
  BatchScheduler scheduler(small_sched(1, 1));
  JobRequest req;
  req.scene_text = small_scene();
  req.deadline_ms = -1.0;
  const auto ticket = scheduler.submit(req);
  EXPECT_EQ(ticket->status(), JobStatus::Rejected);
  EXPECT_EQ(ticket->error(), "deadline_ms must be non-negative");
}

TEST(ServeLifecycleTest, StopWhilePausedCompletesAcceptedJobs) {
  SchedulerConfig sc = small_sched(2, 1);
  sc.start_paused = true;
  BatchScheduler scheduler(sc);
  JobRequest req;
  req.scene_text = small_scene();
  req.steps = 3;
  const auto a = scheduler.submit(req);
  const auto b = scheduler.submit(req);
  scheduler.stop();  // never start()ed — stop still owes the accepted jobs
  EXPECT_EQ(a->status(), JobStatus::Done) << a->error();
  EXPECT_EQ(b->status(), JobStatus::Done) << b->error();
}

TEST(ServeLifecycleTest, ConcurrentDoubleStopIsSafe) {
  SchedulerConfig sc = small_sched(2, 2);
  sc.preempt_slice_steps = 4;
  BatchScheduler scheduler(sc);
  JobRequest req;
  req.scene_text = small_scene();
  req.steps = 20;
  std::vector<std::shared_ptr<JobTicket>> tickets;
  for (int j = 0; j < 4; ++j) tickets.push_back(scheduler.submit(req));
  std::thread other([&] { scheduler.stop(); });
  scheduler.stop();
  other.join();
  // Both callers returned only after full teardown: every accepted job is
  // terminal and the books balance.
  for (const auto& t : tickets) {
    EXPECT_EQ(t->status(), JobStatus::Done) << t->error();
  }
  const BatchScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.completed + stats.failed, stats.accepted);
}

TEST(ServeLifecycleTest, SubmitRacingStopNeverLosesATicket) {
  SchedulerConfig sc = small_sched(2, 2);
  BatchScheduler scheduler(sc);
  JobRequest req;
  req.scene_text = small_scene();
  req.steps = 2;
  std::vector<std::shared_ptr<JobTicket>> tickets;
  std::atomic<bool> go{false};
  std::thread submitter([&] {
    while (!go.load()) {}
    for (int j = 0; j < 32; ++j) tickets.push_back(scheduler.submit(req));
  });
  go.store(true);
  scheduler.stop();
  submitter.join();
  // Every ticket reached a terminal state: accepted ones completed before
  // stop() returned, later ones were rejected with the stopping reason —
  // none hang in Queued/Running.
  long long done = 0, rejected = 0;
  for (const auto& t : tickets) {
    t->wait();
    const JobStatus s = t->status();
    EXPECT_TRUE(s == JobStatus::Done || s == JobStatus::Rejected) << to_string(s);
    if (s == JobStatus::Done) ++done;
    if (s == JobStatus::Rejected) ++rejected;
  }
  EXPECT_EQ(done + rejected, 32);
  const BatchScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.completed + stats.failed, stats.accepted);
}

}  // namespace
}  // namespace mwx::serve
