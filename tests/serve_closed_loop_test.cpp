// mwx::serve under closed-loop multi-tenant traffic: a bulk tenant's
// oversized jobs against a small-job menu over two drivers, first under
// fair share and then under deadline-first with preemption.  Every job,
// preempted or not, must end bitwise equal to its dedicated-pool reference.
// Plus the two orderings preemption exists for (a deadline job overtakes a
// running bulk job; without a slice it waits) and a rejected job that is
// resubmitted after a drain.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "md/engine.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/scheduler.hpp"
#include "workloads/workloads.hpp"

namespace mwx::serve {
namespace {

constexpr double kDensity = 0.006;  // atoms/Å^3
constexpr double kTemperatureK = 300.0;
constexpr int kJobThreads = 2;  // decomposition width of every job

// The small-job menu (scene sizes × step budgets); the bulk job runs the
// largest scene for 5× the biggest small budget.
constexpr int kSceneAtoms[] = {96, 160, 256};
constexpr int kStepBudgets[] = {12, 24, 48};
constexpr int kMenu = static_cast<int>(std::size(kSceneAtoms));
constexpr int kBulkSteps = 240;
constexpr int kPreemptSlice = 24;
constexpr double kDeadlineMs = 2000.0;  // small-job SLO in the preempt phase
constexpr std::size_t kSampleCap = 64;  // bulk jobs stream 240 samples into it

constexpr int kTenants = 2;  // t0 is the bulk tenant
constexpr int kClientsPerTenant = 4;
constexpr int kJobsPerClient = 2;
constexpr int kClients = kTenants * kClientsPerTenant;

std::vector<std::string> menu_scenes() {
  std::vector<std::string> scenes;
  for (int m = 0; m < kMenu; ++m) {
    scenes.push_back(scene_text(
        workloads::make_lj_gas(kSceneAtoms[m], kDensity, kTemperatureK, 77 + m)));
  }
  return scenes;
}

struct Energies {
  double pe = 0.0;
  double ke = 0.0;
};

// The same scene and step count on a dedicated single-engine pool.
Energies dedicated_run(const std::string& text, int steps) {
  SceneCache parse(1);
  md::EngineConfig cfg;
  cfg.n_threads = kJobThreads;
  md::Engine engine(*parse.load(text), cfg);
  parallel::FixedThreadPool dedicated({.n_threads = kJobThreads});
  engine.run_native(dedicated, steps);
  return {engine.potential_energy(), engine.kinetic_energy()};
}

struct Outcome {
  int menu = 0;  // index into the menu; kMenu = the bulk job
  std::shared_ptr<JobTicket> ticket;
};

struct PhaseResult {
  std::vector<Outcome> outcomes;
  BatchScheduler::Stats stats;
};

PhaseResult closed_loop_phase(const std::vector<std::string>& scenes, bool preempt) {
  SchedulerConfig sc;
  sc.threads_per_pool = 4;
  // Two drivers: scarce dispatch slots are what lets a bulk job hold one.
  sc.max_drivers = 2;
  sc.max_queued_total = 64;
  sc.default_quota.max_queued = kClientsPerTenant;
  sc.max_samples_per_job = kSampleCap;
  if (preempt) {
    sc.mode = SchedMode::Deadline;
    sc.preempt_slice_steps = kPreemptSlice;
  }
  BatchScheduler scheduler(sc);
  scheduler.set_quota("t0", {.weight = 2.0, .max_queued = kClientsPerTenant});

  std::vector<std::vector<Outcome>> per_client(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int tenant = c % kTenants;
      for (int j = 0; j < kJobsPerClient; ++j) {
        const int menu = tenant == 0 ? kMenu : (c + j) % kMenu;
        JobRequest req;
        req.tenant = "t";
        req.tenant += std::to_string(tenant);
        req.n_threads = kJobThreads;
        if (menu == kMenu) {
          req.scene_text = scenes.back();
          req.steps = kBulkSteps;
          req.sample_interval = 1;
        } else {
          req.scene_text = scenes[static_cast<std::size_t>(menu)];
          req.steps = kStepBudgets[menu];
          if (preempt) req.deadline_ms = kDeadlineMs;
        }
        // Closed loop: block on the ticket, back off and resubmit if the
        // scheduler turned the job away.
        std::shared_ptr<JobTicket> ticket;
        for (;;) {
          ticket = scheduler.submit(req);
          ticket->wait();
          if (ticket->status() != JobStatus::Rejected) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        per_client[static_cast<std::size_t>(c)].push_back({menu, ticket});
      }
    });
  }
  for (std::thread& t : clients) t.join();

  PhaseResult result;
  for (const auto& client : per_client) {
    result.outcomes.insert(result.outcomes.end(), client.begin(), client.end());
  }
  result.stats = scheduler.stats();
  return result;
}

TEST(ServeTrafficTest, ClosedLoopFairShareThenPreemptBitwise) {
  const std::vector<std::string> scenes = menu_scenes();
  std::vector<Energies> ref;
  for (int m = 0; m < kMenu; ++m) {
    ref.push_back(dedicated_run(scenes[static_cast<std::size_t>(m)], kStepBudgets[m]));
  }
  ref.push_back(dedicated_run(scenes.back(), kBulkSteps));

  const PhaseResult fairshare = closed_loop_phase(scenes, false);
  const PhaseResult preempt = closed_loop_phase(scenes, true);

  long long preempted_jobs = 0;
  long long deadline_jobs = 0;
  for (const PhaseResult* phase : {&fairshare, &preempt}) {
    const bool preempt_phase = phase == &preempt;
    ASSERT_EQ(phase->outcomes.size(), static_cast<std::size_t>(kClients * kJobsPerClient));
    EXPECT_EQ(phase->stats.completed, kClients * kJobsPerClient);
    EXPECT_EQ(phase->stats.failed, 0);
    long long preemptions = 0;
    for (const Outcome& o : phase->outcomes) {
      const JobTicket& t = *o.ticket;
      ASSERT_EQ(t.status(), JobStatus::Done) << t.error();
      const Energies& want = ref[static_cast<std::size_t>(o.menu)];
      EXPECT_EQ(t.potential_energy(), want.pe)
          << "menu " << o.menu << ", " << t.preemptions() << " preemptions";
      EXPECT_EQ(t.kinetic_energy(), want.ke)
          << "menu " << o.menu << ", " << t.preemptions() << " preemptions";
      preemptions += t.preemptions();
      if (t.preemptions() > 0) ++preempted_jobs;
      if (o.menu == kMenu) {
        // The ring keeps the newest kSampleCap of the 240 samples.
        EXPECT_EQ(t.samples_dropped(), kBulkSteps - static_cast<long long>(kSampleCap));
      }
      // Every job carries the verdict its latency earns: flagged exactly when
      // it had a deadline and finished past it.
      const bool has_deadline = preempt_phase && o.menu != kMenu;
      if (has_deadline) ++deadline_jobs;
      EXPECT_EQ(t.deadline_missed(),
                has_deadline && t.latency_seconds() > kDeadlineMs / 1000.0);
    }
    EXPECT_EQ(preemptions, phase->stats.preemptions);
  }
  EXPECT_EQ(fairshare.stats.preemptions, 0);
  EXPECT_GT(preempt.stats.preemptions, 0);
  EXPECT_GT(preempted_jobs, 0);
  EXPECT_GT(deadline_jobs, 0);
}

TEST(ServeTrafficTest, DeadlineJobOvertakesRunningBulkJobOnlyWhenPreempting) {
  // One driver.  The bulk job's first dispatch parses its scene (a cache
  // miss), and the parse hook — on the driver, with the bulk job already
  // Running and before its first step — submits a small deadline job.
  const std::string scene = menu_scenes().back();
  for (const bool preempt : {true, false}) {
    SCOPED_TRACE(preempt ? "deadline + slice" : "fair share, no slice");
    SchedulerConfig sc;
    sc.threads_per_pool = 2;
    sc.max_drivers = 1;
    sc.start_paused = true;
    if (preempt) {
      sc.mode = SchedMode::Deadline;
      sc.preempt_slice_steps = kPreemptSlice;
    }
    BatchScheduler scheduler(sc);
    JobRequest bulk;
    bulk.tenant = "bulk";
    bulk.scene_text = scene;
    bulk.steps = kBulkSteps;
    JobRequest small = bulk;
    small.tenant = "small";
    small.steps = kStepBudgets[0];
    small.deadline_ms = kDeadlineMs;

    const std::shared_ptr<JobTicket> bulk_ticket = scheduler.submit(bulk);
    std::promise<std::shared_ptr<JobTicket>> small_submitted;
    std::future<std::shared_ptr<JobTicket>> small_future = small_submitted.get_future();
    JobStatus bulk_status_at_submit = JobStatus::Queued;
    bool hooked = false;  // only the driver touches it
    scheduler.scene_cache().set_parse_hook([&] {
      if (hooked) return;
      hooked = true;
      bulk_status_at_submit = bulk_ticket->status();
      small_submitted.set_value(scheduler.submit(small));
    });
    scheduler.start();
    const std::shared_ptr<JobTicket> small_ticket = small_future.get();
    EXPECT_EQ(bulk_status_at_submit, JobStatus::Running);

    if (preempt) {
      // At the bulk job's first quantum boundary it yields, EDF picks the
      // small job, and the single driver finishes it before the bulk job
      // can resume.
      bulk_ticket->wait();
      ASSERT_EQ(bulk_ticket->status(), JobStatus::Done) << bulk_ticket->error();
      EXPECT_EQ(small_ticket->status(), JobStatus::Done) << "the bulk job finished first";
      EXPECT_EQ(bulk_ticket->preemptions(), kBulkSteps / kPreemptSlice - 1);
    } else {
      // Without a slice the bulk job holds the driver to its end.
      small_ticket->wait();
      ASSERT_EQ(small_ticket->status(), JobStatus::Done) << small_ticket->error();
      EXPECT_EQ(bulk_ticket->status(), JobStatus::Done) << "the small job finished first";
      EXPECT_EQ(bulk_ticket->preemptions(), 0);
    }
    scheduler.drain();
  }
}

TEST(ServeTrafficTest, RejectedJobResubmittedAfterDrainMatchesReference) {
  const std::vector<std::string> scenes = menu_scenes();
  SchedulerConfig sc;
  sc.threads_per_pool = 2;
  sc.max_drivers = 1;
  sc.start_paused = true;
  sc.default_quota.max_queued = 1;
  BatchScheduler scheduler(sc);
  JobRequest first;
  first.scene_text = scenes[0];
  first.steps = kStepBudgets[0];
  JobRequest retry = first;
  retry.scene_text = scenes[1];
  retry.steps = kStepBudgets[1];

  const auto queued = scheduler.submit(first);
  const auto rejected = scheduler.submit(retry);
  ASSERT_EQ(rejected->status(), JobStatus::Rejected);
  EXPECT_EQ(rejected->error(), "tenant queue full");
  scheduler.drain();
  ASSERT_EQ(queued->status(), JobStatus::Done) << queued->error();

  const auto retried = scheduler.submit(retry);
  retried->wait();
  ASSERT_EQ(retried->status(), JobStatus::Done) << retried->error();
  const Energies want = dedicated_run(retry.scene_text, retry.steps);
  EXPECT_EQ(retried->potential_energy(), want.pe);
  EXPECT_EQ(retried->kinetic_energy(), want.ke);
}

}  // namespace
}  // namespace mwx::serve
