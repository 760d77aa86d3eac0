// bench/serve_traffic.cpp — closed-loop multi-tenant traffic against the
// mwx::serve scheduler, run twice: fair-share-only vs preemption + deadline.
//
// The work-inflation lesson (Acar et al., PAPERS.md): shared-pool
// interference must be *measured*, not assumed — so this bench drives the
// serve layer the way a production fleet would and reports per-tenant
// latency distributions, not just aggregate throughput.
//
// Shape: tenant t0 is the *bulk* tenant — its clients submit oversized jobs
// (kBulkSteps of the largest scene, sample_interval=1 so the ticket sample
// ring is exercised) — while every other tenant's clients cycle a menu of
// small jobs.  Each client is a closed loop: submit one job, block on its
// ticket, record the latency, submit the next.  The whole load runs in two
// phases over a deliberately narrow driver pool (2 drivers):
//
//   phase "fairshare": SchedMode::FairShare, preemption off — a bulk job
//     holds its driver for its entire runtime, and small-job tail latency
//     inflates behind it (the job-level irregular-work failure mode);
//   phase "preempt":   SchedMode::Deadline + preempt_slice_steps — bulk jobs
//     are checkpointed every quantum and re-enqueued while small jobs (which
//     carry deadline_ms) jump ahead via EDF; small-job p99 should drop.
//
// Correctness gate, same contract as bench/raw_speed: every completed job's
// final (pe, ke) must be BITWISE equal to the same scene + config run on a
// dedicated single-engine pool — *including every preempted-and-resumed bulk
// job*, whose continuation chain restores from "mws 2" checkpoint text.
// Exit status is nonzero on any mismatch, on any lost job, and on a preempt
// phase that never actually preempted.
//
// Writes BENCH_serve.json: "config", combined "throughput", per-phase
// "<phase>.tenant.<name>" latency groups and "<phase>.sched" counters,
// "deadline" (hit rate, preempt phase), "samples" (ring drops), "compare"
// (small-job p99 across phases), "cache" and "verify" groups.
//
// Usage: serve_traffic [tenants] [clients_per_tenant] [jobs_per_client]
//                      [pool_threads] [n_pools]
//   Defaults give 4 tenants × 8 clients; CI smoke runs 2 4 2 4.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "md/engine.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/scheduler.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace mwx;

constexpr double kDensity = 0.006;  // atoms/Å^3
constexpr double kTemperatureK = 300.0;
constexpr int kJobThreads = 2;  // decomposition width of every job

// The small-job menu: scene sizes × step budgets, cycled per client.
constexpr int kSceneAtoms[] = {96, 160, 256};
constexpr int kStepBudgets[] = {12, 24, 48};
// The bulk tenant's oversized job: largest scene, 5× the biggest small
// budget — long enough to monopolize a driver without preemption.
constexpr int kBulkSteps = 240;
constexpr int kPreemptSlice = 24;    // preempt phase quantum
constexpr double kDeadlineMs = 2000.0;  // small-job SLO in the preempt phase
constexpr std::size_t kSampleCap = 64;  // ring cap; bulk jobs stream 240 samples

struct JobOutcome {
  std::string tenant;
  int menu = 0;  // index into the scene/step menu; -1 = bulk job
  double latency_ms = 0.0;
  double pe = 0.0;
  double ke = 0.0;
  long long preemptions = 0;
  long long samples_dropped = 0;
  bool had_deadline = false;
  bool deadline_missed = false;
};

struct PhaseResult {
  std::string name;
  double elapsed = 0.0;
  long long retries = 0;
  std::vector<JobOutcome> outcomes;
  serve::BatchScheduler::Stats stats;
  long long cache_hits = 0;
  long long cache_misses = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const int tenants = argc > 1 ? std::atoi(argv[1]) : 4;
  const int clients_per_tenant = argc > 2 ? std::atoi(argv[2]) : 8;
  const int jobs_per_client = argc > 3 ? std::atoi(argv[3]) : 2;
  const int pool_threads = argc > 4 ? std::atoi(argv[4]) : 4;
  const int n_pools = argc > 5 ? std::atoi(argv[5]) : 1;
  const int n_clients = tenants * clients_per_tenant;

  // One scene text per menu entry plus the bulk scene, shared by every
  // tenant and client — the dedup regime the scene cache exists for.
  const int n_menu = static_cast<int>(std::size(kSceneAtoms));
  std::vector<std::string> scenes;
  for (int m = 0; m < n_menu; ++m) {
    scenes.push_back(serve::scene_text(
        workloads::make_lj_gas(kSceneAtoms[m], kDensity, kTemperatureK, 77 + m)));
  }
  const std::string bulk_scene = scenes.back();  // largest menu scene, more steps

  // Dedicated single-engine reference energies: the bitwise ground truth
  // every job — preempted or not — must reproduce.  Index n_menu holds the
  // bulk job's reference.
  std::vector<double> ref_pe(static_cast<std::size_t>(n_menu) + 1);
  std::vector<double> ref_ke(static_cast<std::size_t>(n_menu) + 1);
  for (int m = 0; m <= n_menu; ++m) {
    serve::SceneCache parse_once(1);
    const std::string& text = m < n_menu ? scenes[static_cast<std::size_t>(m)] : bulk_scene;
    const int steps = m < n_menu ? kStepBudgets[m] : kBulkSteps;
    md::EngineConfig cfg;
    cfg.n_threads = kJobThreads;
    md::Engine engine(*parse_once.load(text), cfg);
    parallel::FixedThreadPool dedicated({.n_threads = kJobThreads});
    engine.run_native(dedicated, steps);
    ref_pe[static_cast<std::size_t>(m)] = engine.potential_energy();
    ref_ke[static_cast<std::size_t>(m)] = engine.kinetic_energy();
    dedicated.shutdown();
  }

  auto run_phase = [&](const std::string& name, bool preempt) {
    serve::SchedulerConfig sc;
    sc.n_pools = n_pools;
    sc.threads_per_pool = pool_threads;
    // Two drivers on purpose: scarce dispatch slots are what makes an
    // oversized job's monopoly visible in small-job tails.
    sc.max_drivers = 2;
    sc.max_queued_total = std::max(64, 2 * n_clients);
    sc.default_quota.max_queued = std::max(4, clients_per_tenant / 2);
    sc.max_samples_per_job = kSampleCap;
    if (preempt) {
      sc.preempt_slice_steps = kPreemptSlice;
      sc.mode = serve::SchedMode::Deadline;
    }
    serve::BatchScheduler scheduler(sc);
    scheduler.set_quota("t0", {.weight = 2.0, .max_queued = sc.default_quota.max_queued});

    std::vector<std::vector<JobOutcome>> per_client(static_cast<std::size_t>(n_clients));
    std::atomic<long long> retries{0};
    const auto t0 = std::chrono::steady_clock::now();

    std::vector<std::thread> clients;
    clients.reserve(static_cast<std::size_t>(n_clients));
    for (int c = 0; c < n_clients; ++c) {
      clients.emplace_back([&, c] {
        const int tenant_idx = c % tenants;
        const bool bulk = tenant_idx == 0;
        std::string tenant = "t";
        tenant += std::to_string(tenant_idx);
        for (int j = 0; j < jobs_per_client; ++j) {
          const int menu = bulk ? -1 : (c + j) % n_menu;
          serve::JobRequest req;
          req.tenant = tenant;
          req.n_threads = kJobThreads;
          if (bulk) {
            req.scene_text = bulk_scene;
            req.steps = kBulkSteps;
            req.sample_interval = 1;  // stream hard into the sample ring
          } else {
            req.scene_text = scenes[static_cast<std::size_t>(menu)];
            req.steps = kStepBudgets[menu];
            if (preempt) req.deadline_ms = kDeadlineMs;  // small jobs carry the SLO
          }
          std::shared_ptr<serve::JobTicket> ticket;
          for (;;) {
            ticket = scheduler.submit(req);
            ticket->wait();
            if (ticket->status() != serve::JobStatus::Rejected) break;
            retries.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          per_client[static_cast<std::size_t>(c)].push_back(
              {tenant, menu, ticket->latency_seconds() * 1e3, ticket->potential_energy(),
               ticket->kinetic_energy(), ticket->preemptions(), ticket->samples_dropped(),
               req.deadline_ms > 0.0, ticket->deadline_missed()});
        }
      });
    }
    for (auto& t : clients) t.join();

    PhaseResult result;
    result.name = name;
    result.elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    result.retries = retries.load();
    for (auto& client : per_client) {
      for (JobOutcome& o : client) result.outcomes.push_back(std::move(o));
    }
    result.stats = scheduler.stats();
    result.cache_hits = scheduler.scene_cache().hits();
    result.cache_misses = scheduler.scene_cache().misses();
    return result;
  };

  std::cout << "serve_traffic: " << tenants << " tenants x " << clients_per_tenant
            << " clients x " << jobs_per_client << " jobs, " << pool_threads
            << " threads x " << n_pools << " pool(s); t0 bulk jobs " << kBulkSteps
            << " steps, small-job menu up to " << kStepBudgets[n_menu - 1] << " steps\n";
  const PhaseResult fairshare = run_phase("fairshare", false);
  const PhaseResult preempt = run_phase("preempt", true);

  // --- Verify: every job bitwise equal to its dedicated reference ------------
  long long jobs_total = 0;
  long long mismatches = 0;
  long long preempted_jobs = 0;
  long long samples_dropped_total = 0;
  long long deadline_jobs = 0, deadline_met = 0;
  for (const PhaseResult* phase : {&fairshare, &preempt}) {
    for (const JobOutcome& o : phase->outcomes) {
      ++jobs_total;
      if (o.preemptions > 0) ++preempted_jobs;
      samples_dropped_total += o.samples_dropped;
      if (o.had_deadline) {
        ++deadline_jobs;
        if (!o.deadline_missed) ++deadline_met;
      }
      const auto m = static_cast<std::size_t>(o.menu < 0 ? n_menu : o.menu);
      if (o.pe != ref_pe[m] || o.ke != ref_ke[m]) {
        ++mismatches;
        std::cerr << "ENERGY MISMATCH phase=" << phase->name << " tenant=" << o.tenant
                  << " menu=" << o.menu << " preemptions=" << o.preemptions
                  << std::setprecision(17) << " pe=" << o.pe << " ref=" << ref_pe[m]
                  << " ke=" << o.ke << " ref=" << ref_ke[m] << "\n";
      }
    }
  }

  bench::JsonEmitter json("serve");
  json.set_provider("native");
  json.metric("config", "tenants", tenants);
  json.metric("config", "clients_per_tenant", clients_per_tenant);
  json.metric("config", "jobs_per_client", jobs_per_client);
  json.metric("config", "pool_threads", pool_threads);
  json.metric("config", "n_pools", n_pools);
  json.metric("config", "max_drivers", 2);
  json.metric("config", "job_threads", kJobThreads);
  json.metric("config", "bulk_steps", kBulkSteps);
  json.metric("config", "preempt_slice_steps", kPreemptSlice);
  json.metric("config", "deadline_ms", kDeadlineMs);
  json.metric("config", "max_samples_per_job", static_cast<double>(kSampleCap));

  const double elapsed = fairshare.elapsed + preempt.elapsed;
  json.metric("throughput", "jobs_total", static_cast<double>(jobs_total));
  json.metric("throughput", "elapsed_seconds", elapsed);
  json.metric("throughput", "jobs_per_sec",
              elapsed > 0 ? static_cast<double>(jobs_total) / elapsed : 0.0);
  json.metric("throughput", "rejects",
              static_cast<double>(fairshare.stats.rejected + preempt.stats.rejected));
  json.metric("throughput", "retries",
              static_cast<double>(fairshare.retries + preempt.retries));
  json.metric("throughput", "failed_jobs",
              static_cast<double>(fairshare.stats.failed + preempt.stats.failed));

  std::map<std::string, double> small_p99_of_phase;
  for (const PhaseResult* phase : {&fairshare, &preempt}) {
    std::map<std::string, std::vector<double>> latency_of_tenant;
    std::vector<double> small_latencies;
    for (const JobOutcome& o : phase->outcomes) {
      latency_of_tenant[o.tenant].push_back(o.latency_ms);
      if (o.menu >= 0) small_latencies.push_back(o.latency_ms);
    }
    std::cout << "  phase " << phase->name << ": " << phase->outcomes.size()
              << " jobs in " << std::fixed << std::setprecision(2) << phase->elapsed
              << " s, " << phase->stats.preemptions << " preemptions, "
              << phase->stats.rejected << " rejected\n";
    for (auto& [tenant, latencies] : latency_of_tenant) {
      double sum = 0.0;
      for (double v : latencies) sum += v;
      const auto n = static_cast<double>(latencies.size());
      const double p50 = percentile(latencies, 50.0);
      const double p95 = percentile(latencies, 95.0);
      const double p99 = percentile(latencies, 99.0);
      const std::string group = phase->name + ".tenant." + tenant;
      const double weight = tenant == "t0" ? 2.0 : 1.0;
      json.metric(group, "jobs", n);
      json.metric(group, "weight", weight);
      json.metric(group, "p50_ms", p50);
      json.metric(group, "p95_ms", p95);
      json.metric(group, "p99_ms", p99);
      json.metric(group, "mean_ms", n > 0 ? sum / n : 0.0);
      json.metric(group, "jobs_per_sec", phase->elapsed > 0 ? n / phase->elapsed : 0.0);
      std::cout << "    " << tenant << (tenant == "t0" ? " (bulk)" : "") << ": p50 "
                << p50 << " ms, p95 " << p95 << " ms, p99 " << p99 << " ms over "
                << latencies.size() << " jobs\n";
    }
    const std::string sched_group = phase->name + ".sched";
    json.metric(sched_group, "mode",
                phase->name == "preempt" ? 1.0 : 0.0);  // 0=FairShare 1=Deadline
    json.metric(sched_group, "preemptions", static_cast<double>(phase->stats.preemptions));
    json.metric(sched_group, "completed", static_cast<double>(phase->stats.completed));
    small_p99_of_phase[phase->name] =
        small_latencies.empty() ? 0.0 : percentile(small_latencies, 99.0);
  }

  const double p99_fair = small_p99_of_phase["fairshare"];
  const double p99_pre = small_p99_of_phase["preempt"];
  json.metric("compare", "small_p99_fairshare_ms", p99_fair);
  json.metric("compare", "small_p99_preempt_ms", p99_pre);
  json.metric("compare", "small_p99_improved", p99_pre < p99_fair ? 1.0 : 0.0);
  std::cout << "  small-job p99: fairshare " << p99_fair << " ms -> preempt+deadline "
            << p99_pre << " ms ("
            << (p99_fair > 0 ? p99_pre / p99_fair : 0.0) << "x)\n";

  json.metric("deadline", "jobs", static_cast<double>(deadline_jobs));
  json.metric("deadline", "met", static_cast<double>(deadline_met));
  json.metric("deadline", "hit_rate",
              deadline_jobs > 0
                  ? static_cast<double>(deadline_met) / static_cast<double>(deadline_jobs)
                  : 1.0);
  json.metric("samples", "dropped_total", static_cast<double>(samples_dropped_total));
  json.metric("samples", "preempted_jobs", static_cast<double>(preempted_jobs));

  const long long hits = fairshare.cache_hits + preempt.cache_hits;
  const long long misses = fairshare.cache_misses + preempt.cache_misses;
  json.metric("cache", "hits", static_cast<double>(hits));
  json.metric("cache", "misses", static_cast<double>(misses));
  json.metric("cache", "hit_rate",
              hits + misses > 0
                  ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                  : 0.0);
  json.metric("cache", "distinct_scenes", n_menu);
  json.metric("verify", "energy_bits_match", mismatches == 0 ? 1.0 : 0.0);
  json.metric("verify", "jobs_checked", static_cast<double>(jobs_total));
  json.metric("verify", "preempted_jobs_checked", static_cast<double>(preempted_jobs));
  const std::string path = json.write();
  std::cout << "  deadline hit rate: " << deadline_met << "/" << deadline_jobs
            << ", sample-ring drops: " << samples_dropped_total << ", cache: " << hits
            << " hits / " << misses << " misses\n";
  std::cout << "  wrote " << path << "\n";

  if (mismatches != 0) {
    std::cerr << "FAIL: " << mismatches << " jobs diverged from the dedicated-pool "
              << "reference\n";
    return 1;
  }
  const long long expected =
      2LL * static_cast<long long>(n_clients) * jobs_per_client;  // two phases
  if (jobs_total != expected) {
    std::cerr << "FAIL: expected " << expected << " jobs, got " << jobs_total << "\n";
    return 1;
  }
  if (preempt.stats.preemptions == 0) {
    std::cerr << "FAIL: preempt phase never preempted a bulk job (slice " << kPreemptSlice
              << " vs " << kBulkSteps << " steps)\n";
    return 1;
  }
  std::cout << "  all " << jobs_total << " job energies bitwise-identical to "
            << "dedicated-pool references (" << preempted_jobs
            << " preempted-and-resumed)\n";
  return 0;
}
