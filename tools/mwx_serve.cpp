// tools/mwx_serve — submit a batch of jobs to an in-process BatchScheduler
// and verify the multi-tenant results against a dedicated-pool reference.
//
// This is the service smoke: N concurrent jobs from T tenants share the
// scheduler's pools, and every job must finish with energies BITWISE equal
// to the same scene + step budget run alone on its own pool.  Exit status is
// nonzero if any job fails, is lost, or diverges — CI's acceptance gate for
// the re-entrant engine + serve stack.
//
// Usage: mwx_serve <benchmark|scene.mws> [jobs] [steps] [pool_threads] [tenants]
//                  [preempt_slice]
//   benchmark: nanocar | salt | Al-1000 (Table I), or a path to a .mws file
//   defaults:  jobs=8 steps=100 pool_threads=4 tenants=2 preempt_slice=0
//   preempt_slice > 0 preempts every job each `preempt_slice` steps, parks
//   its engine and resumes it on a later dispatch — the bitwise gate then
//   also proves preempted-and-resumed jobs indistinguishable from
//   uninterrupted ones.

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "md/engine.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/scheduler.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace mwx;

constexpr int kJobThreads = 2;

bool is_scene_file(const std::string& arg) {
  return arg.size() > 4 && arg.compare(arg.size() - 4, 4, ".mws") == 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: mwx_serve <benchmark|scene.mws> [jobs] [steps] "
              << "[pool_threads] [tenants] [preempt_slice]\n  benchmarks:";
    for (const auto& name : workloads::benchmark_names()) std::cerr << " " << name;
    std::cerr << "\n";
    return 2;
  }
  const std::string what = argv[1];
  const int n_jobs = argc > 2 ? std::atoi(argv[2]) : 8;
  const int steps = argc > 3 ? std::atoi(argv[3]) : 100;
  const int pool_threads = argc > 4 ? std::atoi(argv[4]) : 4;
  const int tenants = argc > 5 ? std::atoi(argv[5]) : 2;
  const int preempt_slice = argc > 6 ? std::atoi(argv[6]) : 0;

  // Build the job template: scene text + engine parameters.
  serve::JobRequest base;
  base.steps = steps;
  base.n_threads = kJobThreads;
  if (is_scene_file(what)) {
    std::ifstream in(what);
    if (!in) {
      std::cerr << "mwx_serve: cannot open scene file " << what << "\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    base.scene_text = text.str();
  } else {
    const workloads::BenchmarkSpec spec = workloads::make_benchmark(what);
    base.scene_text = serve::scene_text(spec.system);
    base.dt_fs = spec.engine.dt_fs;
    base.cutoff = spec.engine.cutoff;
    base.skin = spec.engine.skin;
  }

  // Dedicated-pool reference: the ground truth every shared-pool job must hit.
  serve::SceneCache parse_once(1);
  const std::shared_ptr<const md::MolecularSystem> sys = parse_once.load(base.scene_text);
  md::EngineConfig cfg;
  cfg.n_threads = base.n_threads;
  cfg.chunks_per_thread = base.chunks_per_thread;
  cfg.assignment = base.assignment;
  cfg.dt_fs = base.dt_fs;
  cfg.cutoff = base.cutoff;
  cfg.skin = base.skin;
  md::Engine reference(*sys, cfg);
  parallel::FixedThreadPool dedicated({.n_threads = base.n_threads});
  reference.run_native(dedicated, steps);
  dedicated.shutdown();
  const double ref_pe = reference.potential_energy();
  const double ref_ke = reference.kinetic_energy();

  serve::SchedulerConfig sc;
  sc.threads_per_pool = pool_threads;
  sc.max_drivers = std::max(8, n_jobs);  // all jobs genuinely concurrent
  sc.max_queued_total = std::max(256, n_jobs);
  sc.default_quota.max_queued = std::max(64, n_jobs);
  sc.preempt_slice_steps = preempt_slice;
  serve::BatchScheduler scheduler(sc);

  std::cout << "mwx_serve: " << n_jobs << " jobs x " << steps << " steps of '" << what
            << "' from " << tenants << " tenants over a shared " << pool_threads
            << "-thread pool";
  if (preempt_slice > 0) std::cout << ", preempting every " << preempt_slice << " steps";
  std::cout << "\n";

  std::vector<std::shared_ptr<serve::JobTicket>> tickets;
  tickets.reserve(static_cast<std::size_t>(n_jobs));
  for (int j = 0; j < n_jobs; ++j) {
    serve::JobRequest req = base;
    req.tenant = "tenant-" + std::to_string(j % std::max(1, tenants));
    tickets.push_back(scheduler.submit(std::move(req)));
  }
  scheduler.drain();

  int failures = 0;
  for (int j = 0; j < n_jobs; ++j) {
    const serve::JobTicket& t = *tickets[static_cast<std::size_t>(j)];
    if (t.status() != serve::JobStatus::Done) {
      std::cerr << "  job " << j << " [" << t.request().tenant
                << "]: " << to_string(t.status()) << " — " << t.error() << "\n";
      ++failures;
      continue;
    }
    const bool match = t.potential_energy() == ref_pe && t.kinetic_energy() == ref_ke;
    std::cout << "  job " << j << " [" << t.request().tenant << "]: done in "
              << std::fixed << std::setprecision(1) << t.latency_seconds() * 1e3
              << " ms, " << t.preemptions() << " preemptions, energy bits "
              << (match ? "MATCH" : "MISMATCH") << "\n";
    if (!match) {
      std::cerr << std::setprecision(17) << "    pe=" << t.potential_energy()
                << " ref=" << ref_pe << "\n    ke=" << t.kinetic_energy()
                << " ref=" << ref_ke << "\n";
      ++failures;
    }
  }
  const serve::BatchScheduler::Stats stats = scheduler.stats();
  std::cout << "  scheduler: " << stats.accepted << " accepted, " << stats.completed
            << " completed, " << stats.failed << " failed, " << stats.rejected
            << " rejected, " << stats.preemptions << " preemptions; scene cache "
            << scheduler.scene_cache().hits() << " hits / "
            << scheduler.scene_cache().misses() << " misses\n";

  if (preempt_slice > 0 && steps > preempt_slice && stats.preemptions == 0) {
    std::cerr << "FAIL: preemption requested (slice " << preempt_slice << " < " << steps
              << " steps) but no job was ever preempted\n";
    return 1;
  }
  if (failures != 0) {
    std::cerr << "FAIL: " << failures << "/" << n_jobs
              << " jobs did not reproduce the dedicated-pool energies\n";
    return 1;
  }
  std::cout << "PASS: all " << n_jobs
            << " shared-pool jobs bitwise-identical to the dedicated-pool reference\n";
  return 0;
}
