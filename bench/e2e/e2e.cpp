// bench/e2e/e2e.cpp — the repository benchmark: one workload per process.
//
// Workloads (bench/e2e/README.md says why each exists):
//   al1000       Table I Al-1000, 4 threads, the paper's static 1/N split over
//                one shared queue: dispatch- and barrier-bound 0.3-0.5 ms steps;
//   gas16k       16384-atom shuffled LJ+Coulomb gas, 1/4 charged, work
//                stealing 4x4: force-kernel-bound 10-15 ms steps;
//   droplet200k  200 000-atom droplet, work stealing 4x4, Morton reorder on
//                every rebuild: rebuild-pipeline-bound, 27 MB scene;
//   serve_mix    open-loop Poisson traffic (95% small cache-hit jobs, 5%
//                unique, preempted bulk jobs) against one BatchScheduler, then
//                one batch of jobs that are all due at once.
//
// Every input is generated here from --seed; the program under test only
// ever sees scene text, so every timed set-up includes md::load_scene.
//
// Untraced run (--trace 0), the end-to-end metrics:
//   steps_per_s     md: timesteps per second over the timed window;
//                   serve_mix: engine steps completed per second, summed over
//                   all jobs of the batch phase;
//   latency_p50_ms  md: median wall time of one timestep;
//                   serve_mix: median small-job latency, counted from when the
//                   job was due (open loop), not from when it was submitted;
//   setup_s         median over several set-ups of: scene text -> parsed
//                   system -> Engine -> pool -> first step done (serve_mix: a
//                   fresh BatchScheduler until its first small job is done);
//   peak_rss_mb     peak resident set (VmHWM) of this process.
// Traced run (--trace 1), the per-layer metrics: timed from outside around
// calls to public functions, plus the engine's phase brackets and task
// records through Engine::attach_trace.  Metrics of a layer a workload does
// not exercise (serve.* on the md workloads) read 0.
//
// Correctness gates, outside the timed window; any failure makes the run
// incorrect and the exit status 1:
//   md: the (pe, ke) bits at step 10 equal a run_inline reference of the same
//       scene and config, and NVE energy drift over the run stays within the
//       workload's bound;
//   serve_mix: every job is done; every small job's energies, and those of
//       every 8th bulk job (preempted and resumed), bitwise equal a
//       dedicated-pool run of the same request.
//
// Output: progress on stderr, then one JSON line on stdout:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// A traced run also writes TRACE_e2e_<workload>.json (chrome://tracing).
//
// Usage: mwx_e2e --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "md/cell_grid.hpp"
#include "md/engine.hpp"
#include "md/morton.hpp"
#include "md/neighbor_list.hpp"
#include "md/scene_io.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/trace_ring.hpp"
#include "serve/scheduler.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace mwx;

constexpr int kThreads = 4;     // pool width of every workload (the host has 4 cores)
constexpr int kCheckStep = 10;  // the md runs are split here for the bit check

// Trace tags the benchmark adds to the engine's phase vocabulary, for spans
// it records itself around public calls: one md step, and the three stages
// of one serve job (the stages of a job share its id as their arg).
constexpr int kTagStep = 100;
constexpr int kTagJobDue = 101;      // due -> submitted (generator lateness)
constexpr int kTagJobQueue = 102;    // submitted -> first start
constexpr int kTagJobService = 103;  // first start -> terminal

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void sleep_until_s(double t) {
  const double wait = t - now_s();
  if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

double median(const std::vector<double>& v) { return v.empty() ? 0.0 : percentile(v, 50.0); }

double pct(const std::vector<double>& v, double p) { return v.empty() ? 0.0 : percentile(v, p); }

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Peak resident set of this process's own address space (VmHWM).  Not
// ru_maxrss: Linux carries that across exec, so it would report the
// launching process's peak whenever that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::unique_ptr<parallel::FixedThreadPool> make_pool(parallel::QueueMode mode) {
  parallel::ThreadPoolConfig pc;
  pc.n_threads = kThreads;
  pc.queue_mode = mode;
  return std::make_unique<parallel::FixedThreadPool>(pc);
}

md::MolecularSystem parse(const std::string& scene, std::vector<Vec3>* refs = nullptr) {
  std::istringstream is(scene);
  return md::load_scene(is, refs);
}

double coulomb_pairs(const md::MolecularSystem& sys) {
  const double n = sys.n_charged();
  return 0.5 * n * (n - 1.0);
}

// --- Result ----------------------------------------------------------------

struct Result {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  // correctness gates that did not hold

  void set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }

  // The one machine-readable line, last on stdout.
  void print() const {
    std::ostringstream os;
    os << std::setprecision(17) << "{\"correct\": " << (failures.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, vu] : metrics) {
      os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << vu.first
         << ", \"unit\": \"" << vu.second << "\"}";
      first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }
};

// --- Set-up ----------------------------------------------------------------

struct SetupTimes {
  double parse_s = 0.0;
  double ctor_s = 0.0;
  double first_step_s = 0.0;
  double total_s = 0.0;  // parse + Engine + pool + first step
};

struct Prepared {
  std::unique_ptr<parallel::FixedThreadPool> pool;
  std::unique_ptr<md::Engine> engine;
};

// Scene text -> system -> Engine -> pool -> first step done: what a user
// waits for before the first frame.
Prepared prepare(const std::string& scene, const md::EngineConfig& cfg, parallel::QueueMode mode,
                 SetupTimes* t) {
  const double t0 = now_s();
  md::MolecularSystem sys = parse(scene);
  const double t1 = now_s();
  Prepared p;
  p.engine = std::make_unique<md::Engine>(std::move(sys), cfg);
  const double t2 = now_s();
  p.pool = make_pool(mode);
  const double t3 = now_s();
  p.engine->run_native(*p.pool, 1);
  const double t4 = now_s();
  *t = {t1 - t0, t2 - t1, t4 - t3, t4 - t0};
  return p;
}

// prepare() `reps` times; returns the last engine (for the run) and the
// per-part medians.
Prepared prepare_median(const std::string& scene, const md::EngineConfig& cfg,
                        parallel::QueueMode mode, int reps, SetupTimes* med) {
  std::vector<double> parse_s, ctor_s, first_s, total_s;
  Prepared p;
  for (int r = 0; r < reps; ++r) {
    p = {};  // release the previous rep before the next one allocates
    SetupTimes t;
    p = prepare(scene, cfg, mode, &t);
    parse_s.push_back(t.parse_s);
    ctor_s.push_back(t.ctor_s);
    first_s.push_back(t.first_step_s);
    total_s.push_back(t.total_s);
  }
  *med = {median(parse_s), median(ctor_s), median(first_s), median(total_s)};
  return p;
}

// --- Traced steps and their layer breakdown --------------------------------

struct StepSpan {
  double begin = 0.0;  // ring clock
  double end = 0.0;
  bool rebuild = false;
  double lj_pairs = 0.0;  // neighbor-list entries the step's LJ loop walked
};

// Runs `steps` single steps, each bracketed on the ring's clock.
void run_spans(md::Engine& engine, parallel::FixedThreadPool& pool, int steps,
               const perf::TraceRing& clock, std::vector<StepSpan>* out) {
  for (int s = 0; s < steps; ++s) {
    const long long rebuilds = engine.rebuild_count();
    const double b = clock.now();
    engine.run_native(pool, 1);
    const double e = clock.now();
    out->push_back({b, e, engine.rebuild_count() != rebuilds,
                    static_cast<double>(engine.neighbor_list().total_entries())});
  }
}

double steps_per_second(const std::vector<StepSpan>& spans) {
  double s = 0.0;
  for (const StepSpan& sp : spans) s += sp.end - sp.begin;
  return s > 0.0 ? static_cast<double>(spans.size()) / s : 0.0;
}

// Worst case for one lane: every task of a traced step lands on it (at most
// two task records per accumulation slot in each of six phases).
std::size_t trace_capacity(long long traced_steps, int n_slots) {
  return static_cast<std::size_t>(traced_steps * n_slots * 12 + 1024);
}

// Per-layer sums over the traced steps.  Phase brackets live on the ring's
// external lane, task records on lane == pool worker.
struct LayerStats {
  int steps = 0;
  int rebuild_steps = 0;
  std::array<double, md::kNumPhaseTags> bracket_s{};  // wall time per phase tag
  std::array<double, md::kNumPhaseTags> task_s{};     // summed task time per phase tag
  double plain_forces_task_s = 0.0;  // forces-phase task time on non-rebuild steps
  double plain_pairs = 0.0;          // pairs those steps evaluated
  double lj_pairs = 0.0;
  double overhead_s = 0.0;  // sum over brackets of (bracket - busiest worker's task time)
  long long brackets = 0;
  double serial_s = 0.0;  // step wall time outside every phase bracket
  double coulomb_pairs = 0.0;
};

LayerStats analyze(const perf::TraceSnapshot& snap, const std::vector<StepSpan>& steps,
                   int external_lane, double coulomb_pairs_per_step) {
  LayerStats s;
  s.coulomb_pairs = coulomb_pairs_per_step;
  std::vector<const perf::MergedTraceEvent*> phases, tasks;
  for (const auto& m : snap.events) {
    if (m.lane == external_lane && m.event.kind == perf::TraceKind::Phase) {
      phases.push_back(&m);
    } else if (m.lane < kThreads && m.event.kind == perf::TraceKind::Task) {
      tasks.push_back(&m);
    }
  }
  // Snapshot events are ordered by begin time; steps are chronological.
  std::vector<double> bracketed(steps.size(), 0.0);
  std::size_t si = 0, ti = 0;
  for (const perf::MergedTraceEvent* pm : phases) {
    const perf::TraceEvent& p = pm->event;
    if (p.tag <= 0 || p.tag >= md::kNumPhaseTags) continue;
    while (si < steps.size() && steps[si].end < p.begin) ++si;
    if (si == steps.size()) break;
    if (p.begin < steps[si].begin) continue;  // not inside a traced step
    const auto tag = static_cast<std::size_t>(p.tag);
    std::array<double, kThreads> busy{};
    while (ti < tasks.size() && tasks[ti]->event.begin < p.begin) ++ti;
    for (std::size_t k = ti; k < tasks.size() && tasks[k]->event.begin <= p.end; ++k) {
      const perf::TraceEvent& t = tasks[k]->event;
      if (t.tag != p.tag) continue;
      const double d = t.end - t.begin;
      busy[static_cast<std::size_t>(tasks[k]->lane)] += d;
      s.task_s[tag] += d;
      if (p.tag == md::kPhaseForces && !steps[si].rebuild) s.plain_forces_task_s += d;
    }
    const double len = p.end - p.begin;
    s.bracket_s[tag] += len;
    s.overhead_s += len - *std::max_element(busy.begin(), busy.end());
    ++s.brackets;
    bracketed[si] += len;
  }
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepSpan& st = steps[i];
    ++s.steps;
    s.serial_s += (st.end - st.begin) - bracketed[i];
    s.lj_pairs += st.lj_pairs;
    if (st.rebuild) {
      ++s.rebuild_steps;
    } else {
      s.plain_pairs += st.lj_pairs + coulomb_pairs_per_step;
    }
  }
  return s;
}

// --- Rebuild passes and checkpoints, timed directly ------------------------

struct RebuildTimes {
  double bin_s = 0.0;
  double prefix_s = 0.0;
  double morton_s = 0.0;
};

// One call each of the three rebuild passes the engine runs (same pool, same
// chunk count), on the engine's current positions and neighbor counts.
RebuildTimes time_rebuild_passes(const md::Engine& engine, parallel::FixedThreadPool& pool,
                                 int reps) {
  const md::MolecularSystem& sys = engine.system();
  const md::EngineConfig& cfg = engine.config();
  const double reach = cfg.cutoff + cfg.skin;
  md::CellGrid grid(sys.box().lo, sys.box().hi, reach);
  md::NeighborList list(sys.n_atoms(), cfg.cutoff, cfg.skin);
  std::vector<double> bin_s, prefix_s, morton_s;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    grid.bin(sys.positions(), &pool, cfg.n_threads);
    const double t1 = now_s();
    list.begin_rebuild(sys.positions());
    for (int i = 0; i < sys.n_atoms(); ++i) list.set_count(i, engine.neighbor_list().count(i));
    const double t2 = now_s();
    list.finalize_offsets(&pool, cfg.n_threads);
    const double t3 = now_s();
    const std::vector<int> order =
        md::morton_order(sys.positions(), sys.box().lo, sys.box().hi, reach, &pool,
                         cfg.n_threads);
    const double t4 = now_s();
    bin_s.push_back(t1 - t0);
    prefix_s.push_back(t3 - t2);
    morton_s.push_back(t4 - t3);
  }
  return {median(bin_s), median(prefix_s), median(morton_s)};
}

struct CheckpointTimes {
  double write_s = 0.0;    // serve::checkpoint_text, as a preemption writes it
  double parse_s = 0.0;    // md::load_scene with the nref receiver
  double restore_s = 0.0;  // Engine constructor + restore_continuation
  double bytes = 0.0;
};

// The checkpoint round trip a preempted serve job pays.  Restore needs
// reorder_interval == 0, so a Morton workload restores into a Morton-off
// copy of its config: the cost is the same, the continuation is not used.
CheckpointTimes time_checkpoint(const md::Engine& engine, int reps) {
  md::EngineConfig cfg = engine.config();
  cfg.reorder_interval = 0;
  std::vector<double> write_s, parse_s, restore_s;
  double bytes = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    const std::string text = serve::checkpoint_text(engine);
    const double t1 = now_s();
    std::vector<Vec3> refs;
    md::MolecularSystem sys = parse(text, &refs);
    const double t2 = now_s();
    md::Engine restored(std::move(sys), cfg);
    restored.restore_continuation(refs);
    const double t3 = now_s();
    write_s.push_back(t1 - t0);
    parse_s.push_back(t2 - t1);
    restore_s.push_back(t3 - t2);
    bytes = static_cast<double>(text.size());
  }
  return {median(write_s), median(parse_s), median(restore_s), bytes};
}

// --- Per-layer report --------------------------------------------------------

// Serve-layer numbers; all zero for a workload without serve traffic.
struct ServeLayers {
  double small_queue_ms_p50 = 0.0;
  double bulk_queue_ms_p50 = 0.0;
  double small_service_ms_p50 = 0.0;
  double bulk_service_ms_p50 = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double preemptions_per_bulk_job = 0.0;
  double deadline_miss_frac = 0.0;
  double small_p95_ms = 0.0;
  double small_p99_ms = 0.0;
  double bulk_p50_ms = 0.0;
  double bulk_p99_ms = 0.0;
  double batch_jobs_per_s = 0.0;
  std::array<double, 4> open{};   // sent, done, failed, rejected
  std::array<double, 4> batch{};  // sent, done, failed, rejected
  double gen_late_ms_p99 = 0.0;
};

struct LayerReport {
  SetupTimes setup;
  int n_atoms = 1;
  LayerStats engine;
  RebuildTimes rebuild;
  CheckpointTimes checkpoint;
  ServeLayers serve;
  double trace_overhead_frac = 0.0;
};

// Every per-layer metric, in one fixed order, for every workload.
void emit_layers(const LayerReport& L, Result& r) {
  const LayerStats& s = L.engine;
  const double steps = std::max(1, s.steps);
  auto per_step_ms = [&](int tag) { return s.bracket_s[static_cast<std::size_t>(tag)] / steps * 1e3; };
  const double forces_bracket = s.bracket_s[md::kPhaseForces];
  const double n = L.n_atoms;

  r.set("md.forces_ms", per_step_ms(md::kPhaseForces), "ms");
  r.set("md.overlap_ms",
        s.rebuild_steps > 0 ? s.bracket_s[md::kPhaseOverlap] / s.rebuild_steps * 1e3 : 0.0,
        "ms");
  r.set("md.forces_ns_per_pair",
        s.plain_pairs > 0.0 ? s.plain_forces_task_s / s.plain_pairs * 1e9 : 0.0, "ns");
  r.set("md.forces_busy_frac",
        forces_bracket > 0.0 ? s.task_s[md::kPhaseForces] / (forces_bracket * kThreads) : 0.0,
        "fraction");
  r.set("md.lj_pairs_per_step", s.lj_pairs / steps, "count");
  r.set("md.coulomb_pairs_per_step", s.coulomb_pairs, "count");
  r.set("md.predictor_ms", per_step_ms(md::kPhasePredictor), "ms");
  r.set("md.check_ms", per_step_ms(md::kPhaseCheck), "ms");
  r.set("md.reduce_ms", per_step_ms(md::kPhaseReduce), "ms");
  r.set("md.corrector_ms", per_step_ms(md::kPhaseCorrector), "ms");
  r.set("md.serial_ms", s.serial_s / steps * 1e3, "ms");
  r.set("md.rebuilds", s.rebuild_steps, "count");
  r.set("md.bin_ms", L.rebuild.bin_s * 1e3, "ms");
  r.set("md.nbr_prefix_ms", L.rebuild.prefix_s * 1e3, "ms");
  r.set("md.morton_ms", L.rebuild.morton_s * 1e3, "ms");
  r.set("md.scene_parse_us_per_atom", L.setup.parse_s * 1e6 / n, "us");
  r.set("md.engine_ctor_ms", L.setup.ctor_s * 1e3, "ms");
  r.set("md.first_step_ms", L.setup.first_step_s * 1e3, "ms");
  r.set("md.ckpt_write_us_per_atom", L.checkpoint.write_s * 1e6 / n, "us");
  r.set("md.ckpt_parse_us_per_atom", L.checkpoint.parse_s * 1e6 / n, "us");
  r.set("md.restore_us_per_atom", L.checkpoint.restore_s * 1e6 / n, "us");
  r.set("md.ckpt_bytes_per_atom", L.checkpoint.bytes / n, "B");

  r.set("parallel.phase_overhead_us",
        s.brackets > 0 ? s.overhead_s / static_cast<double>(s.brackets) * 1e6 : 0.0, "us");
  r.set("parallel.phases_per_step", static_cast<double>(s.brackets) / steps, "count");

  const ServeLayers& v = L.serve;
  const double lookups = v.cache_hits + v.cache_misses;
  r.set("serve.small_queue_ms_p50", v.small_queue_ms_p50, "ms");
  r.set("serve.bulk_queue_ms_p50", v.bulk_queue_ms_p50, "ms");
  r.set("serve.small_service_ms_p50", v.small_service_ms_p50, "ms");
  r.set("serve.bulk_service_ms_p50", v.bulk_service_ms_p50, "ms");
  r.set("serve.cache_hit_frac", lookups > 0.0 ? v.cache_hits / lookups : 0.0, "fraction");
  r.set("serve.cache_hits", v.cache_hits, "count");
  r.set("serve.cache_misses", v.cache_misses, "count");
  r.set("serve.preemptions_per_bulk_job", v.preemptions_per_bulk_job, "count");
  r.set("serve.deadline_miss_frac", v.deadline_miss_frac, "fraction");
  r.set("serve.small_p95_ms", v.small_p95_ms, "ms");
  r.set("serve.small_p99_ms", v.small_p99_ms, "ms");
  r.set("serve.bulk_p50_ms", v.bulk_p50_ms, "ms");
  r.set("serve.bulk_p99_ms", v.bulk_p99_ms, "ms");
  r.set("serve.batch_jobs_per_s", v.batch_jobs_per_s, "jobs/s");
  const char* kinds[] = {"sent", "done", "failed", "rejected"};
  for (int k = 0; k < 4; ++k) {
    r.set(std::string("serve.open.") + kinds[k], v.open[static_cast<std::size_t>(k)], "count");
  }
  for (int k = 0; k < 4; ++k) {
    r.set(std::string("serve.batch.") + kinds[k], v.batch[static_cast<std::size_t>(k)], "count");
  }
  r.set("serve.gen_late_ms_p99", v.gen_late_ms_p99, "ms");

  r.set("perf.trace_overhead_frac", L.trace_overhead_frac, "fraction");
}

// Writes TRACE_e2e_<workload>.json: the engine's ring snapshot plus the
// benchmark's own spans, named through the phase_names table.
void write_trace(const std::string& workload, perf::TraceSnapshot snap,
                 const std::vector<perf::MergedTraceEvent>& spans) {
  snap.events.insert(snap.events.end(), spans.begin(), spans.end());
  std::stable_sort(snap.events.begin(), snap.events.end(),
                   [](const perf::MergedTraceEvent& a, const perf::MergedTraceEvent& b) {
                     return a.event.begin < b.event.begin;
                   });
  std::map<int, std::string> names = md::phase_tag_name_map();
  names[kTagStep] = "e2e.step";
  names[kTagJobDue] = "job.due_to_submit";
  names[kTagJobQueue] = "job.queue";
  names[kTagJobService] = "job.service";
  const std::string path = "TRACE_e2e_" + workload + ".json";
  std::ofstream out(path);
  perf::write_chrome_trace(snap, out, names);
  std::cerr << "  wrote " << path << "\n";
}

perf::MergedTraceEvent span_event(int lane, int tag, int arg, double begin, double end) {
  perf::MergedTraceEvent m;
  m.event = {perf::TraceKind::Phase, tag, arg, begin, end};
  m.lane = lane;
  return m;
}

// One e2e.step span per traced step, on the lane after the ring's lanes.
void add_step_spans(const std::vector<StepSpan>& steps, const perf::TraceRing& ring,
                    std::vector<perf::MergedTraceEvent>* out) {
  for (std::size_t i = 0; i < steps.size(); ++i) {
    out->push_back(span_event(ring.n_lanes(), kTagStep, static_cast<int>(i), steps[i].begin,
                              steps[i].end));
  }
}

// --- md workloads ------------------------------------------------------------

struct MdWorkload {
  md::MolecularSystem system;
  md::EngineConfig config;
  parallel::QueueMode queue_mode = parallel::QueueMode::WorkStealing;
  int setup_reps = 0;    // set-ups per run; setup_s is their median
  int trace_rounds = 0;  // traced run: rounds of (untraced block, traced block)
  int trace_block_steps = 0;
  // NVE bound on |E(end) - E(step 10)| / |E(step 10)|: 10x or more the
  // largest drift measured over the baseline seeds (README.md), leaving room
  // for a faster commit that integrates more steps in the window.
  double drift_bound = 0.0;
};

MdWorkload make_md(const std::string& name, std::uint64_t seed, bool smoke) {
  if (name == "al1000") {
    workloads::BenchmarkSpec spec = workloads::make_al1000(seed);
    md::EngineConfig cfg = spec.engine;  // Static, one chunk per thread: the 1/N split
    cfg.n_threads = kThreads;
    return {.system = std::move(spec.system),
            .config = cfg,
            .queue_mode = parallel::QueueMode::Single,
            .setup_reps = 15,
            .trace_rounds = 4,
            .trace_block_steps = smoke ? 100 : 500,
            .drift_bound = 1e-3};
  }
  md::EngineConfig cfg;
  cfg.n_threads = kThreads;
  cfg.chunks_per_thread = 4;
  cfg.assignment = sim::Assignment::WorkStealing;
  if (name == "gas16k") {
    cfg.dt_fs = 1.0;
    return {.system =
                workloads::make_lj_coulomb_gas(smoke ? 2048 : 16384, 0.008, 300.0, 0.25, seed),
            .config = cfg,
            .setup_reps = 9,
            .trace_rounds = 4,
            .trace_block_steps = smoke ? 8 : 28,
            .drift_bound = 2e-2};
  }
  cfg.dt_fs = 2.0;
  cfg.reorder_interval = 1;  // the Morton locality pass on every rebuild
  return {.system = workloads::make_droplet(smoke ? 10000 : 200000, 110.0, seed),
          .config = cfg,
          .setup_reps = smoke ? 3 : 5,
          .trace_rounds = 3,
          .trace_block_steps = smoke ? 8 : 24,
          .drift_bound = 1e-4};
}

int run_md(const std::string& name, std::uint64_t seed, double seconds, bool trace, bool smoke) {
  MdWorkload w = make_md(name, seed, smoke);
  const int n_atoms = w.system.n_atoms();
  const double cpairs = coulomb_pairs(w.system);
  std::string scene;
  {
    const md::MolecularSystem sys = std::move(w.system);  // the run sees only the text
    auto pool = make_pool(parallel::QueueMode::WorkStealing);
    scene = serve::scene_text(sys, pool.get());
  }
  std::cerr << name << ": " << n_atoms << " atoms, scene " << scene.size() / 1e6 << " MB, seed "
            << seed << (trace ? ", traced" : "") << "\n";

  Result r;
  LayerReport L;
  L.n_atoms = n_atoms;
  Prepared p = prepare_median(scene, w.config, w.queue_mode, w.setup_reps, &L.setup);
  md::Engine& engine = *p.engine;
  parallel::FixedThreadPool& pool = *p.pool;
  engine.run_native(pool, kCheckStep - 1);
  const double pe10 = engine.potential_energy();
  const double ke10 = engine.kinetic_energy();

  if (!trace) {
    std::vector<double> step_s;
    const double t0 = now_s();
    double t = t0;
    while (t - t0 < seconds) {
      engine.run_native(pool, 1);
      const double t1 = now_s();
      step_s.push_back(t1 - t);
      t = t1;
    }
    r.attempted = static_cast<long long>(step_s.size());
    r.set("steps_per_s", static_cast<double>(step_s.size()) / (t - t0), "steps/s");
    r.set("latency_p50_ms", median(step_s) * 1e3, "ms");
    r.set("setup_s", L.setup.total_s, "s");
    std::cerr << "  " << step_s.size() << " steps in " << t - t0 << " s, "
              << engine.rebuild_count() << " rebuilds so far\n";
  } else {
    const int block = w.trace_block_steps;
    perf::TraceRing ring(kThreads + 1,
                         trace_capacity(static_cast<long long>(w.trace_rounds) * block,
                                        engine.n_slots()));
    // Traced and untraced blocks alternate ABBA, so a trend in step cost
    // over the run (al1000's cascade relaxing) cancels out of the overhead.
    std::vector<StepSpan> traced, untraced;
    for (int block_i = 0; block_i < 2 * w.trace_rounds; ++block_i) {
      const bool traced_block = (block_i % 4 == 1) || (block_i % 4 == 2);
      engine.attach_trace(traced_block ? &ring : nullptr);
      run_spans(engine, pool, block, ring, traced_block ? &traced : &untraced);
    }
    engine.attach_trace(nullptr);
    const perf::TraceSnapshot snap = ring.snapshot();
    r.check(snap.dropped == 0, "trace ring dropped " + std::to_string(snap.dropped) + " events");
    r.attempted = static_cast<long long>(traced.size() + untraced.size());
    L.engine = analyze(snap, traced, ring.external_lane(), cpairs);
    L.trace_overhead_frac = 1.0 - steps_per_second(traced) / steps_per_second(untraced);
    const int reps = n_atoms > 50000 ? 1 : 5;  // one checkpoint round trip at 200k atoms takes ~3.5 s
    L.rebuild = time_rebuild_passes(engine, pool, reps);
    L.checkpoint = time_checkpoint(engine, reps);
    std::vector<perf::MergedTraceEvent> spans;
    add_step_spans(traced, ring, &spans);
    write_trace(name, snap, spans);
  }

  // NVE gate: energy at the end of the run against step 10.
  const double e10 = pe10 + ke10;
  const double drift = std::abs(engine.total_energy() - e10) / std::abs(e10);
  std::cerr << "  energy drift over " << engine.steps_done() - kCheckStep
            << " steps: " << drift << " (bound " << w.drift_bound << ")\n";
  r.check(std::isfinite(drift) && drift <= w.drift_bound, "NVE energy drift " +
                                                               std::to_string(drift) +
                                                               " exceeds its bound");
  p = {};

  // Bit gate: the run at step 10 against a single-threaded reference.
  {
    md::Engine ref(parse(scene), w.config);
    ref.run_inline(kCheckStep);
    r.check(bits_equal(ref.potential_energy(), pe10) && bits_equal(ref.kinetic_energy(), ke10),
            "step-10 energies differ from the run_inline reference");
  }

  if (trace) {
    emit_layers(L, r);
  } else {
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
  for (const std::string& f : r.failures) std::cerr << "FAIL: " << f << "\n";
  r.print();
  return r.failures.empty() ? 0 : 1;
}

// --- serve_mix -----------------------------------------------------------------

// Open-loop Poisson rate.  A bulk job runs ~190 ms, so at 40 jobs/s one is
// on the pool ~38% of the time and the small-job median sits in the
// small-jobs-alone mode; near 50% (60 jobs/s) it flips between that mode and
// the sharing-the-pool mode from run to run.  Sharing shows in the tails.
constexpr double kArrivalsPerSecond = 40.0;
constexpr int kBulkEvery = 20;               // one bulk job in every 20: 5%
constexpr int kSmallAtoms = 256;
constexpr int kSmallSteps = 24;
constexpr double kSmallDeadlineMs = 250.0;
constexpr int kBulkAtoms = 2048;
constexpr int kBulkSteps = 120;
constexpr int kBulkSampleInterval = 10;
constexpr int kPreemptSlice = 25;  // bulk jobs: 4 preemptions each; small jobs: none
constexpr int kBulkCheckEvery = 8;
constexpr double kOpenShare = 0.55;           // share of --seconds given to the open loop
constexpr double kBatchJobsPerSecond = 120.0;  // sizes the batch to fill the rest
constexpr double kMaxGeneratorLateMs = 5.0;

struct Job {
  bool bulk = false;
  int bulk_index = -1;  // into the bulk scenes
  double due = 0.0;     // now_s() clock
  double submit = 0.0;
  std::shared_ptr<serve::JobTicket> ticket;

  double terminal() const { return submit + ticket->latency_seconds(); }
  double first_start() const { return submit + ticket->queue_seconds(); }
};

// Every kBulkEvery-th job (from a seeded offset) is bulk: every seed has the
// same class mix, and bulk arrivals are spaced like an Erlang-20 process, so
// the share of time a bulk job shares the pool with small jobs, which sets
// the small-job p50, barely moves from seed to seed.
void assign_classes(std::vector<Job>& jobs, Rng& rng, int* n_bulk) {
  for (auto k = static_cast<std::size_t>(rng.below(kBulkEvery)); k < jobs.size();
       k += kBulkEvery) {
    jobs[k].bulk = true;
    jobs[k].bulk_index = (*n_bulk)++;
  }
}

serve::JobRequest small_request(const std::string& scene, std::size_t i) {
  serve::JobRequest req;
  req.tenant = "t" + std::to_string(1 + i % 3);
  req.scene_text = scene;
  req.steps = kSmallSteps;
  req.n_threads = kThreads;
  req.deadline_ms = kSmallDeadlineMs;
  return req;
}

serve::JobRequest bulk_request(const std::string& scene) {
  serve::JobRequest req;
  req.tenant = "t0";
  req.scene_text = scene;
  req.steps = kBulkSteps;
  req.n_threads = kThreads;
  req.sample_interval = kBulkSampleInterval;
  req.dt_fs = 1.0;
  return req;
}

md::EngineConfig job_config(const serve::JobRequest& req) {
  md::EngineConfig cfg;
  cfg.n_threads = req.n_threads;
  cfg.chunks_per_thread = req.chunks_per_thread;
  cfg.assignment = req.assignment;
  cfg.dt_fs = req.dt_fs;
  cfg.cutoff = req.cutoff;
  cfg.skin = req.skin;
  return cfg;
}

int run_serve(std::uint64_t seed, double seconds, bool trace, bool smoke) {
  Rng rng(seed);
  const double open_s = kOpenShare * seconds;
  std::vector<Job> open, batch;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / kArrivalsPerSecond;
    if (t >= open_s) break;
    Job j;
    j.due = t;  // relative until the phase starts
    open.push_back(j);
  }
  batch.resize(static_cast<std::size_t>(
      std::max(20.0, std::round(kBatchJobsPerSecond * (1.0 - kOpenShare) * seconds))));
  int n_bulk = 0;
  assign_classes(open, rng, &n_bulk);
  assign_classes(batch, rng, &n_bulk);

  const std::string small_scene = serve::scene_text(
      workloads::make_lj_gas(kSmallAtoms, 0.006, 300.0, rng.next()));
  std::vector<std::string> bulk_scenes;
  for (int b = 0; b < n_bulk; ++b) {
    bulk_scenes.push_back(serve::scene_text(
        workloads::make_lj_coulomb_gas(kBulkAtoms, 0.008, 300.0, 0.25, rng.next())));
  }
  std::cerr << "serve_mix: " << open.size() << " open-loop jobs over " << open_s << " s, batch of "
            << batch.size() << ", " << n_bulk << " bulk, seed " << seed
            << (trace ? ", traced" : "") << (smoke ? ", smoke" : "") << "\n";

  serve::SchedulerConfig sc;
  sc.n_pools = 1;
  sc.threads_per_pool = kThreads;
  sc.queue_mode = parallel::QueueMode::WorkStealing;
  sc.max_drivers = 2;
  sc.max_queued_total = std::max<int>(256, 2 * static_cast<int>(batch.size()));
  sc.preempt_slice_steps = kPreemptSlice;
  sc.mode = serve::SchedMode::Deadline;

  Result r;
  // Set-up: a fresh scheduler until its first small job is done (cold
  // cache: the template is parsed once).  The last one serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<serve::BatchScheduler> sched;
  for (int rep = 0; rep < (smoke ? 3 : 15); ++rep) {
    sched.reset();
    const double t0 = now_s();
    sched = std::make_unique<serve::BatchScheduler>(sc);
    const auto ticket = sched->submit(small_request(small_scene, 0));
    ticket->wait();
    setup_s.push_back(now_s() - t0);
    r.check(ticket->status() == serve::JobStatus::Done, "set-up job did not finish");
  }
  const long long hits0 = sched->scene_cache().hits();
  const long long misses0 = sched->scene_cache().misses();

  auto submit = [&](Job& j, std::size_t i) {
    j.submit = now_s();
    j.ticket = sched->submit(j.bulk ? bulk_request(bulk_scenes[static_cast<std::size_t>(
                                          j.bulk_index)])
                                    : small_request(small_scene, i));
  };

  // Open loop: one generator (this thread) submits each job when it is due.
  const double open0 = now_s() + 0.01;
  for (std::size_t i = 0; i < open.size(); ++i) {
    open[i].due += open0;
    sleep_until_s(open[i].due);
    submit(open[i], i);
  }
  for (Job& j : open) j.ticket->wait();

  // Batch: every job due at once; admission caps raised to hold it.
  for (const char* t : {"t0", "t1", "t2", "t3"}) {
    sched->set_quota(t, {1.0, static_cast<int>(batch.size())});
  }
  const double batch0 = now_s();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].due = batch0;
    submit(batch[i], i);
  }
  double batch_end = batch0;
  long long batch_steps = 0;
  for (Job& j : batch) {
    j.ticket->wait();
    batch_end = std::max(batch_end, j.terminal());
    batch_steps += j.ticket->steps_completed();
  }
  const double batch_s = batch_end - batch0;
  const long long hits = sched->scene_cache().hits() - hits0;
  const long long misses = sched->scene_cache().misses() - misses0;
  sched.reset();

  // Per-phase counts and per-class latencies.
  ServeLayers v;
  std::vector<double> small_lat, bulk_lat, small_queue, bulk_queue, small_service, bulk_service,
      late;
  long long deadline_misses = 0, small_jobs = 0, bulk_preemptions = 0, bulk_jobs = 0;
  auto count = [](const std::vector<Job>& jobs, std::array<double, 4>& c) {
    for (const Job& j : jobs) {
      c[0] += 1;
      const serve::JobStatus s = j.ticket->status();
      c[1] += s == serve::JobStatus::Done;
      c[2] += s == serve::JobStatus::Failed;
      c[3] += s == serve::JobStatus::Rejected;
    }
  };
  count(open, v.open);
  count(batch, v.batch);
  // Latency and its parts come from the open loop; in the batch every job
  // queues behind the whole batch by design.
  for (const Job& j : open) {
    const double queue = j.ticket->queue_seconds() * 1e3;
    const double service = (j.ticket->latency_seconds() - j.ticket->queue_seconds()) * 1e3;
    (j.bulk ? bulk_queue : small_queue).push_back(queue);
    (j.bulk ? bulk_service : small_service).push_back(service);
    (j.bulk ? bulk_lat : small_lat).push_back((j.terminal() - j.due) * 1e3);
    late.push_back((j.submit - j.due) * 1e3);
    if (j.bulk) {
      ++bulk_jobs;
      bulk_preemptions += j.ticket->preemptions();
    } else {
      ++small_jobs;
      deadline_misses += j.ticket->deadline_missed();
    }
  }
  v.small_queue_ms_p50 = median(small_queue);
  v.bulk_queue_ms_p50 = median(bulk_queue);
  v.small_service_ms_p50 = median(small_service);
  v.bulk_service_ms_p50 = median(bulk_service);
  v.cache_hits = static_cast<double>(hits);
  v.cache_misses = static_cast<double>(misses);
  v.preemptions_per_bulk_job =
      bulk_jobs > 0 ? static_cast<double>(bulk_preemptions) / static_cast<double>(bulk_jobs) : 0.0;
  v.deadline_miss_frac =
      small_jobs > 0 ? static_cast<double>(deadline_misses) / static_cast<double>(small_jobs) : 0.0;
  v.small_p95_ms = pct(small_lat, 95.0);
  v.small_p99_ms = pct(small_lat, 99.0);
  v.bulk_p50_ms = median(bulk_lat);
  v.bulk_p99_ms = pct(bulk_lat, 99.0);
  v.batch_jobs_per_s = static_cast<double>(batch.size()) / batch_s;
  v.gen_late_ms_p99 = pct(late, 99.0);
  std::cerr << "  open: small p50 " << median(small_lat) << " ms, bulk p50 " << v.bulk_p50_ms
            << " ms, generator late p99 " << v.gen_late_ms_p99 << " ms; batch: " << batch_s
            << " s, " << v.batch_jobs_per_s << " jobs/s; cache " << hits << " hits / " << misses
            << " misses\n";
  if (v.gen_late_ms_p99 > kMaxGeneratorLateMs) {
    std::cerr << "WARNING: the generator ran " << v.gen_late_ms_p99
              << " ms late at p99; this run's latencies are invalid\n";
  }

  r.attempted = static_cast<long long>(open.size() + batch.size());
  r.failed = static_cast<long long>(v.open[2] + v.open[3] + v.batch[2] + v.batch[3]);
  r.check(r.failed == 0, std::to_string(r.failed) + " jobs failed or were rejected");

  // Bit gate against dedicated-pool runs; in a traced run the checked bulk
  // references alternate traced and untraced, giving the md-layer numbers
  // for bulk jobs and the tracing overhead.
  auto pool = make_pool(parallel::QueueMode::WorkStealing);
  LayerReport L;
  L.n_atoms = kBulkAtoms;
  std::unique_ptr<perf::TraceRing> ring;
  const int n_checked = (n_bulk + kBulkCheckEvery - 1) / kBulkCheckEvery;
  if (trace) {
    ring = std::make_unique<perf::TraceRing>(
        kThreads + 1, trace_capacity(static_cast<long long>(n_checked) * kBulkSteps, kThreads));
  }
  std::vector<StepSpan> traced, untraced;
  // `spans` null: plain run; otherwise steps are recorded there, traced when
  // it is `traced`.
  auto dedicated = [&](const serve::JobRequest& req, std::vector<StepSpan>* spans) {
    md::Engine e(parse(req.scene_text), job_config(req));
    if (spans == nullptr) {
      e.run_native(*pool, req.steps);
    } else {
      if (spans == &traced) e.attach_trace(ring.get());
      run_spans(e, *pool, req.steps, *ring, spans);
    }
    return std::pair{e.potential_energy(), e.kinetic_energy()};
  };
  const auto small_ref = dedicated(small_request(small_scene, 0), nullptr);
  int checked = 0;
  for (const std::vector<Job>* phase : {&open, &batch}) {
    for (const Job& j : *phase) {
      if (j.ticket->status() != serve::JobStatus::Done) continue;
      std::pair<double, double> ref = small_ref;
      if (j.bulk) {
        if (j.bulk_index % kBulkCheckEvery != 0) continue;
        std::vector<StepSpan>* spans =
            ring == nullptr ? nullptr : (checked % 2 == 0 ? &traced : &untraced);
        ref = dedicated(bulk_request(bulk_scenes[static_cast<std::size_t>(j.bulk_index)]), spans);
        ++checked;
      }
      r.check(bits_equal(j.ticket->potential_energy(), ref.first) &&
                  bits_equal(j.ticket->kinetic_energy(), ref.second),
              std::string(j.bulk ? "bulk" : "small") + " job energies differ from the "
                                                       "dedicated-pool reference");
    }
  }
  std::cerr << "  checked every small job and " << checked << " bulk jobs bitwise\n";

  if (trace) {
    L.serve = v;
    const md::MolecularSystem bulk0 = parse(bulk_scenes.front());
    const perf::TraceSnapshot snap = ring->snapshot();
    r.check(snap.dropped == 0, "trace ring dropped " + std::to_string(snap.dropped) + " events");
    L.engine = analyze(snap, traced, ring->external_lane(), coulomb_pairs(bulk0));
    if (!untraced.empty()) {
      L.trace_overhead_frac = 1.0 - steps_per_second(traced) / steps_per_second(untraced);
    }
    // Set-up, rebuild passes and checkpoint round trip of a bulk job: the
    // cache-miss and preemption paths.
    const serve::JobRequest req = bulk_request(bulk_scenes.front());
    Prepared p = prepare_median(req.scene_text, job_config(req), parallel::QueueMode::WorkStealing,
                                5, &L.setup);
    p.engine->run_native(*p.pool, kPreemptSlice - 1);
    L.rebuild = time_rebuild_passes(*p.engine, *p.pool, 5);
    L.checkpoint = time_checkpoint(*p.engine, 5);

    // Job spans share the ring's clock: now_s() + offset.
    const double offset = ring->now() - now_s();
    std::vector<perf::MergedTraceEvent> spans;
    int id = 0;
    for (const std::vector<Job>* phase : {&open, &batch}) {
      for (const Job& j : *phase) {
        const int lane = 1000 + id;
        spans.push_back(span_event(lane, kTagJobDue, id, j.due + offset, j.submit + offset));
        spans.push_back(
            span_event(lane, kTagJobQueue, id, j.submit + offset, j.first_start() + offset));
        spans.push_back(
            span_event(lane, kTagJobService, id, j.first_start() + offset, j.terminal() + offset));
        ++id;
      }
    }
    add_step_spans(traced, *ring, &spans);
    write_trace("serve_mix", snap, spans);
    emit_layers(L, r);
  } else {
    r.set("steps_per_s", static_cast<double>(batch_steps) / batch_s, "steps/s");
    r.set("latency_p50_ms", median(small_lat), "ms");
    r.set("setup_s", median(setup_s), "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
  for (const std::string& f : r.failures) std::cerr << "FAIL: " << f << "\n";
  r.print();
  return r.failures.empty() ? 0 : 1;
}

int usage() {
  std::cerr << "usage: mwx_e2e --workload al1000|gas16k|droplet200k|serve_mix [--seed N]\n"
               "               [--seconds S] [--trace 0|1] [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      trace = true;
      if (has_value && (std::string(argv[i + 1]) == "0" || std::string(argv[i + 1]) == "1")) {
        trace = std::string(argv[++i]) == "1";
      }
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return usage();
    }
  }
  if (!(seconds > 0.0)) return usage();
  try {
    if (workload == "al1000" || workload == "gas16k" || workload == "droplet200k") {
      return run_md(workload, seed, seconds, trace, smoke);
    }
    if (workload == "serve_mix") return run_serve(seed, seconds, trace, smoke);
  } catch (const std::exception& e) {
    std::cerr << "mwx_e2e: " << e.what() << "\n";
    return 2;
  }
  return usage();
}
