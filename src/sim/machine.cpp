#include "sim/machine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>

#include "common/require.hpp"

namespace mwx::sim {

namespace {
// Accesses executed between event-loop turns of one thread.  Small enough to
// keep cross-thread interleaving (and thus memory-controller queueing)
// honest, large enough to keep the event loop cheap.
constexpr std::uint32_t kAccessBatch = 8;
}  // namespace

Machine::Machine(MachineConfig config)
    : config_(std::move(config)),
      pricing_(make_pricing(config_.spec, config_.cost)),
      rng_(config_.sched.seed),
      event_log_(std::max(1, config_.n_threads)) {
  const auto& spec = config_.spec;
  require(config_.n_threads > 0, "machine needs at least one worker thread");
  require(spec.n_pus() > 0, "machine spec has no PUs");

  for (const auto& c : levels_in_order(spec)) {
    Level lvl;
    lvl.spec = c;
    const int instances = (spec.n_pus() + c.pus_per_instance - 1) / c.pus_per_instance;
    lvl.instances.reserve(static_cast<std::size_t>(instances));
    for (int i = 0; i < instances; ++i) {
      lvl.instances.emplace_back(c.size_bytes, c.line_bytes, c.associativity);
    }
    lvl.is_filled.assign(static_cast<std::size_t>(instances), false);
    levels_.push_back(std::move(lvl));
  }

  controller_free_.assign(static_cast<std::size_t>(spec.packages), 0.0);
  occupancy_.assign(static_cast<std::size_t>(spec.n_cores()), 0);

  const double hz = spec.ghz * 1e9;
  noise_rate_cycles_ = config_.sched.noise_bursts_per_second > 0
                           ? hz / config_.sched.noise_bursts_per_second
                           : 0.0;
  noise_len_cycles_ = config_.sched.noise_burst_seconds * hz;
  noise_next_.assign(static_cast<std::size_t>(spec.n_cores()), 0.0);
  for (auto& t : noise_next_) {
    t = noise_rate_cycles_ > 0 ? exp_sample(noise_rate_cycles_) : 1e300;
  }

  if (config_.instrumentation_agent) agent_core_ = spec.n_cores() - 1;

  require(config_.trace == nullptr || config_.trace->n_lanes() >= config_.n_threads + 1,
          "trace ring needs a lane per worker thread plus one external lane");

  threads_.resize(static_cast<std::size_t>(config_.n_threads));
  for (int i = 0; i < config_.n_threads; ++i) {
    ThreadState& ts = threads_[static_cast<std::size_t>(i)];
    ts.time = 0.0;
    if (!config_.pin_masks.empty()) {
      ts.affinity = config_.pin_masks[static_cast<std::size_t>(i) % config_.pin_masks.size()];
    } else {
      ts.affinity = topo::CpuSet::all(spec.n_pus());
    }
    require(!(ts.affinity & topo::CpuSet::all(spec.n_pus())).empty(),
            "thread affinity mask selects no PU on this machine");
  }
}

void Machine::set_affinity(int thread, const topo::CpuSet& mask) {
  require(thread >= 0 && thread < config_.n_threads, "thread index out of range");
  require(!(mask & topo::CpuSet::all(config_.spec.n_pus())).empty(),
          "affinity mask selects no PU on this machine");
  threads_[static_cast<std::size_t>(thread)].affinity = mask;
}

double Machine::exp_sample(double mean) {
  double u = rng_.uniform();
  while (u <= 1e-300) u = rng_.uniform();
  return -std::log(u) * mean;
}

double Machine::compute_factor(int pu) const {
  const int core = config_.spec.pu_to_core(pu);
  int occ = occupancy_[static_cast<std::size_t>(core)];
  if (core == agent_core_) ++occ;
  if (occ <= 1) return 1.0;
  const int effective = std::min(occ, config_.spec.smt_per_core);
  const double smt = effective > 1 ? config_.cost.smt_slowdown : 1.0;
  return (static_cast<double>(occ) / static_cast<double>(effective)) * smt;
}

void Machine::note_residency(int tid, double now) {
  if (!config_.record_residency) return;
  ThreadState& ts = threads_[static_cast<std::size_t>(tid)];
  if (ts.pu >= 0 && now > ts.seg_begin) {
    residency_.push_back({tid, ts.pu, to_seconds(ts.seg_begin), to_seconds(now)});
  }
}

double Machine::place_thread(int tid, double now) {
  ThreadState& ts = threads_[static_cast<std::size_t>(tid)];
  const auto& spec = config_.spec;
  const topo::CpuSet allowed = ts.affinity & topo::CpuSet::all(spec.n_pus());
  MWX_ASSERT(!allowed.empty());

  int chosen = -1;
  // Affinity tendency: sometimes the scheduler keeps the thread where it ran
  // last (if that PU's core is currently free of other threads).
  if (ts.last_pu >= 0 && allowed.test(ts.last_pu) &&
      occupancy_[static_cast<std::size_t>(spec.pu_to_core(ts.last_pu))] == 0 &&
      rng_.uniform() < config_.sched.stay_probability) {
    chosen = ts.last_pu;
  }
  if (chosen < 0) {
    // Least-loaded core among allowed PUs; the agent core counts as loaded.
    int best_score = 1 << 28;
    int n_best = 0;
    for (int pu = allowed.first(); pu >= 0; pu = allowed.next(pu)) {
      const int core = spec.pu_to_core(pu);
      int score = occupancy_[static_cast<std::size_t>(core)] * 4;
      if (core == agent_core_) score += 4;
      if (pu % spec.smt_per_core != 0) score += 1;  // prefer primary SMT threads
      if (score < best_score) {
        best_score = score;
        chosen = pu;
        n_best = 1;
      } else if (score == best_score) {
        // Reservoir-sample among ties so placement is not deterministic.
        ++n_best;
        if (rng_.below(static_cast<std::uint64_t>(n_best)) == 0) chosen = pu;
      }
    }
  }
  MWX_ASSERT(chosen >= 0);

  if (ts.last_pu >= 0 && chosen != ts.last_pu) {
    ++counters_.migrations;
    ++dom(chosen).migrations;
    now += config_.cost.migration_cycles;
  }
  ts.pu = chosen;
  ts.seg_begin = now;
  ++occupancy_[static_cast<std::size_t>(spec.pu_to_core(chosen))];
  // Bursts that fired while the core was idle are uninteresting history.
  auto& nb = noise_next_[static_cast<std::size_t>(spec.pu_to_core(chosen))];
  if (noise_rate_cycles_ > 0 && nb < now) nb = now + exp_sample(noise_rate_cycles_);
  return now;
}

void Machine::park_thread(int tid, double now) {
  ThreadState& ts = threads_[static_cast<std::size_t>(tid)];
  if (ts.pu < 0) return;
  note_residency(tid, now);
  --occupancy_[static_cast<std::size_t>(config_.spec.pu_to_core(ts.pu))];
  ts.last_pu = ts.pu;
  ts.pu = -1;
}

double Machine::consume_noise(int tid, double now) {
  if (noise_rate_cycles_ <= 0) return now;
  ThreadState& ts = threads_[static_cast<std::size_t>(tid)];
  const auto& spec = config_.spec;
  int core = spec.pu_to_core(ts.pu);
  auto& nb = noise_next_[static_cast<std::size_t>(core)];
  while (nb <= now) {
    const double burst = exp_sample(noise_len_cycles_);
    // Can the thread dodge the burst?  Preferably to a free core; failing
    // that, to an idle SMT sibling PU of a busy core (it then runs at the
    // SMT-shared rate, which still beats losing the whole burst).
    int alternative = -1;
    int smt_alternative = -1;
    const topo::CpuSet allowed = ts.affinity & topo::CpuSet::all(spec.n_pus());
    for (int pu = allowed.first(); pu >= 0; pu = allowed.next(pu)) {
      const int c = spec.pu_to_core(pu);
      if (c == core || c == agent_core_) continue;
      const int occ = occupancy_[static_cast<std::size_t>(c)];
      if (occ == 0) {
        alternative = pu;
        break;
      }
      if (smt_alternative < 0 && occ < spec.smt_per_core) smt_alternative = pu;
    }
    if (alternative < 0) alternative = smt_alternative;
    nb = std::max(nb + burst, now) + exp_sample(noise_rate_cycles_);
    if (alternative >= 0) {
      // OS moves the thread away; the burst is someone else's problem.
      note_residency(tid, now);
      --occupancy_[static_cast<std::size_t>(core)];
      ts.last_pu = ts.pu;
      ts.pu = alternative;
      ts.seg_begin = now + config_.cost.migration_cycles;
      core = spec.pu_to_core(alternative);
      ++occupancy_[static_cast<std::size_t>(core)];
      ++counters_.migrations;
      ++dom(alternative).migrations;
      now += config_.cost.migration_cycles;
    } else {
      // No free core to flee to: the thread timeshares the core with the
      // interloper for the burst instead of losing it outright.
      const double stall = 0.5 * burst;
      counters_.noise_stall_cycles += stall;
      dom(ts.pu).noise_stall_cycles += stall;
      now += stall;
    }
  }
  return now;
}

namespace {
// The per-domain mirror of a level's CacheStats; levels beyond 3 have no
// counter slot (the machine-global view folds exactly levels 1-3 too).
CacheStats* level_stats(MachineCounters& c, int level) {
  if (level == 1) return &c.l1;
  if (level == 2) return &c.l2;
  if (level == 3) return &c.l3;
  return nullptr;
}
}  // namespace

double Machine::charge_access(int pu, const Access& a, double t) {
  double cost = 0.0;
  MachineCounters& d = dom(pu);
  // Home package of this line: the NUMA directory's per-address answer when
  // one is attached (modulo the package count, so a directory configured
  // with more domains than the machine has packages still maps sanely),
  // falling back to the global home_package knob, falling back to "local".
  int home = config_.spec.memory.home_package;
  if (config_.numa != nullptr) {
    const int h = config_.numa->domain_of(a.addr);
    if (h >= 0) home = h % config_.spec.packages;
  }
  for (std::size_t li = 0; li < levels_.size(); ++li) {
    Level& lvl = levels_[li];
    const auto inst = static_cast<std::size_t>(pu / lvl.spec.pus_per_instance);
    const auto r = lvl.instances[inst].access(a.addr, a.write);
    if (!r.hit && !lvl.is_filled[inst]) {
      lvl.is_filled[inst] = true;
      lvl.filled.push_back(inst);
    }
    // Mirror this lookup's stat increments into the (phase, core) domain —
    // the machine-global l1/l2/l3 views aggregate the cache instances
    // directly, so the mirror is what makes per-domain sums conserve them.
    if (CacheStats* ls = level_stats(d, lvl.spec.level)) {
      if (r.hit) {
        ++ls->hits;
      } else {
        ++ls->misses;
        if (r.evicted_dirty) ++ls->dirty_evictions;
      }
    }
    cost += pricing_.levels[li].hit_latency_cycles;
    const bool last_level = li + 1 == levels_.size();
    if (a.write && lvl.filled.size() > 1) {
      // Coherence: gaining write ownership invalidates copies in every other
      // instance of this level that has ever been filled.
      const std::uint64_t line = a.addr / static_cast<std::uint64_t>(lvl.spec.line_bytes);
      for (const std::size_t other : lvl.filled) {
        if (other != inst) lvl.instances[other].invalidate_line(line);
      }
    }
    if (last_level && r.evicted_dirty) {
      // Write-back occupies the memory controller but does not stall the
      // thread.  (The evicted line's own home may differ from the fetched
      // line's; charging the fetch's home keeps the model one-lookup cheap
      // and is exact whenever eviction victim and fetch target share a
      // region, the common case for the engine's streaming phases.)
      const int pkg = home >= 0 ? home : config_.spec.pu_to_package(pu);
      controller_free_[static_cast<std::size_t>(pkg)] =
          std::max(controller_free_[static_cast<std::size_t>(pkg)], t) +
          pricing_.line_occupancy_cycles;
      ++counters_.dram_writebacks;
      ++d.dram_writebacks;
    }
    if (r.hit) return cost;
  }
  // Miss in every level: fetch from DRAM through the serving controller
  // (the line's home node when one is modelled).
  const int this_pkg = config_.spec.pu_to_package(pu);
  const int pkg = home >= 0 ? home : this_pkg;
  const bool remote = home >= 0 && this_pkg != home;
  double& free_at = controller_free_[static_cast<std::size_t>(pkg)];
  const double start = std::max(t + cost, free_at);
  const double queue_delay = start - (t + cost);
  free_at = start + pricing_.line_occupancy_cycles;
  ++counters_.dram_line_fetches;
  counters_.dram_queue_cycles += queue_delay;
  ++d.dram_line_fetches;
  d.dram_queue_cycles += queue_delay;
  if (remote) {
    ++counters_.dram_remote_fetches;
    ++d.dram_remote_fetches;
  }
  // The data transfer itself overlaps with the access latency for the
  // requesting thread; only the overlapped latency and any queueing behind
  // earlier transfers stall it.
  cost += (remote ? pricing_.dram_stall_remote_cycles : pricing_.dram_stall_local_cycles) +
          queue_delay;
  return cost;
}

PhaseResult Machine::run_phase(const PhaseWork& work, int instr_calls_per_task) {
  const int n = config_.n_threads;
  const double phase_start = global_cycles_;

  // Per-core attribution row for this phase tag.  Repeated phases with the
  // same tag (one per timestep) accumulate into the same row; map nodes are
  // stable, so the hot-path pointer survives later insertions.
  auto& phase_row = phase_core_[work.tag];
  if (phase_row.empty()) {
    phase_row.resize(static_cast<std::size_t>(config_.spec.n_cores()));
  }
  cur_phase_ = &phase_row;

  // --- Dispatch: the master pushes tasks into the queue(s). Task i becomes
  // available once pushed, which staggers thread start times (launch skew,
  // Section IV-B).
  std::vector<double> available(work.tasks.size());
  for (std::size_t i = 0; i < work.tasks.size(); ++i) {
    available[i] = phase_start + static_cast<double>(i + 1) * config_.cost.dispatch_cycles_per_task;
  }

  // Static assignment: per-thread FIFO of task indices.  WorkStealing starts
  // from the same owner placement but lets idle threads raid the back end of
  // a busy peer's deque.
  std::vector<std::vector<std::uint32_t>> static_queues(static_cast<std::size_t>(n));
  std::vector<std::size_t> static_next(static_cast<std::size_t>(n), 0);
  std::vector<std::deque<std::uint32_t>> ws_queues(static_cast<std::size_t>(n));
  if (work.assignment == Assignment::Static || work.assignment == Assignment::WorkStealing) {
    for (std::uint32_t i = 0; i < work.tasks.size(); ++i) {
      const int owner = work.tasks[i].owner;
      const int w = owner >= 0 ? owner % n : static_cast<int>(i) % n;
      if (work.assignment == Assignment::Static) {
        static_queues[static_cast<std::size_t>(w)].push_back(i);
      } else {
        ws_queues[static_cast<std::size_t>(w)].push_back(i);
      }
    }
  }
  std::size_t shared_next = 0;
  double shared_queue_free = phase_start;

  // --- Wake the pool.
  using HeapItem = std::pair<double, int>;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (int tid = 0; tid < n; ++tid) {
    ThreadState& ts = threads_[static_cast<std::size_t>(tid)];
    ts.state = 0;
    ts.task = nullptr;
    ts.busy_cycles = 0.0;
    double t = std::max(ts.time, phase_start) + config_.cost.wake_latency_cycles;
    t = place_thread(tid, t);
    ts.time = t;
    heap.emplace(t, tid);
  }

  PhaseResult result;
  result.begin_seconds = to_seconds(phase_start);
  result.busy_seconds.assign(static_cast<std::size_t>(n), 0.0);
  result.arrival_seconds.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<double> arrival(static_cast<std::size_t>(n), phase_start);

  // --- Event loop: always advance the thread with the smallest local time.
  while (!heap.empty()) {
    auto [t, tid] = heap.top();
    heap.pop();
    ThreadState& ts = threads_[static_cast<std::size_t>(tid)];
    MWX_ASSERT(ts.state != 2);
    t = consume_noise(tid, t);

    if (ts.state == 0) {
      // Acquire the next task.
      std::uint32_t idx = 0;
      bool got = false;
      if (work.assignment == Assignment::Static) {
        auto& q = static_queues[static_cast<std::size_t>(tid)];
        auto& next = static_next[static_cast<std::size_t>(tid)];
        if (next < q.size()) {
          idx = q[next++];
          got = true;
          t += config_.cost.queue_uncontended_cycles;
          t = std::max(t, available[idx]);
        }
      } else if (work.assignment == Assignment::WorkStealing) {
        auto& own = ws_queues[static_cast<std::size_t>(tid)];
        if (!own.empty()) {
          // Owner pop: lock-free bottom-end (newest) take — Chase–Lev LIFO.
          idx = own.back();
          own.pop_back();
          got = true;
          t += config_.cost.deque_pop_cycles;
          t = std::max(t, available[idx]);
        } else {
          // Probe peers round-robin; steal the top end (oldest task) of the
          // first busy deque — under a contiguous triangular split that is
          // the victim's heaviest pending chunk, which is exactly what an
          // idle thread should relieve it of.
          for (int k = 1; k < n; ++k) {
            auto& victim = ws_queues[static_cast<std::size_t>((tid + k) % n)];
            t += config_.cost.steal_probe_cycles;
            counters_.steal_overhead_cycles += config_.cost.steal_probe_cycles;
            dom(ts.pu).steal_overhead_cycles += config_.cost.steal_probe_cycles;
            if (!victim.empty()) {
              idx = victim.front();
              victim.pop_front();
              got = true;
              ++counters_.steals;
              ++dom(ts.pu).steals;
              t += config_.cost.steal_cycles;
              counters_.steal_overhead_cycles += config_.cost.steal_cycles;
              dom(ts.pu).steal_overhead_cycles += config_.cost.steal_cycles;
              t = std::max(t, available[idx]);
              if (config_.trace != nullptr) {
                config_.trace->record(tid, perf::TraceKind::Steal, work.tag, to_seconds(t),
                                      to_seconds(t), (tid + k) % n);
              }
              break;
            }
          }
        }
      } else {
        if (shared_next < work.tasks.size()) {
          const double lock_start = std::max(t, shared_queue_free);
          counters_.queue_wait_cycles += lock_start - t;
          dom(ts.pu).queue_wait_cycles += lock_start - t;
          shared_queue_free = lock_start + config_.cost.queue_pop_cycles;
          idx = static_cast<std::uint32_t>(shared_next++);
          got = true;
          t = std::max(lock_start + config_.cost.queue_pop_cycles, available[idx]);
        }
      }
      if (!got) {
        // Nothing left: arrive at the barrier.
        ts.state = 2;
        ts.time = t;
        arrival[static_cast<std::size_t>(tid)] = t;
        park_thread(tid, t);
        continue;
      }
      const SimTask& task = work.tasks[idx];
      ts.task = &task;
      ts.state = 1;
      ts.next_access = task.access_begin;
      ts.compute_left = task.compute_cycles;
      if (config_.instrumentation_agent && instr_calls_per_task > 0) {
        ts.compute_left +=
            static_cast<double>(instr_calls_per_task) * config_.cost.instrumentation_call_cycles;
      }
      const std::uint32_t n_acc = task.access_end - task.access_begin;
      ts.compute_per_access = n_acc > 0 ? task.compute_cycles / static_cast<double>(n_acc) : 0.0;
      ts.task_begin = t;
      ts.time = t;
      heap.emplace(t, tid);
      continue;
    }

    // Executing: run one batch of accesses (with their share of compute), or
    // the remaining pure compute.
    const SimTask& task = *ts.task;
    const double factor = compute_factor(ts.pu);
    if (ts.next_access < task.access_end) {
      const std::uint32_t end = std::min(task.access_end, ts.next_access + kAccessBatch);
      for (; ts.next_access < end; ++ts.next_access) {
        const double comp = ts.compute_per_access * factor;
        ts.compute_left -= ts.compute_per_access;
        t += comp + charge_access(ts.pu, work.accesses[ts.next_access], t + comp);
      }
      if (ts.next_access < task.access_end) {
        ts.time = t;
        heap.emplace(t, tid);
        continue;
      }
      // fall through to finish the task with any residual compute
    }
    if (ts.compute_left > 0.0) {
      t += ts.compute_left * factor;
      ts.compute_left = 0.0;
    }
    // JaMON-style synchronized monitor updates at task end.
    for (int m = 0; m < task.monitor_updates; ++m) {
      const double lock_start = std::max(t, monitor_lock_free_);
      counters_.monitor_wait_cycles += lock_start - t;
      dom(ts.pu).monitor_wait_cycles += lock_start - t;
      monitor_lock_free_ = lock_start + config_.cost.monitor_lock_hold_cycles;
      t = lock_start + config_.cost.monitor_lock_hold_cycles;
    }
    ts.busy_cycles += t - ts.task_begin;
    if (config_.record_events) {
      event_log_.record(tid, work.tag, to_seconds(ts.task_begin), to_seconds(t),
                        ts.pu >= 0 ? config_.spec.pu_to_core(ts.pu) : -1);
    }
    if (config_.trace != nullptr) {
      config_.trace->record(tid, perf::TraceKind::Task, work.tag, to_seconds(ts.task_begin),
                            to_seconds(t), task.owner);
    }
    ts.task = nullptr;
    ts.state = 0;
    ts.time = t;
    heap.emplace(t, tid);
  }

  // --- Barrier: release at last arrival + trip cost.
  double release = phase_start;
  for (int tid = 0; tid < n; ++tid) {
    release = std::max(release, arrival[static_cast<std::size_t>(tid)]);
  }
  release += config_.cost.barrier_cycles;
  for (int tid = 0; tid < n; ++tid) {
    ThreadState& ts = threads_[static_cast<std::size_t>(tid)];
    counters_.barrier_wait_cycles += release - arrival[static_cast<std::size_t>(tid)];
    // The thread is parked at the barrier; charge the wait to the core it
    // arrived from (park_thread recorded it as last_pu).
    dom(ts.last_pu).barrier_wait_cycles += release - arrival[static_cast<std::size_t>(tid)];
    ts.time = release;
    result.busy_seconds[static_cast<std::size_t>(tid)] = to_seconds(ts.busy_cycles);
    result.arrival_seconds[static_cast<std::size_t>(tid)] =
        to_seconds(arrival[static_cast<std::size_t>(tid)]);
  }
  global_cycles_ = release;
  result.end_seconds = to_seconds(release);
  if (config_.trace != nullptr) {
    config_.trace->record(config_.trace->external_lane(), perf::TraceKind::Phase, work.tag,
                          result.begin_seconds, result.end_seconds,
                          static_cast<int>(work.tasks.size()));
  }
  cur_phase_ = nullptr;
  return result;
}

void Machine::run_serial(double compute_cycles) {
  require(compute_cycles >= 0.0, "serial section cannot run backwards");
  global_cycles_ += compute_cycles;
}

void Machine::reset_counters() {
  // Clears the machine-global aggregate, every per-instance CacheStats (all
  // L1/L2/L3 domains — the lazily-folded counters() view reads them, so a
  // survivor would resurrect in the next snapshot), and the per-phase
  // per-core attribution matrix.
  counters_ = {};
  for (auto& lvl : levels_) {
    for (auto& c : lvl.instances) c.reset_stats();
  }
  phase_core_.clear();
  cur_phase_ = nullptr;
}

namespace {
CacheStats aggregate(const std::vector<SetAssocCache>& instances) {
  CacheStats s;
  for (const auto& c : instances) s += c.stats();
  return s;
}
}  // namespace

const MachineCounters& Machine::counters() const {
  // Cache-level stats live in the cache objects; fold them in lazily.
  auto* self = const_cast<Machine*>(this);
  self->counters_.l1 = {};
  self->counters_.l2 = {};
  self->counters_.l3 = {};
  for (const auto& lvl : levels_) {
    if (lvl.spec.level == 1) self->counters_.l1 = aggregate(lvl.instances);
    if (lvl.spec.level == 2) self->counters_.l2 = aggregate(lvl.instances);
    if (lvl.spec.level == 3) self->counters_.l3 = aggregate(lvl.instances);
  }
  return counters_;
}

std::vector<int> Machine::counter_phases() const {
  std::vector<int> out;
  out.reserve(phase_core_.size());
  for (const auto& [tag, row] : phase_core_) out.push_back(tag);
  return out;
}

MachineCounters Machine::phase_core_counters(int phase_tag, int core) const {
  require(core >= 0 && core < config_.spec.n_cores(), "core index out of range");
  const auto it = phase_core_.find(phase_tag);
  if (it == phase_core_.end()) return {};
  return it->second[static_cast<std::size_t>(core)];
}

MachineCounters Machine::phase_counters(int phase_tag) const {
  MachineCounters sum;
  const auto it = phase_core_.find(phase_tag);
  if (it == phase_core_.end()) return sum;
  for (const auto& cell : it->second) sum += cell;
  return sum;
}

MachineCounters Machine::core_counters(int core) const {
  require(core >= 0 && core < config_.spec.n_cores(), "core index out of range");
  MachineCounters sum;
  for (const auto& [tag, row] : phase_core_) sum += row[static_cast<std::size_t>(core)];
  return sum;
}

perf::CounterSet to_counter_set(const MachineCounters& m) {
  using perf::Counter;
  perf::CounterSet c;
  c[Counter::kL1Hits] = static_cast<double>(m.l1.hits);
  c[Counter::kL1Misses] = static_cast<double>(m.l1.misses);
  c[Counter::kL1DirtyEvictions] = static_cast<double>(m.l1.dirty_evictions);
  c[Counter::kL2Hits] = static_cast<double>(m.l2.hits);
  c[Counter::kL2Misses] = static_cast<double>(m.l2.misses);
  c[Counter::kL2DirtyEvictions] = static_cast<double>(m.l2.dirty_evictions);
  c[Counter::kL3Hits] = static_cast<double>(m.l3.hits);
  c[Counter::kL3Misses] = static_cast<double>(m.l3.misses);
  c[Counter::kL3DirtyEvictions] = static_cast<double>(m.l3.dirty_evictions);
  // The VTune-style generic pair maps to the last-level view, so sim and
  // native reports render on the same Table II columns.
  c[Counter::kCacheReferences] = static_cast<double>(m.l3.accesses());
  c[Counter::kCacheMisses] = static_cast<double>(m.l3.misses);
  c[Counter::kDramLineFetches] = static_cast<double>(m.dram_line_fetches);
  c[Counter::kDramRemoteFetches] = static_cast<double>(m.dram_remote_fetches);
  c[Counter::kDramWritebacks] = static_cast<double>(m.dram_writebacks);
  c[Counter::kDramQueueCycles] = m.dram_queue_cycles;
  c[Counter::kMigrations] = static_cast<double>(m.migrations);
  c[Counter::kSteals] = static_cast<double>(m.steals);
  c[Counter::kStealOverheadCycles] = m.steal_overhead_cycles;
  c[Counter::kNoiseStallCycles] = m.noise_stall_cycles;
  c[Counter::kQueueWaitCycles] = m.queue_wait_cycles;
  c[Counter::kMonitorWaitCycles] = m.monitor_wait_cycles;
  c[Counter::kBarrierWaitCycles] = m.barrier_wait_cycles;
  return c;
}

perf::PmuReport Machine::pmu_report() const {
  perf::PmuReport r;
  r.provider = "sim";
  r.lane_kind = "core";
  r.n_lanes = config_.spec.n_cores();
  for (const auto& [tag, row] : phase_core_) {
    for (int core = 0; core < r.n_lanes; ++core) {
      r.at(tag, core) = to_counter_set(row[static_cast<std::size_t>(core)]);
    }
  }
  // Ground-truth busy time and task counts come from the event log (which
  // records the executing core per task).  Note the log spans the machine's
  // whole lifetime: it is not windowed by reset_counters().
  if (config_.record_events) {
    const double hz = config_.spec.ghz * 1e9;
    for (int th = 0; th < event_log_.n_threads(); ++th) {
      for (const auto& e : event_log_.events_of(th)) {
        if (e.core < 0 || e.core >= r.n_lanes) continue;
        perf::CounterSet& cell = r.at(e.tag, e.core);
        cell[perf::Counter::kBusyCycles] += (e.end - e.begin) * hz;
        cell[perf::Counter::kTasks] += 1.0;
      }
    }
  }
  return r;
}

}  // namespace mwx::sim
