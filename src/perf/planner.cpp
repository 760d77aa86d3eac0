#include "perf/planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <ostream>

namespace mwx::perf {

namespace {

// Class key: (phase tag, on-a-rebuild-step).
using ClassKey = std::pair<int, bool>;

// Tags that only occur on neighbor-rebuild steps; their presence inside a
// step bracket marks the whole step as a rebuild step.  The numbers are
// md::PhaseId values (overlap, bin, nbr-prefix, morton-sort); perf sits
// below md, so they are spelled out here.
bool is_rebuild_tag(int tag) { return tag == 7 || tag == 8 || tag == 9 || tag == 10; }

// Rebuild pipeline phases charged as exactly one task per worker
// (Engine::charge_rebuild_phase), regardless of chunks_per_thread: bin,
// nbr-prefix and morton-sort.
bool is_per_worker_phase(int tag) { return tag == 8 || tag == 9 || tag == 10; }

struct Bracket {
  int tag = 0;
  double begin = 0.0;
  double end = 0.0;
  bool rebuild_step = false;
  double task_seconds = 0.0;             // sum of task durations inside
  double task_count = 0.0;
  double max_task_seconds = 0.0;
  std::map<int, double> owner_seconds;   // per accumulation slot (Task.arg)

  [[nodiscard]] double span_seconds() const {
    double s = 0.0;
    for (const auto& [owner, sec] : owner_seconds) s = std::max(s, sec);
    return s;
  }
};

// Effective per-thread capacity of one cache level under the canonical
// placement (MachineSpec::canonical_pu): instance size times the number of
// distinct instances the first N threads touch, divided by N.
double capacity_per_thread(const topo::MachineSpec& spec, const topo::CacheLevelSpec& level,
                           int n_threads) {
  const int n = std::max(1, n_threads);
  std::vector<bool> seen;
  int instances = 0;
  for (int t = 0; t < n; ++t) {
    const std::size_t inst =
        static_cast<std::size_t>(spec.canonical_pu(t) / level.pus_per_instance);
    if (inst >= seen.size()) seen.resize(inst + 1, false);
    if (!seen[inst]) {
      seen[inst] = true;
      ++instances;
    }
  }
  return static_cast<double>(level.size_bytes) * static_cast<double>(std::max(1, instances)) /
         static_cast<double>(n);
}

// Log-capacity interpolation through the reference machine's measured
// (capacity, miss) points; clamped outside the measured range — the profile
// cannot know what a cache bigger than anything measured would still miss.
double misses_at_capacity(const std::vector<std::pair<double, double>>& curve, double cap) {
  if (curve.empty()) return 0.0;
  if (cap <= curve.front().first) return curve.front().second;
  if (cap >= curve.back().first) return curve.back().second;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    if (cap <= curve[i].first) {
      const auto& [c0, m0] = curve[i - 1];
      const auto& [c1, m1] = curve[i];
      const double f = (std::log(cap) - std::log(c0)) / (std::log(c1) - std::log(c0));
      // Interpolate log-misses so the curve stays positive and geometric.
      const double lm = std::log(std::max(m0, 0.5)) +
                        f * (std::log(std::max(m1, 0.5)) - std::log(std::max(m0, 0.5)));
      const double m = std::exp(lm);
      return m < 1.0 ? std::min(m0, m1) : m;
    }
  }
  return curve.back().second;
}

struct Placement {
  int packages_spanned = 1;
  double remote_fraction = 0.0;  // threads homed on a non-home package
};

Placement canonical_placement(const topo::MachineSpec& spec, int n_threads, bool pinned) {
  Placement p;
  const int n = std::max(1, n_threads);
  if (spec.memory.home_package < 0) {
    // Local/interleaved memory: each package's controller serves its own
    // threads; no remote hops.
    std::vector<bool> seen(static_cast<std::size_t>(spec.packages), false);
    for (int t = 0; t < n; ++t) {
      seen[static_cast<std::size_t>(spec.pu_to_package(spec.canonical_pu(t)))] = true;
    }
    p.packages_spanned = 0;
    for (bool s : seen) p.packages_spanned += s ? 1 : 0;
    return p;
  }
  p.packages_spanned = 1;  // single home controller serves every transfer
  if (pinned) {
    int remote = 0;
    for (int t = 0; t < n; ++t) {
      if (spec.pu_to_package(spec.canonical_pu(t)) != spec.memory.home_package) ++remote;
    }
    p.remote_fraction = static_cast<double>(remote) / static_cast<double>(n);
  } else {
    // OS-scheduled threads wander uniformly over the PUs.
    p.remote_fraction =
        static_cast<double>(spec.packages - 1) / static_cast<double>(spec.packages);
  }
  return p;
}

double counter_of(const CounterSet& c, Counter k) { return c[k]; }

}  // namespace

std::string PlanConfig::label() const {
  std::string s = spec.name;
  s += "/";
  s += sim::assignment_name(assignment);
  s += pinned ? "/pinned/" : "/os/";
  s += std::to_string(n_threads) + "t";
  return s;
}

const PhaseProfile* RunProfile::find(int tag, bool rebuild_step) const {
  for (const auto& p : phases) {
    if (p.tag == tag && p.rebuild_step == rebuild_step) return &p;
  }
  return nullptr;
}

RunProfile Planner::profile_from(const TraceSnapshot& trace, const PmuReport& pmu,
                                 const RunMeta& meta) {
  RunProfile rp;
  rp.meta = meta;
  rp.trace_dropped = trace.dropped;
  const double ghz_cycles = meta.spec.ghz * 1e9;

  // --- 1. Phase and step brackets from the trace ----------------------------
  std::vector<Bracket> brackets;
  struct StepWindow {
    double begin, end;
    bool rebuild = false;
  };
  std::vector<StepWindow> steps;
  for (const auto& m : trace.events) {
    if (m.event.kind == TraceKind::Phase) {
      Bracket b;
      b.tag = m.event.tag;
      b.begin = m.event.begin;
      b.end = m.event.end;
      brackets.push_back(b);
    } else if (m.event.kind == TraceKind::Step) {
      steps.push_back({m.event.begin, m.event.end, false});
    }
  }
  std::sort(brackets.begin(), brackets.end(),
            [](const Bracket& a, const Bracket& b) { return a.begin < b.begin; });
  std::sort(steps.begin(), steps.end(),
            [](const StepWindow& a, const StepWindow& b) { return a.begin < b.begin; });

  // Mark rebuild steps and tag each bracket with its step's class.
  const double eps = 1e-12;
  {
    std::size_t si = 0;
    for (auto& b : brackets) {
      while (si + 1 < steps.size() && steps[si].end < b.begin - eps) ++si;
      if (si < steps.size() && is_rebuild_tag(b.tag)) steps[si].rebuild = true;
    }
    si = 0;
    for (auto& b : brackets) {
      while (si + 1 < steps.size() && steps[si].end < b.begin - eps) ++si;
      b.rebuild_step = si < steps.size() && steps[si].rebuild;
    }
  }

  // --- 2. Tasks into brackets ------------------------------------------------
  // Every phase is its own dispatch and ends at its barrier before the next
  // one starts, so brackets are disjoint on both backends.  One forward
  // merge: skip the brackets that close before the task does; the task
  // belongs to the next one if that bracket contains it.  A task outside
  // every surviving bracket (lapped ring) has no home; skip it rather than
  // misattribute.
  {
    std::size_t bi = 0;
    for (const auto& m : trace.events) {
      if (m.event.kind != TraceKind::Task) continue;
      while (bi < brackets.size() && brackets[bi].end + eps < m.event.end) ++bi;
      if (bi == brackets.size() || m.event.begin < brackets[bi].begin - eps) continue;
      Bracket& home = brackets[bi];
      const double dur = m.event.end - m.event.begin;
      home.task_seconds += dur;
      home.task_count += 1.0;
      home.max_task_seconds = std::max(home.max_task_seconds, dur);
      home.owner_seconds[m.event.arg] += dur;
    }
  }

  // --- 3. Aggregate per class, scale the observed window to the full run ----
  rp.observed_steps = static_cast<long long>(steps.size());
  if (rp.meta.steps <= 0) rp.meta.steps = static_cast<int>(rp.observed_steps);
  const double scale =
      rp.observed_steps > 0
          ? static_cast<double>(rp.meta.steps) / static_cast<double>(rp.observed_steps)
          : 1.0;

  struct ClassAgg {
    long long occ = 0;
    double span_seconds = 0.0;
    long long spanned_occ = 0;  // brackets whose tasks survived the ring
    double task_seconds = 0.0;
    double tasks = 0.0;
    double max_task_seconds = 0.0;
    double bracket_seconds = 0.0;
  };
  std::map<ClassKey, ClassAgg> agg;
  std::map<int, double> tag_bracket_seconds;
  for (const auto& b : brackets) {
    ClassAgg& a = agg[{b.tag, b.rebuild_step}];
    a.occ += 1;
    a.span_seconds += b.span_seconds();
    a.spanned_occ += b.task_count > 0.0 ? 1 : 0;
    a.task_seconds += b.task_seconds;
    a.tasks += b.task_count;
    a.max_task_seconds = std::max(a.max_task_seconds, b.max_task_seconds);
    a.bracket_seconds += b.end - b.begin;
    tag_bracket_seconds[b.tag] += b.end - b.begin;
  }

  // Busy-cycle source by provider: sim counts modelled busy cycles exactly;
  // perf_event counts real cycles; the fallback counts thread CPU time.
  const bool sim_provider = pmu.provider == "sim";
  auto busy_cycles_of = [&](const CounterSet& c) {
    const double busy = counter_of(c, Counter::kBusyCycles);
    if (busy > 0.0) return busy;
    const double cycles = counter_of(c, Counter::kCycles);
    if (cycles > 0.0) return cycles;
    return counter_of(c, Counter::kCpuNanos) * 1e-9 * ghz_cycles;
  };

  for (int tag : pmu.phases()) {
    // Untagged domains hold master-serial and pool-idle work; that time is
    // accounted by the serial residue (step window minus phase brackets)
    // below — counting it here too would double-charge it.
    if (tag <= 0) continue;
    const CounterSet tot = pmu.phase_total(tag);
    const double busy = busy_cycles_of(tot);
    // Split the tag's counters over its step classes by observed work share.
    std::vector<ClassKey> keys;
    for (const auto& [key, a] : agg) {
      if (key.first == tag) keys.push_back(key);
    }
    if (keys.empty()) {
      // The trace lost every bracket of this tag (aggressively small ring):
      // profile it as one class with a flat span guess.
      keys.push_back({tag, is_rebuild_tag(tag)});
    }
    // Split the tag's counters over its step classes by the *bracket wall
    // time* each class occupied — not by task time: brackets live on the
    // external lane, tasks on the (smaller-windowed) worker lanes, so after
    // a ring lap a surviving bracket can have lost all its tasks.  Duration
    // shares stay well-defined for every class the bracket window saw.
    const double tag_seconds = tag_bracket_seconds.count(tag) ? tag_bracket_seconds[tag] : 0.0;
    for (const ClassKey& key : keys) {
      const ClassAgg a = agg.count(key) ? agg[key] : ClassAgg{};
      const double share =
          tag_seconds > 0.0 ? a.bracket_seconds / tag_seconds
                            : 1.0 / static_cast<double>(keys.size());
      PhaseProfile p;
      p.tag = tag;
      p.rebuild_step = key.second;
      p.occurrences = a.occ > 0
                          ? static_cast<long long>(std::llround(a.occ * scale))
                          : std::max<long long>(1, rp.meta.steps);
      p.work_cycles = busy * share;
      // Chains come from the trace.  Worker lanes lap faster than the
      // external (bracket) lane, so only brackets whose tasks survived count
      // toward the per-occurrence span; a class that lost every task falls
      // back to an even spread over the accumulation slots.
      p.span_cycles =
          a.spanned_occ > 0
              ? (a.span_seconds / static_cast<double>(a.spanned_occ)) * ghz_cycles *
                    static_cast<double>(p.occurrences)
              : p.work_cycles / std::max(1, meta.slots);
      p.max_task_cycles = a.max_task_seconds * ghz_cycles;
      p.tasks = a.spanned_occ > 0
                    ? (a.tasks / static_cast<double>(a.spanned_occ)) *
                          static_cast<double>(p.occurrences)
                    : counter_of(tot, Counter::kTasks) * share;
      p.accesses = (counter_of(tot, Counter::kL1Hits) + counter_of(tot, Counter::kL1Misses)) *
                   share;
      p.l1_misses = counter_of(tot, Counter::kL1Misses) * share;
      p.l2_misses = counter_of(tot, Counter::kL2Misses) * share;
      p.l3_misses = counter_of(tot, Counter::kL3Misses) * share;
      p.dram_fetches = counter_of(tot, Counter::kDramLineFetches) * share;
      if (p.dram_fetches == 0.0 && !sim_provider) {
        // perf_event's generic LLC misses stand in for line fetches.
        p.dram_fetches = counter_of(tot, Counter::kCacheMisses) * share;
      }
      p.dram_remote_fetches = counter_of(tot, Counter::kDramRemoteFetches) * share;
      p.dram_writebacks = counter_of(tot, Counter::kDramWritebacks) * share;
      p.dram_queue_cycles = counter_of(tot, Counter::kDramQueueCycles) * share;
      p.queue_wait_cycles = counter_of(tot, Counter::kQueueWaitCycles) * share;
      p.steal_overhead_cycles = counter_of(tot, Counter::kStealOverheadCycles) * share;
      p.noise_stall_cycles = counter_of(tot, Counter::kNoiseStallCycles) * share;

      // Stall decomposition at the reference machine's prices: every access
      // pays the L1 latency, every level-l miss additionally pays the next
      // level's, and a full miss pays the (MLP-discounted) DRAM latency —
      // exactly charge_access's cost chain.  What is left of busy after
      // memory stalls and scheduling overheads is machine-invariant compute.
      const sim::MachinePricing ref = sim::make_pricing(meta.spec, meta.cost);
      double stall = 0.0;
      if (!ref.levels.empty() && p.accesses > 0.0) {
        stall += p.accesses * ref.levels[0].hit_latency_cycles;
        const double level_misses[3] = {p.l1_misses, p.l2_misses, p.l3_misses};
        for (std::size_t l = 1; l < ref.levels.size() && l <= 3; ++l) {
          stall += level_misses[l - 1] * ref.levels[l].hit_latency_cycles;
        }
      }
      const double local = p.dram_fetches - p.dram_remote_fetches;
      stall += local * ref.dram_stall_local_cycles +
               p.dram_remote_fetches * ref.dram_stall_remote_cycles;
      p.stall_cycles = stall;
      const double overheads =
          p.dram_queue_cycles + p.queue_wait_cycles + p.steal_overhead_cycles +
          p.noise_stall_cycles;
      p.compute_cycles = std::max(p.work_cycles - stall - overheads, 0.05 * p.work_cycles);

      rp.total_work_cycles += p.work_cycles;
      rp.critical_path_cycles += p.span_cycles;
      rp.phases.push_back(p);
    }
  }
  std::sort(rp.phases.begin(), rp.phases.end(), [](const PhaseProfile& a, const PhaseProfile& b) {
    return a.tag != b.tag ? a.tag < b.tag : a.rebuild_step < b.rebuild_step;
  });

  // --- 4. Serial residue: run window minus the phase brackets ---------------
  if (!steps.empty()) {
    const double window = steps.back().end - steps.front().begin;
    double in_phase = 0.0;
    for (const auto& b : brackets) {
      if (b.begin >= steps.front().begin - eps && b.end <= steps.back().end + eps) {
        in_phase += b.end - b.begin;
      }
    }
    rp.serial_cycles = std::max(0.0, (window - in_phase) * ghz_cycles * scale);
  }
  rp.critical_path_cycles += rp.serial_cycles;
  return rp;
}

Planner::Planner(RunProfile profile) : profile_(std::move(profile)) {
  // OS-scheduled candidates pay migrations at wake time: a woken thread
  // keeps its PU with stay_probability (stay model), otherwise it lands
  // wherever the scheduler points it.  Pinned candidates never migrate.
  const auto& sched = profile_.meta.sched;
  migrations_per_phase_thread_ =
      (1.0 - sched.stay_probability) *
      (1.0 - 1.0 / std::max(1, profile_.meta.spec.n_pus()));
}

std::vector<PlanConfig> Planner::default_grid(int n_threads) {
  std::vector<PlanConfig> grid;
  for (const auto& spec : topo::table2_machines()) {
    for (sim::Assignment a : {sim::Assignment::Static, sim::Assignment::SharedQueue,
                              sim::Assignment::WorkStealing}) {
      for (bool pinned : {true, false}) {
        PlanConfig c;
        c.spec = spec;
        c.assignment = a;
        c.pinned = pinned;
        c.n_threads = n_threads;
        c.chunks_per_thread = a == sim::Assignment::Static ? 1 : 4;
        grid.push_back(c);
      }
    }
  }
  return grid;
}

double Planner::predict_cycles(const PlanConfig& config, std::vector<PhasePrediction>* out) const {
  const RunMeta& ref_meta = profile_.meta;
  const sim::CostParams& cost = ref_meta.cost;
  const sim::MachinePricing ref = sim::make_pricing(ref_meta.spec, cost);
  const sim::MachinePricing tgt = sim::make_pricing(config.spec, cost);

  const int n = std::max(1, config.n_threads);
  // Compute throughput with SMT sharing: a busy sibling pair delivers
  // 2/smt_slowdown core-equivalents.
  double n_eff;
  if (n <= tgt.cores) {
    n_eff = n;
  } else {
    const int on_smt = std::min(n, tgt.pus) - tgt.cores;
    n_eff = tgt.cores + on_smt * (2.0 / cost.smt_slowdown - 1.0);
  }
  const int slots_ref = std::max(1, ref_meta.slots);
  const int slots_cfg =
      config.assignment == sim::Assignment::Static
          ? n
          : std::min(64, n * std::max(1, config.chunks_per_thread));

  const Placement place = canonical_placement(config.spec, n, config.pinned);
  const Placement ref_place =
      canonical_placement(ref_meta.spec, ref_meta.n_threads, /*pinned=*/false);
  const int controllers = std::max(1, place.packages_spanned);
  const int ref_controllers = std::max(1, ref_place.packages_spanned);

  // Contention pressure on the serving controllers: how many threads feed
  // each one beyond the first.  The measured queue-per-fetch at the
  // reference is ported through the ratio of this pressure and of the
  // per-line occupancy — burstiness (the reason simple M/D/1 underestimates
  // the queueing) carries over from the measurement.
  const double g_tgt =
      std::max(0.0, static_cast<double>(n) / controllers - 1.0);
  const double g_ref =
      std::max(0.0, static_cast<double>(ref_meta.n_threads) / ref_controllers - 1.0);

  const double acq = sim::acquisition_cycles(config.assignment, cost);
  const double noise_fraction =
      config.pinned
          ? ref_meta.sched.noise_bursts_per_second * ref_meta.sched.noise_burst_seconds / 2.0
          : 0.0;
  const double mig_overhead =
      config.pinned ? 0.0 : migrations_per_phase_thread_ * cost.migration_cycles;

  double total_cycles = profile_.serial_cycles;
  for (const PhaseProfile& p : profile_.phases) {
    if (p.occurrences <= 0 || p.work_cycles <= 0.0) continue;
    const double occ = static_cast<double>(p.occurrences);

    // --- Memory remap: miss counts at the target's capacities --------------
    std::vector<std::pair<double, double>> curve;
    {
      const double ref_miss[3] = {p.l1_misses, p.l2_misses, p.l3_misses};
      for (std::size_t l = 0; l < ref.levels.size() && l < 3; ++l) {
        const topo::CacheLevelSpec* ls = ref_meta.spec.find_level(ref.levels[l].level);
        if (ls == nullptr) continue;
        curve.push_back({capacity_per_thread(ref_meta.spec, *ls, ref_meta.n_threads),
                         ref_miss[l]});
      }
      std::sort(curve.begin(), curve.end());
    }
    double tgt_miss[3] = {p.l1_misses, p.l2_misses, p.l3_misses};
    if (!curve.empty() && p.accesses > 0.0) {
      for (std::size_t l = 0; l < tgt.levels.size() && l < 3; ++l) {
        const topo::CacheLevelSpec* ls = config.spec.find_level(tgt.levels[l].level);
        if (ls == nullptr) continue;
        tgt_miss[l] = misses_at_capacity(curve, capacity_per_thread(config.spec, *ls, n));
      }
      // Deeper levels cannot miss more than shallower ones.
      for (int l = 1; l < 3; ++l) tgt_miss[l] = std::min(tgt_miss[l], tgt_miss[l - 1]);
    }
    const std::size_t deepest = tgt.levels.empty() ? 0 : tgt.levels.size() - 1;
    const double fetches =
        p.dram_fetches > 0.0
            ? p.dram_fetches * (p.l3_misses > 0.0 ? tgt_miss[std::min<std::size_t>(deepest, 2)] /
                                                        p.l3_misses
                                                  : 1.0)
            : 0.0;
    const double writebacks =
        p.dram_fetches > 0.0 ? p.dram_writebacks * fetches / p.dram_fetches : 0.0;

    // --- Re-priced latency stall + ported queueing -------------------------
    double stall = 0.0;
    if (!tgt.levels.empty() && p.accesses > 0.0) {
      stall += p.accesses * tgt.levels[0].hit_latency_cycles;
      for (std::size_t l = 1; l < tgt.levels.size() && l <= 3; ++l) {
        stall += tgt_miss[l - 1] * tgt.levels[l].hit_latency_cycles;
      }
    }
    const double remote_mix =
        1.0 + place.remote_fraction * (tgt.remote_latency_factor - 1.0);
    stall += fetches * tgt.dram_stall_local_cycles * remote_mix;

    const double qpf_ref = p.dram_fetches > 0.0 ? p.dram_queue_cycles / p.dram_fetches : 0.0;
    const double queue_cycles =
        g_ref > 0.0 ? fetches * qpf_ref *
                          (tgt.line_occupancy_cycles / ref.line_occupancy_cycles) *
                          (g_tgt / g_ref)
                    : fetches * tgt.line_occupancy_cycles * 0.5 * g_tgt;

    // --- Task population under this config ---------------------------------
    const double k_ref = p.tasks > 0.0 ? p.tasks / occ : slots_ref;
    const double k = is_per_worker_phase(p.tag)
                         ? static_cast<double>(n)
                         : std::max(1.0, k_ref * slots_cfg / slots_ref);
    double steal_ovh = 0.0;
    if (config.assignment == sim::Assignment::WorkStealing) {
      steal_ovh = ref_meta.assignment == sim::Assignment::WorkStealing
                      ? (p.steal_overhead_cycles / occ) * (k / std::max(1.0, k_ref))
                      : 0.15 * k * cost.steal_cycles;
    }

    // --- Per-occurrence bound structure ------------------------------------
    const double w = (p.compute_cycles + stall + queue_cycles) / occ;
    const double w_ref_perocc =
        (p.compute_cycles + p.stall_cycles + p.dram_queue_cycles) / occ;
    const double inflation =
        w_ref_perocc > 0.0 ? w / w_ref_perocc : 1.0;

    const double par = p.compute_cycles / occ / n_eff +
                       (stall + queue_cycles) / occ / static_cast<double>(n) +
                       (k * acq + steal_ovh) / static_cast<double>(n);
    // Critical-path floor.  The engine re-chunks per config with a strided
    // (balanced) decomposition, so the measured slot-chain span does NOT
    // scale with the slot-count ratio — merging strided chunks averages
    // imbalance out (validated: Static measures within a few % of
    // WorkStealing at equal N, while the amplified-chain model predicted
    // 2x).  What survives re-chunking is granularity: no occurrence beats
    // its longest indivisible task, and no K-way split beats work/K.  The
    // measured chain span still applies when the task population shrinks
    // below the reference's (chains can only merge, never split).
    const double span_granularity = std::max(p.max_task_cycles * inflation, w / k);
    const double span_meas = (p.span_cycles / occ) * inflation;
    const double span = k < std::max(1.0, k_ref) ? std::max(span_granularity, span_meas)
                                                 : span_granularity;
    const double dram_floor = (fetches + writebacks) / occ * tgt.line_occupancy_cycles /
                              static_cast<double>(controllers);
    const double dispatch_floor = k * cost.dispatch_cycles_per_task;
    const double serial_queue_floor =
        config.assignment == sim::Assignment::SharedQueue ? k * cost.queue_pop_cycles : 0.0;

    double exec = par;
    const char* bound = "work";
    if (span > exec) {
      exec = span;
      bound = "span";
    }
    if (dram_floor > exec) {
      exec = dram_floor;
      bound = "dram";
    }
    if (dispatch_floor > exec) {
      exec = dispatch_floor;
      bound = "dispatch";
    }
    if (serial_queue_floor > exec) {
      exec = serial_queue_floor;
      bound = "serial-queue";
    }
    exec *= 1.0 + noise_fraction;

    const double per_occ = exec + cost.wake_latency_cycles + cost.barrier_cycles + mig_overhead;
    total_cycles += occ * per_occ;
    if (out != nullptr) {
      out->push_back({p.tag, p.rebuild_step, occ * per_occ / (tgt.ghz * 1e9), bound});
    }
  }
  return total_cycles;
}

Prediction Planner::predict(const PlanConfig& config) const {
  Prediction pred;
  pred.config = config;
  const double cycles = predict_cycles(config, &pred.phases);
  pred.seconds = cycles / (config.spec.ghz * 1e9);
  pred.serial_seconds = profile_.serial_cycles / (config.spec.ghz * 1e9);

  PlanConfig serial = config;
  serial.assignment = sim::Assignment::Static;
  serial.pinned = true;
  serial.n_threads = 1;
  serial.chunks_per_thread = 1;
  const double serial_cycles = predict_cycles(serial, nullptr);
  pred.speedup = cycles > 0.0 ? serial_cycles / cycles : 1.0;
  return pred;
}

std::vector<Prediction> Planner::rank(const std::vector<PlanConfig>& configs) const {
  std::vector<Prediction> out;
  out.reserve(configs.size());
  for (const auto& c : configs) out.push_back(predict(c));
  std::stable_sort(out.begin(), out.end(),
                   [](const Prediction& a, const Prediction& b) { return a.seconds < b.seconds; });
  return out;
}

void write_plan_json(std::ostream& out, const std::string& name, const std::string& git_sha,
                     const RunProfile& profile, const std::vector<Prediction>& ranked,
                     const std::map<int, std::string>& phase_names) {
  const auto old_precision = out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\n"
      << "  \"kind\": \"plan\",\n"
      << "  \"schema_version\": " << kArtifactSchemaVersion << ",\n"
      << "  \"name\": \"" << name << "\",\n"
      << "  \"git_sha\": \"" << git_sha << "\",\n"
      << "  \"provider\": \"planner\",\n";
  if (!phase_names.empty()) {
    out << "  \"phase_names\": {";
    bool first = true;
    for (const auto& [tag, pname] : phase_names) {
      out << (first ? "\n" : ",\n") << "    \"" << tag << "\": \"" << pname << "\"";
      first = false;
    }
    out << "\n  },\n";
  }
  out << "  \"reference\": {\n"
      << "    \"benchmark\": \"" << profile.meta.benchmark << "\",\n"
      << "    \"machine\": \"" << profile.meta.spec.name << "\",\n"
      << "    \"assignment\": \"" << sim::assignment_name(profile.meta.assignment) << "\",\n"
      << "    \"steps\": " << profile.meta.steps << ",\n"
      << "    \"observed_steps\": " << profile.observed_steps << ",\n"
      << "    \"threads\": " << profile.meta.n_threads << ",\n"
      << "    \"slots\": " << profile.meta.slots << ",\n"
      << "    \"measured_seconds\": " << profile.meta.measured_seconds << ",\n"
      << "    \"trace_dropped\": " << profile.trace_dropped << ",\n"
      << "    \"total_work_cycles\": " << profile.total_work_cycles << ",\n"
      << "    \"critical_path_cycles\": " << profile.critical_path_cycles << ",\n"
      << "    \"serial_cycles\": " << profile.serial_cycles << ",\n"
      << "    \"self_parallelism\": " << profile.self_parallelism() << "\n"
      << "  },\n";
  out << "  \"profile\": [";
  bool first = true;
  for (const auto& p : profile.phases) {
    out << (first ? "\n" : ",\n") << "    {\"tag\": " << p.tag
        << ", \"rebuild_step\": " << (p.rebuild_step ? "true" : "false")
        << ", \"occurrences\": " << p.occurrences << ", \"tasks\": " << p.tasks
        << ", \"work_cycles\": " << p.work_cycles << ", \"span_cycles\": " << p.span_cycles
        << ", \"self_parallelism\": " << p.self_parallelism()
        << ", \"compute_cycles\": " << p.compute_cycles
        << ", \"stall_cycles\": " << p.stall_cycles
        << ", \"dram_fetches\": " << p.dram_fetches
        << ", \"dram_queue_cycles\": " << p.dram_queue_cycles << "}";
    first = false;
  }
  out << "\n  ],\n";
  out << "  \"configs\": [";
  first = true;
  int rank = 1;
  for (const auto& pr : ranked) {
    out << (first ? "\n" : ",\n") << "    {\"rank\": " << rank++ << ", \"config\": \""
        << pr.config.label() << "\", \"machine\": \"" << pr.config.spec.name
        << "\", \"assignment\": \"" << sim::assignment_name(pr.config.assignment)
        << "\", \"pinned\": " << (pr.config.pinned ? "true" : "false")
        << ", \"threads\": " << pr.config.n_threads
        << ", \"predicted_seconds\": " << pr.seconds
        << ", \"predicted_speedup\": " << pr.speedup
        << ", \"serial_seconds\": " << pr.serial_seconds
        << ", \"validated\": " << (pr.validated ? "true" : "false");
    if (pr.validated) {
      out << ", \"measured_seconds\": " << pr.measured_seconds
          << ", \"error_pct\": " << pr.error_pct();
    }
    out << "}";
    first = false;
  }
  out << "\n  ],\n";
  int validated = 0;
  for (const auto& pr : ranked) validated += pr.validated ? 1 : 0;
  out << "  \"search\": {\"n_configs\": " << ranked.size() << ", \"validated\": " << validated
      << ", \"tolerance_pct\": " << kPlanTolerancePct << "},\n";
  out << "  \"best\": \"" << (ranked.empty() ? "" : ranked.front().config.label()) << "\"\n";
  out << "}\n";
  out.precision(old_precision);
}

}  // namespace mwx::perf
