// Discrete-event multicore machine simulator.
//
// The reproduction's substitute for the paper's physical testbeds (Table II)
// and for VTune's hardware-counter views.  A Machine instantiates, from a
// topo::MachineSpec, a set of cores with private L1/L2 caches, shared-domain
// L3 caches, one bandwidth-limited memory controller per package, and an
// OS-scheduler model with thread migration, affinity masks and background
// noise bursts.  The MD engine hands it one PhaseWork per timestep phase;
// the simulator plays the phase through the thread pool model (static 1/N
// chunks or a contended shared queue), interleaving all threads' memory
// accesses in simulated-time order, and advances a global clock separated by
// barrier synchronization — the exact structure of parallel MW
// (Section II).  Everything observable in the paper's experiments comes out
// of the counters, the event log and the core-residency timeline.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "perf/event_log.hpp"
#include "perf/pmu.hpp"
#include "perf/trace_ring.hpp"
#include "sim/access.hpp"
#include "sim/cache.hpp"
#include "sim/cost_model.hpp"
#include "sim/numa.hpp"
#include "sim/params.hpp"
#include "topo/cpuset.hpp"
#include "topo/machine_spec.hpp"

namespace mwx::sim {

struct MachineCounters {
  CacheStats l1, l2, l3;
  long long dram_line_fetches = 0;
  // Fetches served by a controller on a different package than the
  // requesting core — each paid remote_latency_factor.  A subset of
  // dram_line_fetches.
  long long dram_remote_fetches = 0;
  long long dram_writebacks = 0;
  double dram_queue_cycles = 0.0;     // aggregate queueing delay at controllers
  long long migrations = 0;
  long long steals = 0;               // successful WorkStealing task claims
  double steal_overhead_cycles = 0.0; // probe + CAS + line-transfer cost paid
  double noise_stall_cycles = 0.0;    // pinned threads waiting out noise bursts
  double queue_wait_cycles = 0.0;     // contention on the shared work queue
  double monitor_wait_cycles = 0.0;   // contention on the JaMON global lock
  double barrier_wait_cycles = 0.0;   // sum over threads of (release - arrival)

  [[nodiscard]] double dram_bytes(int line_bytes) const {
    return static_cast<double>(dram_line_fetches + dram_writebacks) * line_bytes;
  }

  MachineCounters& operator+=(const MachineCounters& o) {
    l1 += o.l1;
    l2 += o.l2;
    l3 += o.l3;
    dram_line_fetches += o.dram_line_fetches;
    dram_remote_fetches += o.dram_remote_fetches;
    dram_writebacks += o.dram_writebacks;
    dram_queue_cycles += o.dram_queue_cycles;
    migrations += o.migrations;
    steals += o.steals;
    steal_overhead_cycles += o.steal_overhead_cycles;
    noise_stall_cycles += o.noise_stall_cycles;
    queue_wait_cycles += o.queue_wait_cycles;
    monitor_wait_cycles += o.monitor_wait_cycles;
    barrier_wait_cycles += o.barrier_wait_cycles;
    return *this;
  }
};

// Maps a MachineCounters bundle onto the unified counter vocabulary.  The
// VTune-style generic cache_references/cache_misses pair maps to the
// last-level (L3) view so sim and native reports render on the same
// Table II columns.
[[nodiscard]] perf::CounterSet to_counter_set(const MachineCounters& m);

// One span of a worker thread residing on a PU — rows of Fig. 2.
struct ResidencySegment {
  int thread = 0;
  int pu = 0;
  double begin_seconds = 0.0;
  double end_seconds = 0.0;
};

struct PhaseResult {
  double begin_seconds = 0.0;
  double end_seconds = 0.0;                // barrier release time
  std::vector<double> busy_seconds;        // per-thread time spent in tasks
  std::vector<double> arrival_seconds;     // per-thread barrier arrival
  [[nodiscard]] double duration_seconds() const { return end_seconds - begin_seconds; }
};

struct MachineConfig {
  topo::MachineSpec spec;
  CostParams cost;
  SchedulerParams sched;
  int n_threads = 1;
  // Worker i is restricted to pin_masks[i % size]; empty = all PUs allowed.
  std::vector<topo::CpuSet> pin_masks;
  bool record_events = true;      // per-task records into the event log
  bool record_residency = false;  // core-residency timeline (Fig. 2)
  // VisualVM-style agent: one core permanently busy with tool traffic, and
  // PhaseWork.instr_calls charge instrumentation_call_cycles each.
  bool instrumentation_agent = false;
  // Optional lock-free trace sink (n_threads + 1 lanes): per-task Task
  // events, Steal events and Phase brackets are recorded in *simulated*
  // seconds, so native and simulated traces of the same workload are
  // directly comparable in the chrome://tracing view.
  perf::TraceRing* trace = nullptr;
  // Optional per-address NUMA home directory.  When set, each DRAM fetch and
  // writeback is served by the controller of domain_of(addr) % packages
  // (directory answers of -1 fall back to MemorySpec::home_package), instead
  // of one global home for the whole heap.  Not owned.
  const NumaDirectory* numa = nullptr;
};

class Machine {
 public:
  explicit Machine(MachineConfig config);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Executes one phase through the thread-pool model and the trailing
  // barrier.  Accesses of concurrent threads interleave in simulated time.
  // `instr_calls_per_task` models per-method instrumentation when the
  // machine was configured with an instrumentation agent.
  PhaseResult run_phase(const PhaseWork& work, int instr_calls_per_task = 0);

  // A serial master-thread section (GC pause, display update): advances the
  // global clock; worker threads stay parked.
  void run_serial(double compute_cycles);

  [[nodiscard]] double now_seconds() const { return to_seconds(global_cycles_); }
  [[nodiscard]] double to_seconds(double cycles) const { return pricing_.to_seconds(cycles); }

  [[nodiscard]] int n_threads() const { return config_.n_threads; }
  [[nodiscard]] const MachineConfig& config() const { return config_; }
  // Counter view (cache-level stats are folded in from the cache instances).
  [[nodiscard]] const MachineCounters& counters() const;
  void reset_counters();

  // --- Per-core, per-phase attribution (the VTune per-core view) ------------
  // Every counter mutation inside run_phase is additionally charged to the
  // (phase tag, executing core) domain, so cache misses, DRAM queueing,
  // steals and barrier waits can be attributed to "which core, during which
  // engine phase".  By construction the domains tile the machine-global
  // counters: summing any field over all tags and cores reproduces
  // counters() (exactly for event counts, up to floating-point accumulation
  // order for the cycle-valued fields) — the conservation law.
  // Phase tags seen since the last reset_counters(), ascending.
  [[nodiscard]] std::vector<int> counter_phases() const;
  // The law's one check: to_counter_set of the summed domains against
  // to_counter_set(counters()) under perf::conservation_rule.  Returns the
  // violating counters; empty when the domains tile the totals.
  [[nodiscard]] std::vector<perf::Counter> conservation_violations() const;
  // One domain cell; zeroes when (tag, core) was never touched.
  [[nodiscard]] MachineCounters phase_core_counters(int phase_tag, int core) const;
  [[nodiscard]] MachineCounters phase_counters(int phase_tag) const;  // sum over cores
  [[nodiscard]] MachineCounters core_counters(int core) const;        // sum over phases
  // The full matrix as a provider-"sim" PmuReport (lane = core).  Busy
  // cycles and task counts are folded in from the event log when
  // record_events is on.
  [[nodiscard]] perf::PmuReport pmu_report() const;

  [[nodiscard]] const perf::EventLog& event_log() const { return event_log_; }
  [[nodiscard]] const std::vector<ResidencySegment>& residency() const { return residency_; }

  // Re-restricts a worker thread's affinity between phases.
  void set_affinity(int thread, const topo::CpuSet& mask);

 private:
  struct Level {
    topo::CacheLevelSpec spec;
    std::vector<SetAssocCache> instances;
    // Instances that have installed a line, in first-fill order, and a flag
    // per instance.  A write invalidates its line only in these: an instance
    // that was never filled holds nothing to invalidate.
    std::vector<std::size_t> filled;
    std::vector<bool> is_filled;
  };

  struct ThreadState {
    double time = 0.0;
    int pu = -1;
    int last_pu = -1;
    topo::CpuSet affinity;
    // Phase-local progress:
    int state = 0;  // 0 = needs task, 1 = executing, 2 = done
    const SimTask* task = nullptr;
    std::uint32_t next_access = 0;
    double compute_left = 0.0;
    double compute_per_access = 0.0;
    double busy_cycles = 0.0;
    double task_begin = 0.0;
    double seg_begin = 0.0;
  };

  // Places `t` on a PU at time `now` per the scheduler model; returns the
  // (possibly adjusted) time after any migration cost.
  double place_thread(int tid, double now);
  void park_thread(int tid, double now);
  void note_residency(int tid, double now);

  // Charges one cache-hierarchy access from `pu` at thread-time `t`;
  // returns the stall cycles.
  double charge_access(int pu, const Access& a, double t);

  // Consumes any noise burst that has arrived on `t`'s core; may stall or
  // migrate the thread.  Returns adjusted thread time.
  double consume_noise(int tid, double now);

  [[nodiscard]] double exp_sample(double mean);
  [[nodiscard]] double compute_factor(int pu) const;

  // The (current phase, core) domain cell for an access from `pu`.  Valid
  // only inside run_phase (cur_phase_ is set there).
  [[nodiscard]] MachineCounters& dom(int pu) {
    MWX_ASSERT(cur_phase_ != nullptr && pu >= 0);
    return (*cur_phase_)[static_cast<std::size_t>(config_.spec.pu_to_core(pu))];
  }

  MachineConfig config_;
  MachinePricing pricing_;                // read by charge_access and to_seconds
  std::vector<Level> levels_;             // L1..Ln, the order of pricing_.levels
  std::vector<double> controller_free_;   // per package, cycles
  std::vector<double> noise_next_;        // per core: next burst start, cycles
  std::vector<int> occupancy_;            // running threads per core
  std::vector<ThreadState> threads_;
  double global_cycles_ = 0.0;
  double monitor_lock_free_ = 0.0;        // global JaMON lock
  double noise_rate_cycles_ = 0.0;        // mean cycles between bursts per core
  double noise_len_cycles_ = 0.0;
  int agent_core_ = -1;
  Rng rng_;
  MachineCounters counters_;
  // Per-phase-tag, per-core counter domains (the attribution matrix), plus
  // the hot pointer into the row of the phase currently being simulated.
  std::map<int, std::vector<MachineCounters>> phase_core_;
  std::vector<MachineCounters>* cur_phase_ = nullptr;
  perf::EventLog event_log_;
  std::vector<ResidencySegment> residency_;
};

}  // namespace mwx::sim
