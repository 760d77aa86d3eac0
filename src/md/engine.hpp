// SimulationEngine — the parallel Molecular Workbench timestep driver.
//
// Implements the work of Section II-A's six-phase step:
//   1. predictor for each atom,
//   2. neighbor-list validity check,
//   3. (if invalid) linked-cell repopulation + neighbor build — FUSED with
//   4. force computation (LJ over neighbor lists, Coulomb over all charged
//      pairs, bonded terms in bond-list order),
//   5. reduction across the privatized per-worker force arrays,
//   6. corrector.
// Within a phase per-atom work is independent; phases are separated by
// barrier semantics.  Phases 1+2 and 5+6 split the atoms the same way and
// touch only their own atoms, so each pair runs as one fused phase, and a
// step with another step to come runs the next step's 1+2 inside its 5+6
// task: a steady-state step is two barriers, forces and integrate (see
// DESIGN.md, "Step schedule").  Work is split into 1/N contiguous chunks
// (optionally finer) and dispatched through either execution backend:
//
//   * run_native(pool, steps)   — real threads (mwx::parallel), pure physics;
//   * run_simulated(machine, …) — the same physics executed once per step
//     while tracing the heap-layout-dependent access stream, which the
//     machine simulator then schedules and times on a modelled multicore.
//
// Physics is identical across backends and layouts by construction: the
// kernels are shared templates and the layout only affects modelled
// addresses.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "md/cell_grid.hpp"
#include "md/cost_table.hpp"
#include "md/force_buffers.hpp"
#include "md/kernels.hpp"
#include "md/layout.hpp"
#include "md/lj_table.hpp"
#include "md/mem_model.hpp"
#include "md/neighbor_list.hpp"
#include "md/system.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/alloc_tracker.hpp"
#include "perf/event_log.hpp"
#include "perf/monitor.hpp"
#include "perf/native_pmu.hpp"
#include "perf/scoped_timer.hpp"
#include "perf/trace_ring.hpp"
#include "sim/machine.hpp"

namespace mwx::md {

struct EngineConfig {
  int n_threads = 1;
  // Chunks per thread per domain; 1 reproduces the paper's "fraction 1/N"
  // static split, larger values enable dynamic balancing via the shared
  // queue.
  int chunks_per_thread = 1;
  sim::Assignment assignment = sim::Assignment::Static;

  double dt_fs = 2.0;
  double cutoff = 8.0;  // Å
  double skin = 0.9;    // Å
  HeapConfig heap{};  // layout model for the simulated backend
  TemporariesMode temporaries = TemporariesMode::JavaStyle;
  CostTable costs{};

  // Observer-effect experiment knobs (Section IV-A).
  int monitor_updates_per_task = 0;  // JaMON-style synchronized updates
  int instr_calls_per_task = 0;      // VisualVM-style instrumented calls

  // Data-packing experiment (Section V-A): on every neighbor rebuild,
  // request that atom objects be re-laid in cell-traversal order.  Whether
  // anything actually moves depends on heap.layout.  This only nudges the
  // *modelled* addresses — the paper's (failed) Java-side attempt.
  bool reorder_on_rebuild = false;

  // Morton reordering pass (the optimization Java could not express): every
  // reorder_interval-th neighbor rebuild, physically permute the system's
  // SoA arrays into Z-order and re-lay the modelled heap to match, so both
  // the native wall clock and the simulated address stream see the packed
  // layout.  0 disables the pass (the seed-identical default).
  int reorder_interval = 0;
};

// Phase identifiers used as event-log tags.
enum PhaseId : int {
  // 1, 2, 5 and 6 are retired: the predictor, check, reduction and corrector
  // run inside the fused phases 11-13, and nothing records these tags any
  // more.  Their names stay because bench/e2e still reports md.predictor_ms,
  // md.check_ms, md.reduce_ms and md.corrector_ms from them (now 0).
  // 3 is retired too (the unoverlapped CSR count pass); artifacts key on the
  // numbers, so the surviving tags keep theirs.
  kPhasePredictor = 1,
  kPhaseCheck = 2,
  kPhaseForces = 4,      // fused 3+4
  kPhaseReduce = 5,
  kPhaseCorrector = 6,
  kPhaseOverlap = 7,     // CSR count pass fused with non-LJ forces
  kPhaseBin = 8,         // chunked cell binning
  kPhaseNbrPrefix = 9,   // chunked CSR block scan
  kPhaseMortonSort = 10, // chunked Morton key build + radix sort
  kPhasePredictCheck = 11,          // 1+2, opening a run_* call
  kPhaseReduceCorrect = 12,         // 5+6, closing a run_* call
  kPhaseReduceCorrectPredict = 13,  // 5+6, then the next step's 1+2
};

// The name table in cost_table.hpp is indexed by PhaseId; a new phase must
// extend both in the same change.
static_assert(kPhaseReduceCorrectPredict == kNumPhaseTags - 1,
              "kPhaseTagNames (cost_table.hpp) out of sync with PhaseId");

class Engine {
 public:
  Engine(MolecularSystem sys, EngineConfig config);

  // --- Execution -------------------------------------------------------------
  // Native threads.  The pool may be any size and may be shared with other
  // engines running concurrently: each phase is one pool.run_phase
  // fork-join on its own slot (never pool-global), and the energy bits
  // depend only on config.n_threads (which fixes the task decomposition and
  // the accumulation-slot serial chains), never on which — or how many —
  // threads execute them, this caller included.  config.n_threads ==
  // pool.n_threads() reproduces the paper's dedicated-pool setup exactly.
  void run_native(parallel::FixedThreadPool& pool, int n_steps);
  // Single-threaded in-process execution (reference / tests).
  void run_inline(int n_steps);
  // Traced execution timed by the machine simulator.  The machine must have
  // config.n_threads worker threads.
  void run_simulated(sim::Machine& machine, int n_steps);

  // Computes forces/energies at the current positions without integrating
  // (rebuilds the neighbor list unconditionally).  Used by tests/examples.
  void compute_forces_only();

  // Resumes a checkpoint bit-exactly.  Call once, on a freshly constructed
  // engine whose system carries checkpointed positions/velocities/
  // accelerations (an "mws 2" scene), with `ref_positions` the checkpointed
  // neighbor list's reference snapshot in internal index order.  The engine
  // rebuilds its cell grid and CSR neighbor list *from the reference
  // snapshot* — the list is a pure function of those positions, so its
  // contents and row order (hence force-accumulation order) match the
  // checkpointed engine's exactly; rebuilding from the current positions
  // instead would reorder the accumulation and diverge the trajectory —
  // then restores the checkpointed per-atom state, leaving the next step's
  // validity check measuring drift against the original reference points.
  // Requires reorder_interval == 0 (a Morton pass would permute state on a
  // rebuild-count schedule the resumed engine cannot replay).
  void restore_continuation(std::span<const Vec3> ref_positions);

  // --- State & observables -----------------------------------------------------
  [[nodiscard]] const MolecularSystem& system() const { return sys_; }
  [[nodiscard]] MolecularSystem& system() { return sys_; }
  [[nodiscard]] const EngineConfig& config() const { return config_; }
  [[nodiscard]] double potential_energy() const { return last_pe_; }
  [[nodiscard]] double kinetic_energy() const { return last_ke_; }
  [[nodiscard]] double total_energy() const { return last_pe_ + last_ke_; }
  [[nodiscard]] long long steps_done() const { return steps_done_; }
  // Accumulation slots (task chains): n_threads under Static assignment,
  // n_threads * chunks_per_thread (capped at the heap model's 64 private
  // force regions) under the dynamic disciplines.  Each slot owns a
  // privatized force buffer, and the tasks that share a slot execute as one
  // serial chain — which is what keeps every backend/queue-mode combination
  // bit-identical: per-buffer floating-point accumulation order never
  // depends on which worker ran the chain.
  [[nodiscard]] int n_slots() const { return n_slots_; }
  // Width of the modelled Java int[n][cap] neighbor table (allocation-tracker
  // and heap-region accounting only — the engine itself stores neighbors in a
  // compacted CSR list sized to the actual pair count), derived from the
  // system's density: twice the expected half-list row count within the
  // list radius, clamped to [64, 2048].
  [[nodiscard]] int neighbor_capacity() const { return neighbor_capacity_; }
  [[nodiscard]] long long rebuild_count() const { return nlist_.rebuild_count(); }
  [[nodiscard]] const NeighborList& neighbor_list() const { return nlist_; }
  [[nodiscard]] HeapModel& heap() { return heap_; }
  [[nodiscard]] perf::AllocationTracker& tracker() { return tracker_; }
  [[nodiscard]] int temp_vec3_type() const { return temp_type_; }

  // Optional native-mode instrumentation.
  void attach_monitor(perf::JamonMonitor* monitor) { native_monitor_ = monitor; }
  void attach_event_log(perf::EventLog* log) { native_log_ = log; }
  // The engine is the one layer that brackets tasks: the pool only
  // schedules and counts completion.  Lane counts are checked in
  // run_native(), against the pool actually used — only its workers (and
  // the external lane) are ever written, whatever config.n_threads says.
  //
  // Lock-free trace layer (the corrected Section IV-A design): workers
  // record Task events into lane == worker index, the master records Phase
  // and Step brackets into the external lane.  The ring needs one lane per
  // pool worker plus one external lane.  Per-engine, so N engines sharing a
  // pool each carry their own ring.  When monitor_updates_per_task > 0 the
  // engine emits that many records per task — the same call-tree depth knob
  // the JaMON path uses — so the self-audit bench can compare the two
  // layers at identical event rates.
  void attach_trace(perf::TraceRing* trace) { native_trace_ = trace; }
  // Native hardware-counter provider: each task chain is bracketed with
  // per-thread counter reads and the delta charged to (worker, phase tag) —
  // the native twin of the simulator's per-core per-phase attribution.
  // Counter reads happen strictly outside run_task(), so attaching a PMU
  // cannot perturb the physics (energies stay bit-identical).  Needs one
  // lane per pool worker.
  void attach_pmu(perf::PmuAccumulator* pmu) { native_pmu_ = pmu; }

 private:
  // PredictCheck, ReduceCorrect and ReduceCorrectPredict each run their
  // per-atom kernels in that order over one chunk.
  enum class Kind { PredictCheck, NeighborCount, FusedLj, Coulomb, RadialBonds,
                    AngularBonds, TorsionBonds, ReduceCorrect, ReduceCorrectPredict };
  struct TaskDesc {
    Kind kind;
    int begin;
    int end;
    // Accumulation slot: which privatized buffer this task writes, and which
    // serial chain it belongs to in the native backend.
    int owner;
    // Iteration stride.  Uniform-cost domains use contiguous chunks
    // (stride 1); the triangular LJ/Coulomb domains use a cyclic (strided)
    // decomposition so every chunk carries the same expected work — the
    // balance MW's 1/N split needs to reach the paper's salt speedup.
    int stride = 1;
    // Position among its kind's tasks.  A NeighborCount task appends its
    // rows to stash_[chunk]; the FusedLj task with the same chunk walks the
    // same atoms in the same order and copies them out.
    int chunk = 0;
  };

  // Chunks of [0, n) for one kind: index-contiguous (uniform-cost domains),
  // or — triangular_tasks — cyclic under the static disciplines for the
  // pair domains (LJ, Coulomb, neighbor count) and contiguous under work
  // stealing.
  [[nodiscard]] std::vector<TaskDesc> contiguous_tasks(Kind kind, int n) const;
  [[nodiscard]] std::vector<TaskDesc> triangular_tasks(Kind kind, int n) const;
  // The force phase is split in two so a rebuild step can run the aux kinds
  // (Coulomb + bonds) alongside the neighbor count while only the LJ fill
  // waits on the prefix scan.  forces_phase_tasks() is the concatenation
  // aux-then-LJ — the canonical per-slot accumulation order both step kinds
  // reproduce.
  [[nodiscard]] std::vector<TaskDesc> forces_aux_tasks() const;
  [[nodiscard]] std::vector<TaskDesc> forces_phase_tasks() const;
  static void chunk_range(int n, int n_chunks, std::vector<std::pair<int, int>>& out);
  [[nodiscard]] static int compute_slots(const EngineConfig& config);
  [[nodiscard]] static int compute_neighbor_capacity(const MolecularSystem& sys,
                                                     const EngineConfig& config);

  template <typename Mem>
  void run_task(const TaskDesc& t, int buffer, Mem& mem);

  // Backend-generic single step; `pool` may be null (inline) and `machine`
  // may be null (native/inline).  `first` opens a run_* call with the
  // predict-check phase; a step that is not `last` ends by predicting and
  // checking the next one, which then starts at its forces.
  void step(parallel::FixedThreadPool* pool, sim::Machine* machine, bool first, bool last);
  void run_steps(parallel::FixedThreadPool* pool, sim::Machine* machine, int n_steps);
  void exec_phase(parallel::FixedThreadPool* pool, sim::Machine* machine, int tag,
                  const std::vector<TaskDesc>& tasks);
  void master_rebuild_prologue(parallel::FixedThreadPool* pool, sim::Machine* machine);
  // Charges one rebuild phase to the simulator as parallel work: one
  // compute-only task per modelled worker carrying its static 1/N share of
  // per_item * n_items (+ an optional second term), followed by the serial
  // block-scan residue.  Counter conservation holds per (phase, core) like
  // every traced phase.
  void charge_rebuild_phase(sim::Machine* machine, int tag, double per_item,
                            long long n_items, double per_item2 = 0.0,
                            long long n_items2 = 0);
  // Reserves every count chunk's stash on the master (native backends).
  void size_row_stash(const std::vector<TaskDesc>& count_tasks);
  void pack_charges();

  MolecularSystem sys_;
  EngineConfig config_;
  int n_slots_;
  int neighbor_capacity_;  // resolved width; initialized before heap_
  HeapModel heap_;
  CellGrid grid_;
  NeighborList nlist_;
  // One count chunk's accepted rows (native backends; the traced fill
  // re-scans).  Padded to a cache line so workers appending to neighbouring
  // chunks never write the same line.
  struct alignas(64) RowStash {
    PageVec<int> rows;
  };
  std::vector<RowStash> stash_;
  LjTable lj_;
  ForceBuffers buffers_;
  PackedCharges packed_charges_;  // charged-atom SoA for the native Coulomb kernel
  perf::AllocationTracker tracker_;
  int temp_type_ = -1;
  sim::PhaseWork phase_work_;
  std::atomic<bool> rebuild_flag_{false};
  bool rebuild_now_ = false;
  double last_pe_ = 0.0;
  double last_ke_ = 0.0;
  long long steps_done_ = 0;
  perf::JamonMonitor* native_monitor_ = nullptr;
  perf::EventLog* native_log_ = nullptr;
  perf::TraceRing* native_trace_ = nullptr;
  perf::PmuAccumulator* native_pmu_ = nullptr;
  perf::StopWatch native_clock_;
};

}  // namespace mwx::md
