#include "md/engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "md/morton.hpp"

namespace mwx::md {

Engine::Engine(MolecularSystem sys, EngineConfig config)
    : sys_(std::move(sys)),
      config_(config),
      n_slots_(compute_slots(config)),
      neighbor_capacity_(compute_neighbor_capacity(sys_, config)),
      heap_(config.heap, std::max(1, sys_.n_atoms()), neighbor_capacity_),
      grid_(sys_.box().lo, sys_.box().hi, config.cutoff + config.skin),
      nlist_(std::max(1, sys_.n_atoms()), config.cutoff, config.skin),
      lj_(sys_, config.cutoff),
      buffers_(n_slots_, std::max(1, sys_.n_atoms())),
      tracker_(n_slots_) {
  require(config_.n_threads > 0, "engine needs at least one worker");
  require(config_.chunks_per_thread > 0, "chunks_per_thread must be positive");
  require(sys_.n_atoms() > 0, "system has no atoms");
  require(config_.dt_fs > 0.0, "timestep must be positive");
  // The temporary Vec3 convenience class of Section V-B, plus the long-lived
  // types so live-byte fractions are meaningful.
  temp_type_ = tracker_.register_type("Vec3 (temporary)", config_.heap.vec3_object_bytes,
                                      /*transient_type=*/true);
  const int atom_type = tracker_.register_type(
      "Atom", config_.heap.atom_object_bytes + 4 * config_.heap.vec3_object_bytes,
      /*transient_type=*/false);
  for (int i = 0; i < sys_.n_atoms(); ++i) tracker_.on_alloc(atom_type, 0);
  require(config_.reorder_interval >= 0, "reorder_interval must be non-negative");
  // Other long-lived structures, so live-heap fractions are meaningful.  The
  // neighbor table is accounted at the modelled Java fixed width; the CSR
  // store the engine actually uses is a fraction of this.
  const int nbr_type = tracker_.register_type(
      "neighbor lists (int[])",
      static_cast<std::size_t>(sys_.n_atoms()) *
          static_cast<std::size_t>(neighbor_capacity_) * 4,
      /*transient_type=*/false);
  tracker_.on_alloc(nbr_type, 0);
  const int priv_type = tracker_.register_type(
      "privatized force arrays",
      static_cast<std::size_t>(n_slots_) *
          static_cast<std::size_t>(sys_.n_atoms()) * 24,
      /*transient_type=*/false);
  tracker_.on_alloc(priv_type, 0);
  stash_.resize(triangular_tasks(Kind::NeighborCount, sys_.n_atoms()).size());
}

int Engine::compute_neighbor_capacity(const MolecularSystem& sys, const EngineConfig& config) {
  // Expected half-list row count: atoms inside the list-radius sphere at the
  // system's mean density, halved because a pair is stored on its lower
  // index.  Doubled for local density fluctuations (surfaces, clusters), then
  // clamped — the floor keeps tiny/sparse systems from degenerate widths, the
  // ceiling bounds the modelled footprint for pathological densities.
  const Vec3 ext = sys.box().extent();
  const double volume = ext.x * ext.y * ext.z;
  const double density = volume > 0.0 ? static_cast<double>(sys.n_atoms()) / volume : 0.0;
  const double reach = config.cutoff + config.skin;
  const double expected = 4.0 / 3.0 * 3.14159265358979323846 * reach * reach * reach *
                          density * 0.5;
  const int cap = static_cast<int>(std::ceil(expected * 2.0));
  return std::clamp(cap, 64, 2048);
}

int Engine::compute_slots(const EngineConfig& config) {
  // Static assignment keeps the paper's exact one-buffer-per-thread design.
  // The dynamic disciplines give every chunk its own accumulation slot so
  // chunks move between workers independently; the heap model reserves 64
  // private force regions, which caps the count.
  if (config.assignment == sim::Assignment::Static) return config.n_threads;
  return std::min(64, config.n_threads * config.chunks_per_thread);
}

void Engine::chunk_range(int n, int n_chunks, std::vector<std::pair<int, int>>& out) {
  out.clear();
  if (n <= 0 || n_chunks <= 0) return;
  for (int c = 0; c < n_chunks; ++c) {
    const int b = static_cast<int>((static_cast<long long>(n) * c) / n_chunks);
    const int e = static_cast<int>((static_cast<long long>(n) * (c + 1)) / n_chunks);
    if (e > b) out.emplace_back(b, e);
  }
}

std::vector<Engine::TaskDesc> Engine::contiguous_tasks(Kind kind, int n) const {
  // Uniform-cost domains: index-contiguous chunks, owners round-robin so
  // every thread gets a slice of every kind (the paper's per-phase 1/N split).
  std::vector<std::pair<int, int>> ranges;
  chunk_range(n, config_.n_threads * config_.chunks_per_thread, ranges);
  std::vector<TaskDesc> tasks;
  tasks.reserve(ranges.size());
  int c = 0;
  for (auto [b, e] : ranges) {
    tasks.push_back({kind, b, e, c % n_slots_, 1, c});
    ++c;
  }
  return tasks;
}

std::vector<Engine::TaskDesc> Engine::triangular_tasks(Kind kind, int n) const {
  // The LJ, Coulomb and neighbor-count domains have index-correlated
  // (triangular) per-item cost because the lower-indexed atom of a pair does
  // the work.  Under the static disciplines a cyclic decomposition gives each
  // chunk the same expected load.  Under work stealing the scheduler
  // rebalances the triangle dynamically, so we use contiguous chunks
  // instead: their scatter footprint is block-local, which is what makes the
  // sparse reduction skip most (slot, block) pairs.  Task c of one kind walks
  // the same items in the same order as task c of another over the same n —
  // the count task that stashes rows and the fill task that copies them.
  if (config_.assignment == sim::Assignment::WorkStealing) return contiguous_tasks(kind, n);
  const int k = std::min(config_.n_threads * config_.chunks_per_thread, n);
  std::vector<TaskDesc> tasks;
  tasks.reserve(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c) tasks.push_back({kind, c, n, c % n_slots_, k, c});
  return tasks;
}

std::vector<Engine::TaskDesc> Engine::forces_aux_tasks() const {
  // Everything in phase 4 except LJ: Coulomb chunks over the charged list
  // and bonded chunks over each bond list.  None of these touch the neighbor
  // list, which is what lets the overlapped schedule run them during the CSR
  // count pass.
  std::vector<TaskDesc> tasks = triangular_tasks(Kind::Coulomb, sys_.n_charged());
  for (const auto& [kind, n] : {std::pair{Kind::RadialBonds, sys_.radial_bonds().size()},
                                std::pair{Kind::AngularBonds, sys_.angular_bonds().size()},
                                std::pair{Kind::TorsionBonds, sys_.torsion_bonds().size()}}) {
    const std::vector<TaskDesc> bonds = contiguous_tasks(kind, static_cast<int>(n));
    tasks.insert(tasks.end(), bonds.begin(), bonds.end());
  }
  return tasks;
}

std::vector<Engine::TaskDesc> Engine::forces_phase_tasks() const {
  // Canonical phase-4 order: aux kinds first, LJ last.  Per accumulation
  // slot this is the exact serial-chain order a rebuild step reproduces
  // (aux in kPhaseOverlap, LJ in kPhaseForces), so rebuild and plain steps
  // accumulate every buffer in the same floating-point order.
  std::vector<TaskDesc> tasks = forces_aux_tasks();
  const std::vector<TaskDesc> lj = triangular_tasks(Kind::FusedLj, sys_.n_atoms());
  tasks.insert(tasks.end(), lj.begin(), lj.end());
  return tasks;
}

template <typename Mem>
void Engine::run_task(const TaskDesc& t, int buffer, Mem& mem) {
  switch (t.kind) {
    case Kind::ReduceCorrect:
    case Kind::ReduceCorrectPredict:
      reduce_chunk_sparse(sys_, config_.costs, buffers_, t.begin, t.end, mem);
      corrector_chunk(sys_, config_.dt_fs, config_.costs, buffers_, buffer, t.begin, t.end,
                      mem);
      if (t.kind == Kind::ReduceCorrect) break;
      // The next step's predictor and check read and write only this
      // chunk's atoms, which the corrector has just finished with.
      [[fallthrough]];
    case Kind::PredictCheck:
      predictor_chunk(sys_, config_.dt_fs, config_.costs, t.begin, t.end, mem);
      if (check_chunk(sys_, nlist_, config_.costs, t.begin, t.end, mem)) {
        rebuild_flag_.store(true, std::memory_order_relaxed);
      }
      break;
    case Kind::NeighborCount:
      neighbor_count_chunk(sys_, grid_, nlist_, config_.costs, t.begin, t.end, t.stride,
                           stash_[static_cast<std::size_t>(t.chunk)].rows, mem);
      break;
    case Kind::FusedLj:
      fused_neighbors_lj_chunk(sys_, grid_, nlist_, lj_, config_.costs, rebuild_now_,
                               stash_[static_cast<std::size_t>(t.chunk)].rows, buffers_, buffer,
                               t.begin, t.end, t.stride, mem);
      break;
    case Kind::Coulomb:
      coulomb_chunk(sys_, config_.costs, packed_charges_, buffers_, buffer, t.begin, t.end,
                    t.stride, mem);
      break;
    case Kind::RadialBonds:
      radial_bond_chunk(sys_, config_.costs, buffers_, buffer, t.begin, t.end, mem);
      break;
    case Kind::AngularBonds:
      angular_bond_chunk(sys_, config_.costs, buffers_, buffer, t.begin, t.end, mem);
      break;
    case Kind::TorsionBonds:
      torsion_bond_chunk(sys_, config_.costs, buffers_, buffer, t.begin, t.end, mem);
      break;
  }
}

void Engine::exec_phase(parallel::FixedThreadPool* pool, sim::Machine* machine, int tag,
                        const std::vector<TaskDesc>& tasks) {
  if (tasks.empty()) return;

  if (machine != nullptr) {
    // Traced backend: execute the physics inline while recording each task's
    // access stream, then let the simulated machine schedule and time it.
    phase_work_.clear();
    phase_work_.tag = tag;
    phase_work_.assignment = config_.assignment;
    TraceMem mem(config_.costs, heap_, phase_work_, config_.temporaries, &tracker_,
                 temp_type_, 0);
    for (const TaskDesc& t : tasks) {
      mem.open_task(t.owner, config_.monitor_updates_per_task);
      run_task(t, t.owner, mem);
      mem.close_task();
    }
    machine->run_phase(phase_work_, config_.instr_calls_per_task);
    return;
  }

  if (pool == nullptr) {
    // Inline single-threaded reference.
    NullMem mem;
    for (const TaskDesc& t : tasks) run_task(t, t.owner, mem);
    return;
  }

  const double phase_trace0 = native_trace_ != nullptr ? native_trace_->now() : 0.0;

  // Native threaded backend: one pool phase whose item s is slot s's chain,
  // the tasks owned by accumulation slot s run serially in task order.  Only
  // that slot's privatized buffers are written, so whichever thread runs the
  // chain — and under WorkStealing, on a pool shared with other engines, or
  // when the caller takes it, that changes run to run — each buffer sees the
  // same floating-point addition order, and every queue discipline and every
  // pool size reproduces the inline result bit for bit.  With a probe
  // attached the caller only waits, so every record lands on the lane of the
  // pool worker that ran the chain.
  const bool probed = native_trace_ != nullptr || native_pmu_ != nullptr ||
                      native_log_ != nullptr || native_monitor_ != nullptr;
  std::atomic<int> n_chains{0};
  pool->run_phase(
      n_slots_,
      [&](int slot) {
        const int worker = std::max(0, parallel::FixedThreadPool::current_worker());
        int chain_length = 0;
        NullMem mem;
        for (const TaskDesc& t : tasks) {
          if (t.owner != slot) continue;
          // Phase bracket: one counter-read pair per chain (a chain runs
          // unbroken on one worker), charged to (worker, phase tag).
          if (chain_length++ == 0 && native_pmu_ != nullptr) native_pmu_->task_begin();
          const double t0 = native_clock_.elapsed_seconds();
          const double trace0 = native_trace_ != nullptr ? native_trace_->now() : 0.0;
          run_task(t, slot, mem);
          const double t1 = native_clock_.elapsed_seconds();
          if (native_trace_ != nullptr) {
            // Same per-task repetition knob as the JaMON path below, so the
            // observer-effect self-audit compares the two layers at equal
            // event rates; an untouched config records one event per task.
            const double trace1 = native_trace_->now();
            for (int m = 0; m < std::max(1, config_.monitor_updates_per_task); ++m) {
              native_trace_->record(worker, perf::TraceKind::Task, tag, trace0, trace1, slot);
            }
          }
          if (native_log_ != nullptr) {
            native_log_->record(worker, tag, t0, t1, parallel::current_cpu());
          }
          if (native_monitor_ != nullptr) {
            for (int m = 0; m < std::max(1, config_.monitor_updates_per_task); ++m) {
              native_monitor_->add("phase." + std::to_string(tag), t1 - t0);
            }
          }
        }
        if (chain_length == 0) return;
        n_chains.fetch_add(1, std::memory_order_relaxed);
        if (native_pmu_ != nullptr) {
          native_pmu_->task_end(worker, tag, static_cast<double>(chain_length));
        }
      },
      /*caller_runs=*/!probed);
  if (native_trace_ != nullptr) {
    // Phase bracket on the master's lane: dispatch to barrier release.
    native_trace_->record(native_trace_->external_lane(), perf::TraceKind::Phase, tag,
                          phase_trace0, native_trace_->now(), n_chains.load());
  }
}

void Engine::charge_rebuild_phase(sim::Machine* machine, int tag, double per_item,
                                  long long n_items, double per_item2,
                                  long long n_items2) {
  if (machine == nullptr) return;
  // One compute-only task per modelled worker, each carrying its contiguous
  // 1/N share of the item count(s) — mirroring the native fan-out, where the
  // engine decomposes the rebuild into n_threads chunks.  Compute-only tasks
  // (no accesses) are legal phase citizens: the machine times them and the
  // per-(phase, core) counter domains still conserve.
  const int nt = config_.n_threads;
  auto share = [nt](long long m, int w) {
    return static_cast<double>(m * (w + 1) / nt - m * w / nt);
  };
  phase_work_.clear();
  phase_work_.tag = tag;
  phase_work_.assignment = config_.assignment;
  phase_work_.tasks.reserve(static_cast<std::size_t>(nt));
  for (int w = 0; w < nt; ++w) {
    sim::SimTask t;
    t.owner = w;
    t.compute_cycles = per_item * share(n_items, w) + per_item2 * share(n_items2, w);
    phase_work_.tasks.push_back(t);
  }
  machine->run_phase(phase_work_, 0);
  // The serial residue every two-level scan keeps: the O(chunks) anchor
  // merge on the master.
  machine->run_serial(config_.costs.rebuild_merge_residue * nt);
}

void Engine::master_rebuild_prologue(parallel::FixedThreadPool* pool,
                                     sim::Machine* machine) {
  // The housekeeping passes fan out over the worker pool in n_threads
  // chunks; each is chunk-count-invariant (see cell_grid/morton/
  // neighbor_list), so inline and traced runs — no pool, one chunk — build
  // the same grid, order and offsets.  The traced backend charges the
  // machine as if the fan-out ran, mirroring how the traced force phases
  // execute inline yet are timed as parallel work.
  const int chunks = config_.n_threads;
  const long long n = sys_.n_atoms();

  // Morton pass: physically permute the atom arrays into Z-order before the
  // grid/list rebuild, so the fresh cells, reference snapshot and CSR rows
  // are all built against the new storage order.  This point in the step is
  // the one place a permutation is safe: the private force buffers are all
  // zero (the previous reduction drained them) and nothing downstream holds
  // raw indices across the rebuild.
  if (config_.reorder_interval > 0 &&
      nlist_.rebuild_count() % config_.reorder_interval == 0) {
    const std::vector<int> order = morton_order(sys_.positions(), sys_.box().lo,
                                                sys_.box().hi, config_.cutoff + config_.skin,
                                                pool, chunks);
    sys_.permute(order, pool, chunks);
    heap_.permute_objects(order);
    if (machine != nullptr) {
      // Key build + radix passes fan out.  The state permutation is charged
      // as the serial lump it was in the paper-era engine; the native gather
      // fans out too, but Fig. 1 and Table III keep their calibration.
      charge_rebuild_phase(machine, kPhaseMortonSort, config_.costs.morton_sort_atom, n);
      machine->run_serial(config_.costs.reorder_atom * sys_.n_atoms());
    }
  }

  // Repopulate the linked cells, snapshot reference positions, and (for the
  // data-packing experiment) request an object reorder in cell-traversal
  // order.
  grid_.bin(sys_.positions(), pool, chunks);
  nlist_.begin_rebuild(sys_.positions());
  if (config_.reorder_on_rebuild) {
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(sys_.n_atoms()));
    for (int c = 0; c < grid_.n_cells(); ++c) {
      for (const int* it = grid_.cell_begin(c); it != grid_.cell_end(c); ++it) {
        order.push_back(*it);
      }
    }
    heap_.reorder(order);
  }
  charge_rebuild_phase(machine, kPhaseBin,
                       config_.costs.bin_count_atom + config_.costs.bin_scatter_atom, n,
                       config_.costs.bin_merge_cell, grid_.n_cells());
}

void Engine::size_row_stash(const std::vector<TaskDesc>& count_tasks) {
  // The master sizes every chunk's stash before the count pass, so workers
  // append into blocks it allocated and grow one only on overflow: a worker
  // thread's first allocation opens a malloc arena of its own.  The first
  // rebuild reserves the modelled Java table's row width per atom; later
  // ones the previous rebuild's row total plus an eighth.  Only the
  // reservation is made here — the appending worker touches the pages.
  for (const TaskDesc& t : count_tasks) {
    PageVec<int>& rows = stash_[static_cast<std::size_t>(t.chunk)].rows;
    const std::size_t atoms =
        static_cast<std::size_t>((t.end - t.begin + t.stride - 1) / t.stride);
    rows.discard_and_reserve(rows.empty() ? atoms * static_cast<std::size_t>(neighbor_capacity_)
                                          : rows.size() + rows.size() / 8);
  }
}

void Engine::pack_charges() {
  if (sys_.n_charged() == 0) return;
  // Serial master work: refresh the charged-atom SoA snapshot the native
  // Coulomb kernel streams.  Bits are copied verbatim, so the kernel
  // subtracts the same values the scalar loop reads through the index list.
  // Runs after the predictor (positions moved) and after any rebuild
  // reorder (indices permuted), before the force dispatch.
  packed_charges_.pack(sys_);
}

void Engine::step(parallel::FixedThreadPool* pool, sim::Machine* machine, bool first,
                  bool last) {
  // Step brackets go where the phase brackets go: the machine's ring on the
  // simulated backend (simulated seconds), the attached ring natively.
  perf::TraceRing* trace = machine != nullptr ? machine->config().trace
                           : pool != nullptr  ? native_trace_
                                              : nullptr;
  auto now = [&] { return machine != nullptr ? machine->now_seconds() : trace->now(); };
  const double step_begin = trace != nullptr ? now() : 0.0;

  // Phases 1+2, fused: predictor then validity check, per chunk.  Only the
  // first step of a run_* call dispatches it; every later step was
  // predicted and checked by the previous step's integrate phase.
  if (first) {
    rebuild_flag_.store(!nlist_.ever_built(), std::memory_order_relaxed);
    exec_phase(pool, machine, kPhasePredictCheck,
               contiguous_tasks(Kind::PredictCheck, sys_.n_atoms()));
  }
  rebuild_now_ = rebuild_flag_.load(std::memory_order_relaxed);

  // Phases 3+4 (fused): optional rebuild + all force computations.  The CSR
  // rebuild inserts a count pass and a prefix scan between the master
  // prologue and the fill-and-compute phase.  The count pass shares one
  // dispatch with the aux force kinds (which never read the neighbor list)
  // and only LJ waits behind the prefix scan; each accumulation slot's
  // serial chain still sees aux-then-LJ, the order of a non-rebuild step.
  if (rebuild_now_) {
    master_rebuild_prologue(pool, machine);
    pack_charges();
    std::vector<TaskDesc> fused = triangular_tasks(Kind::NeighborCount, sys_.n_atoms());
    if (machine == nullptr) size_row_stash(fused);
    const std::vector<TaskDesc> aux = forces_aux_tasks();
    fused.insert(fused.end(), aux.begin(), aux.end());
    exec_phase(pool, machine, kPhaseOverlap, fused);
    // CSR prefix sum: the two-level block scan (exact integer arithmetic,
    // so the offsets do not depend on the chunk count).
    nlist_.finalize_offsets(pool, config_.n_threads);
    charge_rebuild_phase(machine, kPhaseNbrPrefix, config_.costs.nbr_prefix_atom,
                         sys_.n_atoms());
    exec_phase(pool, machine, kPhaseForces, triangular_tasks(Kind::FusedLj, sys_.n_atoms()));
  } else {
    pack_charges();
    exec_phase(pool, machine, kPhaseForces, forces_phase_tasks());
  }
  if (rebuild_now_) nlist_.end_rebuild();
  last_pe_ = buffers_.drain_pe();

  // Phases 5+6, fused: reduction then corrector, per chunk — and, when
  // another step follows, that step's predictor and check.  Its check ORs
  // into a flag nothing else has set yet.  The reduction zeroes every
  // touched entry; the marks are dropped here on the master, not in the
  // tasks: chunk bounds need not fall on kBlockAtoms boundaries, and a task
  // clearing a block it shares would race its neighbour's read of the mark.
  if (last) {
    exec_phase(pool, machine, kPhaseReduceCorrect,
               contiguous_tasks(Kind::ReduceCorrect, sys_.n_atoms()));
  } else {
    rebuild_flag_.store(false, std::memory_order_relaxed);
    exec_phase(pool, machine, kPhaseReduceCorrectPredict,
               contiguous_tasks(Kind::ReduceCorrectPredict, sys_.n_atoms()));
  }
  buffers_.clear_touched();
  last_ke_ = buffers_.drain_ke();

  // Garbage collections triggered by this step's temporary churn appear as
  // serial stop-the-world pauses on the simulated machine.
  if (machine != nullptr) {
    const long long gcs = heap_.take_new_gcs();
    if (gcs > 0) {
      machine->run_serial(static_cast<double>(gcs) * config_.heap.gc_pause_seconds *
                          machine->config().spec.ghz * 1e9);
      tracker_.collect_garbage();
    }
  }
  if (trace != nullptr) {
    trace->record(trace->external_lane(), perf::TraceKind::Step,
                  static_cast<int>(steps_done_), step_begin, now());
  }
  ++steps_done_;
}

void Engine::run_steps(parallel::FixedThreadPool* pool, sim::Machine* machine, int n_steps) {
  for (int s = 0; s < n_steps; ++s) step(pool, machine, s == 0, s == n_steps - 1);
}

void Engine::run_native(parallel::FixedThreadPool& pool, int n_steps) {
  // Any pool size works (the decomposition and the energy bits are fixed by
  // config.n_threads, not by the executor) — but per-engine instrumentation
  // records into lane == executing *pool* worker, so attached rings,
  // accumulators and logs must cover the pool actually used.  These are the
  // engine's only lane checks: config.n_threads says nothing about which
  // lanes get written.
  require(native_trace_ == nullptr || native_trace_->n_lanes() >= pool.n_threads() + 1,
          "trace ring needs a lane per pool worker plus one external lane");
  require(native_pmu_ == nullptr || native_pmu_->n_workers() >= pool.n_threads(),
          "PMU accumulator needs a lane per pool worker");
  require(native_log_ == nullptr || native_log_->n_threads() >= pool.n_threads(),
          "event log needs a lane per pool worker");
  run_steps(&pool, nullptr, n_steps);
}

void Engine::run_inline(int n_steps) { run_steps(nullptr, nullptr, n_steps); }

void Engine::run_simulated(sim::Machine& machine, int n_steps) {
  require(machine.n_threads() == config_.n_threads,
          "machine worker count must match engine's configured worker count");
  run_steps(nullptr, &machine, n_steps);
}

void Engine::compute_forces_only() {
  rebuild_now_ = true;
  master_rebuild_prologue(nullptr, nullptr);
  pack_charges();
  NullMem mem;
  const std::vector<TaskDesc> count = triangular_tasks(Kind::NeighborCount, sys_.n_atoms());
  size_row_stash(count);
  for (const TaskDesc& t : count) run_task(t, t.owner, mem);
  nlist_.finalize_offsets();
  for (const TaskDesc& t : forces_phase_tasks()) run_task(t, t.owner, mem);
  nlist_.end_rebuild();
  // Each atom's reduced force depends only on its block's touched slots,
  // never on the chunking, so one range matches the stepped reduction.
  reduce_chunk_sparse(sys_, config_.costs, buffers_, 0, sys_.n_atoms(), mem);
  buffers_.clear_touched();
  last_pe_ = buffers_.drain_pe();
}

void Engine::restore_continuation(std::span<const Vec3> ref_positions) {
  require(static_cast<int>(ref_positions.size()) == sys_.n_atoms(),
          "restore_continuation needs one reference position per atom");
  require(config_.reorder_interval == 0,
          "restore_continuation requires reorder_interval == 0");
  require(!nlist_.ever_built(), "restore_continuation must run before any step");

  // Snapshot the checkpointed per-atom state, rebuild the neighbor list at
  // the reference positions (compute_forces_only clobbers accelerations and
  // last_pe_ as a side effect), then put the checkpointed state back.
  const std::size_t n = static_cast<std::size_t>(sys_.n_atoms());
  std::vector<Vec3> pos(n), acc(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = sys_.positions()[i];
    acc[i] = sys_.accelerations()[i];
  }
  const double pe = last_pe_;
  const double ke = last_ke_;

  for (std::size_t i = 0; i < n; ++i) sys_.positions()[i] = ref_positions[i];
  compute_forces_only();

  for (std::size_t i = 0; i < n; ++i) {
    sys_.positions()[i] = pos[i];
    sys_.accelerations()[i] = acc[i];
  }
  last_pe_ = pe;
  last_ke_ = ke;
}

}  // namespace mwx::md
