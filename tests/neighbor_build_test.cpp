// The CSR neighbor build: the native count pass stashes the rows it accepts
// and the fill copies them, while the traced fill re-scans the cells.  Both
// must produce the same rows, entry for entry, and both must equal a serial
// oracle that scans every adjacent cell (tests/rebuild_oracle.hpp) — across
// the three assignment disciplines, fixed atoms and bond exclusions, a
// Morton pass on every rebuild, and the inline rebuild restore_continuation
// runs.  Also pinned here: the cell skip the shared scan applies, the
// stash's overflow growth, and the entry array's geometric growth.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/page_vec.hpp"
#include "md/cell_grid.hpp"
#include "md/engine.hpp"
#include "md/kernels.hpp"
#include "md/neighbor_list.hpp"
#include "parallel/thread_pool.hpp"
#include "rebuild_oracle.hpp"
#include "sim/machine.hpp"
#include "topo/machine_spec.hpp"
#include "workloads/workloads.hpp"

namespace mwx::md {
namespace {

using Rows = std::vector<std::vector<int>>;

Rows rows_of(const NeighborList& nl) {
  Rows rows(static_cast<std::size_t>(nl.n_atoms()));
  for (int i = 0; i < nl.n_atoms(); ++i) {
    rows[static_cast<std::size_t>(i)].assign(nl.begin(i), nl.end(i));
  }
  return rows;
}

// Rows, their offsets and the total, against `want`.
void expect_rows(const NeighborList& nl, const Rows& want, const std::string& what) {
  ASSERT_EQ(static_cast<std::size_t>(nl.n_atoms()), want.size()) << what;
  std::size_t offset = 0;
  for (int i = 0; i < nl.n_atoms(); ++i) {
    const std::vector<int>& row = want[static_cast<std::size_t>(i)];
    ASSERT_EQ(nl.entry_index(i, 0), offset) << what << ": row " << i;
    ASSERT_EQ(std::vector<int>(nl.begin(i), nl.end(i)), row) << what << ": row " << i;
    offset += row.size();
  }
  EXPECT_EQ(nl.total_entries(), offset) << what;
}

parallel::QueueMode queue_mode_for(sim::Assignment assignment) {
  switch (assignment) {
    case sim::Assignment::Static:
      return parallel::QueueMode::PerThread;
    case sim::Assignment::SharedQueue:
      return parallel::QueueMode::Single;
    case sim::Assignment::WorkStealing:
      break;
  }
  return parallel::QueueMode::WorkStealing;
}

// Steps a native engine (stashed rows) and a traced engine (re-scanned
// rows) side by side, one step per call, and compares their lists and
// energies after every step; after each rebuild both must also equal the
// oracle's rows for the list's reference snapshot.
void expect_native_rows_match_traced(MolecularSystem sys, const EngineConfig& cfg, int steps,
                                     long long min_rebuilds) {
  Engine native(sys, cfg);
  Engine traced(std::move(sys), cfg);
  parallel::FixedThreadPool pool(
      {.n_threads = cfg.n_threads, .queue_mode = queue_mode_for(cfg.assignment)});
  sim::MachineConfig mc;
  mc.spec = topo::core_i7_920();
  mc.n_threads = cfg.n_threads;
  sim::Machine machine(mc);
  for (int s = 0; s < steps; ++s) {
    const long long before = native.rebuild_count();
    native.run_native(pool, 1);
    traced.run_simulated(machine, 1);
    const std::string what = "step " + std::to_string(s);
    ASSERT_EQ(native.rebuild_count(), traced.rebuild_count()) << what;
    ASSERT_EQ(native.potential_energy(), traced.potential_energy()) << what;
    ASSERT_EQ(native.kinetic_energy(), traced.kinetic_energy()) << what;
    const Rows want = rows_of(traced.neighbor_list());
    expect_rows(native.neighbor_list(), want, what + " native vs traced");
    if (native.rebuild_count() > before) {
      expect_rows(traced.neighbor_list(),
                  oracle::neighbor_rows(traced.system(), traced.neighbor_list()),
                  what + " traced vs oracle");
    }
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(native.rebuild_count(), min_rebuilds);
}

// Al-1000 with a thin skin, so a short window holds several rebuilds.
void expect_al1000_matches(sim::Assignment assignment, int chunks_per_thread) {
  workloads::BenchmarkSpec spec = workloads::make_al1000();
  EngineConfig cfg = spec.engine;
  cfg.n_threads = 3;
  cfg.chunks_per_thread = chunks_per_thread;
  cfg.assignment = assignment;
  cfg.skin = 0.1;
  expect_native_rows_match_traced(std::move(spec.system), cfg, 8, 3);
}

TEST(NeighborBuild, StaticCyclicRowsMatchRescan) {
  // Six cyclic chunks over three slots: chains of two count (and fill)
  // tasks, each with its own stash.
  expect_al1000_matches(sim::Assignment::Static, 2);
}

TEST(NeighborBuild, SharedQueueRowsMatchRescan) {
  expect_al1000_matches(sim::Assignment::SharedQueue, 3);
}

TEST(NeighborBuild, WorkStealingRowsMatchRescan) {
  expect_al1000_matches(sim::Assignment::WorkStealing, 4);
}

TEST(NeighborBuild, NanocarFixedAtomsAndExclusions) {
  // Platform-platform pairs and bonded pairs are never candidates.
  workloads::BenchmarkSpec spec = workloads::make_nanocar();
  EngineConfig cfg = spec.engine;
  cfg.n_threads = 3;
  cfg.chunks_per_thread = 2;
  cfg.assignment = sim::Assignment::Static;
  cfg.skin = 0.02;
  expect_native_rows_match_traced(std::move(spec.system), cfg, 24, 2);
}

TEST(NeighborBuild, MortonOnEveryRebuild) {
  // Every rebuild permutes the atoms first (on the pool natively, inline
  // traced), so the chunks' atoms and row totals change between rebuilds.
  EngineConfig cfg;
  cfg.n_threads = 3;
  cfg.chunks_per_thread = 3;
  cfg.assignment = sim::Assignment::WorkStealing;
  cfg.skin = 0.3;
  cfg.reorder_interval = 1;
  expect_native_rows_match_traced(workloads::make_droplet(3000, 300.0, 7), cfg, 10, 2);
}

TEST(NeighborBuild, RestoreContinuationRebuildsInline) {
  // A traced engine's list (re-scanned) against the list a resumed engine
  // rebuilds inline from the same reference snapshot (stashed), then one
  // more step on each.
  workloads::BenchmarkSpec spec = workloads::make_al1000();
  EngineConfig cfg = spec.engine;
  cfg.n_threads = 2;
  cfg.chunks_per_thread = 2;
  cfg.skin = 0.1;
  Engine traced(std::move(spec.system), cfg);
  sim::MachineConfig mc;
  mc.spec = topo::core_i7_920();
  mc.n_threads = cfg.n_threads;
  sim::Machine machine(mc);
  for (int s = 0; s < 6; ++s) traced.run_simulated(machine, 1);
  ASSERT_GE(traced.rebuild_count(), 2);

  Engine resumed(traced.system(), cfg);
  resumed.restore_continuation(traced.neighbor_list().reference_positions());
  expect_rows(resumed.neighbor_list(), rows_of(traced.neighbor_list()), "resumed vs traced");

  traced.run_simulated(machine, 1);
  parallel::FixedThreadPool pool({.n_threads = 2});
  resumed.run_native(pool, 1);
  EXPECT_EQ(resumed.potential_energy(), traced.potential_energy());
  EXPECT_EQ(resumed.kinetic_energy(), traced.kinetic_energy());
}

TEST(NeighborBuild, CellSkipDropsOnlyCellsWithoutAHigherAtom) {
  // upper_neighbor_cells keeps neighbor_cells' order and drops exactly the
  // cells that are empty or whose last (largest) occupant is <= i.
  const MolecularSystem sys = workloads::make_droplet(3000, 300.0, 7);
  CellGrid grid(sys.box().lo, sys.box().hi, 8.9);
  grid.bin(sys.positions());
  int dropped_nonempty = 0;
  for (int i = 0; i < sys.n_atoms(); ++i) {
    const int c = grid.cell_of(sys.positions()[static_cast<std::size_t>(i)]);
    int all[27], up[27];
    const int n_all = grid.neighbor_cells(c, all);
    const int n_up = grid.upper_neighbor_cells(c, i, up);
    std::vector<int> want;
    for (int k = 0; k < n_all; ++k) {
      const bool has_higher = grid.cell_count(all[k]) > 0 && grid.cell_end(all[k])[-1] > i;
      if (has_higher) want.push_back(all[k]);
      if (!has_higher && grid.cell_count(all[k]) > 0) ++dropped_nonempty;
    }
    ASSERT_EQ(std::vector<int>(up, up + n_up), want) << "atom " << i;
  }
  // The skip does drop occupied cells — including, for the highest atom of
  // a cell, that atom's own cell.
  EXPECT_GT(dropped_nonempty, sys.n_atoms());
}

TEST(NeighborBuild, StashGrowsOnOverflowWithoutLosingRows) {
  // The count kernel appending into an empty stash (growing on the way)
  // keeps exactly what it keeps in a presized one, and copying those rows
  // out builds the oracle's list.
  const MolecularSystem sys = workloads::make_droplet(2000, 300.0, 3);
  const int n = sys.n_atoms();
  NeighborList nl(n, 8.0, 0.9);
  CellGrid grid(sys.box().lo, sys.box().hi, nl.reach());
  grid.bin(sys.positions());
  nl.begin_rebuild(sys.positions());
  const CostTable costs;
  NullMem mem;
  PageVec<int> grown;
  PageVec<int> presized;
  presized.discard_and_reserve(static_cast<std::size_t>(n) * 256);
  neighbor_count_chunk(sys, grid, nl, costs, 0, n, 1, grown, mem);
  neighbor_count_chunk(sys, grid, nl, costs, 0, n, 1, presized, mem);
  ASSERT_GT(grown.size(), 4096u);  // grew past its first block
  EXPECT_EQ(std::vector<int>(grown), std::vector<int>(presized));

  nl.finalize_offsets();
  std::size_t at = 0;
  for (int i = 0; i < n; ++i) {
    nl.copy_row(i, grown.data() + at);
    at += static_cast<std::size_t>(nl.count(i));
  }
  nl.end_rebuild();
  EXPECT_EQ(at, grown.size());
  expect_rows(nl, oracle::neighbor_rows(sys, nl), "copied rows vs oracle");
}

TEST(NeighborBuild, ListGrowthReallocatesLogarithmically) {
  // Every rebuild that raises the total past the allocation regrows the
  // entry array; with geometric headroom a list creeping up by ~1% per
  // rebuild reallocates O(log) times, and every row stays exact.  Rows are
  // written through the re-scan path (add_neighbor) and the stash path
  // (copy_row) on alternate rebuilds.
  constexpr int kAtoms = 500;
  constexpr int kRebuilds = 200;
  const std::vector<Vec3> pos(kAtoms);
  NeighborList nl(kAtoms, 8.0, 0.9);
  const int* block = nullptr;
  int reallocations = 0;
  int new_highs = 0;
  std::size_t first_total = 0;
  std::size_t high = 0;
  for (int r = 0; r < kRebuilds; ++r) {
    const int base = static_cast<int>(10.0 * std::pow(1.01, r));
    auto entry = [r](int i, int k) { return (i * 7 + k + r) % kAtoms; };
    nl.begin_rebuild(pos);
    for (int i = 0; i < kAtoms; ++i) nl.set_count(i, base + i % 3);
    nl.finalize_offsets();
    for (int i = 0; i < kAtoms; ++i) {
      std::vector<int> row(static_cast<std::size_t>(nl.count(i)));
      for (int k = 0; k < nl.count(i); ++k) row[static_cast<std::size_t>(k)] = entry(i, k);
      if (r % 2 == 0) {
        for (const int j : row) nl.add_neighbor(i, j);
      } else {
        nl.copy_row(i, row.data());
      }
    }
    nl.end_rebuild();
    for (int i = 0; i < kAtoms; ++i) {
      for (int k = 0; k < nl.count(i); ++k) {
        ASSERT_EQ(nl.begin(i)[k], entry(i, k)) << "rebuild " << r << " row " << i;
      }
    }
    if (r == 0) first_total = nl.total_entries();
    if (nl.total_entries() > high) {
      high = nl.total_entries();
      ++new_highs;
    }
    if (nl.begin(0) != block) {
      block = nl.begin(0);
      ++reallocations;
    }
  }
  // The first allocation plus one per 25% of growth, and one to spare.
  const double growth = static_cast<double>(high) / static_cast<double>(first_total);
  const int bound = 2 + static_cast<int>(std::ceil(std::log(growth) / std::log(1.25)));
  EXPECT_GT(new_highs, 4 * bound);  // the list really did creep up often
  EXPECT_LE(reallocations, bound) << new_highs << " new high-water marks";
}

}  // namespace
}  // namespace mwx::md
