// Determinism of the chunked rebuild passes at 100k atoms: cell binning,
// the CSR prefix scan, the Morton order and the scene writer, each fanned
// out on a 4-worker pool at several chunk counts, must reproduce the inline
// (null-pool) result byte for byte.  RebuildParallelTest proves the same
// against the serial oracles at a few thousand atoms; this suite is the
// size where chunk boundaries fall deep inside dense cells.
//
// Labelled `scale` (ctest -L scale).  The suite name keeps it out of the
// tsan and asan preset filters, which match RebuildParallel.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "md/cell_grid.hpp"
#include "md/morton.hpp"
#include "md/neighbor_list.hpp"
#include "md/scene_io.hpp"
#include "parallel/thread_pool.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace mwx;

constexpr int kAtoms = 100000;
constexpr int kWorkers = 4;
// 1 and 2 chunks, one per worker, and more chunks than workers.
constexpr int kChunkCounts[] = {1, 2, kWorkers, 3 * kWorkers};
constexpr double kReach = 8.9;  // engine default cutoff + skin

void expect_same_grid(const md::CellGrid& ref, const md::CellGrid& got, int chunks) {
  ASSERT_EQ(got.n_cells(), ref.n_cells());
  ASSERT_EQ(got.n_binned(), ref.n_binned()) << chunks << " chunks";
  for (int c = 0; c < ref.n_cells(); ++c) {
    ASSERT_TRUE(std::equal(ref.cell_begin(c), ref.cell_end(c), got.cell_begin(c),
                           got.cell_end(c)))
        << "cell " << c << " at " << chunks << " chunks";
  }
}

// Irregular row counts with zero runs; the scan does not care where counts
// come from, so this skips the count pass's cell sweep.
void set_counts(md::NeighborList& nl) {
  for (int i = 0; i < nl.n_atoms(); ++i) {
    nl.set_count(i, i % 5 == 0 ? 0 : (i * 7 + 3) % 61);
  }
}

void expect_passes_match_inline(const md::MolecularSystem& sys) {
  const int n = sys.n_atoms();
  parallel::FixedThreadPool pool({.n_threads = kWorkers});
  const Vec3 lo = sys.box().lo, hi = sys.box().hi;

  md::CellGrid ref_grid(lo, hi, kReach);
  ref_grid.bin(sys.positions());
  md::CellGrid grid(lo, hi, kReach);
  for (int chunks : kChunkCounts) {
    grid.bin(sys.positions(), &pool, chunks);
    expect_same_grid(ref_grid, grid, chunks);
  }

  md::NeighborList ref_nl(n, 8.0, 0.9);
  ref_nl.begin_rebuild(sys.positions());
  set_counts(ref_nl);
  ref_nl.finalize_offsets();
  md::NeighborList nl(n, 8.0, 0.9);
  for (int chunks : kChunkCounts) {
    nl.begin_rebuild(sys.positions());
    set_counts(nl);
    nl.finalize_offsets(&pool, chunks);
    ASSERT_EQ(nl.total_entries(), ref_nl.total_entries()) << chunks << " chunks";
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(nl.entry_index(i, 0), ref_nl.entry_index(i, 0))
          << "row " << i << " at " << chunks << " chunks";
    }
  }

  const std::vector<int> ref_order = md::morton_order(sys.positions(), lo, hi, kReach);
  for (int chunks : kChunkCounts) {
    EXPECT_EQ(md::morton_order(sys.positions(), lo, hi, kReach, &pool, chunks), ref_order)
        << chunks << " chunks";
  }

  const std::string ref_text = md::format_scene(sys);
  for (int chunks : kChunkCounts) {
    EXPECT_TRUE(md::format_scene(sys, &pool, chunks) == ref_text) << chunks << " chunks";
  }
}

TEST(RebuildScale, BulkCrystalPassesMatchInline) {
  expect_passes_match_inline(workloads::make_bulk_crystal(kAtoms, 120.0, 42));
}

TEST(RebuildScale, DropletPassesMatchInline) {
  // Dense core, sparse vapor: the stress case for the per-chunk histograms.
  expect_passes_match_inline(workloads::make_droplet(kAtoms, 110.0, 99));
}

}  // namespace
