// Verlet neighbor list with a displacement-triggered rebuild.
//
// Half-list convention per the paper (Section II-B): a pair (i, j) is stored
// on the *lower-indexed* atom, which computes the force once and stores it
// for both — the source of the index-correlated load variation the paper
// analyzes.  The list radius is cutoff + skin; the list is invalidated when
// any atom has moved more than skin/2 in any single dimension since the last
// rebuild ("when any atom moves in any dimension by more than a threshold
// value") — measured as Euclidean displacement, since a diagonal drift closes
// the skin gap just as surely as an axis-aligned one.
//
// Storage is compacted CSR.  The original fixed-capacity design (384 slots
// per atom, modelled on MW's int[n][cap] table) held ~40 live entries per
// atom at the benchmark densities — >10x padding that both wasted footprint
// and broke the phase-4 traversal into strided islands.  A rebuild now runs
// a three-step protocol that concurrent chunks can execute without locks:
//
//   1. count   — each chunk scans its atoms' candidate cells and records the
//                accepted-neighbor count via set_count(i, c); the native
//                count also appends the accepted j's, row after row, to its
//                chunk's stash;
//   2. prefix  — finalize_offsets() (a chunked block scan) turns the counts
//                into row offsets and sizes the entry array;
//   3. fill    — natively, each chunk walks the same atoms in the same order
//                and copies every row from its stash via copy_row(i, src);
//                the traced backend re-scans the cells and appends via
//                add_neighbor(i, j), the address stream the simulator replays.
//
// Per-atom counts depend only on the snapshot of positions and the cell
// contents, never on chunk boundaries, so the resulting offsets — and the
// rows, which both fills write in the cell-scan order the count used — are
// byte-identical for any worker count and either fill.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/page_vec.hpp"
#include "common/require.hpp"
#include "common/vec3.hpp"

namespace mwx::parallel {
class FixedThreadPool;
}  // namespace mwx::parallel

namespace mwx::md {

class NeighborList {
 public:
  NeighborList(int n_atoms, double cutoff, double skin);

  [[nodiscard]] double reach() const { return cutoff_ + skin_; }
  [[nodiscard]] double cutoff() const { return cutoff_; }
  [[nodiscard]] double skin() const { return skin_; }
  [[nodiscard]] int n_atoms() const { return static_cast<int>(counts_.size()); }

  // --- Build (count -> prefix -> fill) ---------------------------------------
  // Snapshots reference positions and zeroes all row counts.  Chunks may then
  // count disjoint atoms concurrently via set_count.
  void begin_rebuild(std::span<const Vec3> positions);
  void set_count(int i, int c) {
    MWX_ASSERT(c >= 0);
    counts_[static_cast<std::size_t>(i)] = c;
  }
  // Barrier between count and fill: prefix-sums the counts into row
  // offsets, sizes the entry array to the exact total, and resets the fill
  // cursors.  total_entries() is finalized here — O(1) to read ever after.
  // A total past the allocation's capacity drops the stale entries and
  // regrows with a quarter of headroom, so a list that creeps upward
  // reallocates O(log) times and never copies dead rows.
  // A two-level block scan: chunks compute local exclusive prefixes and
  // totals, an O(chunks) scan anchors the chunk bases, chunks add their base
  // back (and reset their fill cursors) in a second sweep.  Exact integer
  // arithmetic, so offsets_/total_ do not depend on the pool width or chunk
  // count.  A null pool runs both sweeps inline as one chunk.
  void finalize_offsets(parallel::FixedThreadPool* pool = nullptr, int n_chunks = 1);
  void add_neighbor(int i, int j) {
    auto& cur = cursor_[static_cast<std::size_t>(i)];
    require(cur < counts_[static_cast<std::size_t>(i)],
            "neighbor fill exceeded this atom's declared count");
    entries_[offsets_[static_cast<std::size_t>(i)] + static_cast<std::size_t>(cur)] = j;
    ++cur;
  }
  // Writes row i whole: its count(i) entries, read from src.
  void copy_row(int i, const int* src) {
    const std::size_t n = static_cast<std::size_t>(counts_[static_cast<std::size_t>(i)]);
    if (n > 0) {
      std::memcpy(entries_.data() + offsets_[static_cast<std::size_t>(i)], src, n * sizeof(int));
    }
  }
  void end_rebuild() { ++rebuild_count_; }

  // --- Query ----------------------------------------------------------------
  [[nodiscard]] const int* begin(int i) const {
    return entries_.data() + offsets_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const int* end(int i) const { return begin(i) + count(i); }
  [[nodiscard]] int count(int i) const { return counts_[static_cast<std::size_t>(i)]; }
  // Global slot index of atom i's k-th neighbor entry (for the layout model).
  // CSR rows are dense, so consecutive entries of consecutive atoms are
  // consecutive slots — the linear stream the simulator now replays.
  [[nodiscard]] std::uint64_t entry_index(int i, int k) const {
    return static_cast<std::uint64_t>(offsets_[static_cast<std::size_t>(i)]) +
           static_cast<std::uint64_t>(k);
  }
  [[nodiscard]] std::size_t total_entries() const { return total_; }

  // True when some atom in [begin, end) has drifted more than skin/2 (by
  // Euclidean distance) since the last rebuild — the per-chunk validity
  // check of phase 2.
  [[nodiscard]] bool chunk_exceeds_skin(std::span<const Vec3> positions, int begin,
                                        int end) const;

  [[nodiscard]] long long rebuild_count() const { return rebuild_count_; }
  [[nodiscard]] bool ever_built() const { return rebuild_count_ > 0; }
  [[nodiscard]] const std::vector<Vec3>& reference_positions() const { return ref_pos_; }

 private:
  double cutoff_;
  double skin_;
  std::vector<int> counts_;
  std::vector<int> cursor_;          // per-row fill position (build only)
  std::vector<std::size_t> offsets_;  // n_atoms + 1 row starts
  // Packed entries.  PageVec + resize_uninitialized keeps freshly grown row
  // storage untouched through the serial prefix step, so the parallel fill
  // pass — each worker writing its own rows — is what first-touches (and
  // thereby NUMA-homes) the pages.
  PageVec<int> entries_;              // total_ packed entries, capacity grows geometrically
  std::vector<std::size_t> scan_bases_;  // prefix scan: per-chunk totals/bases
  std::size_t total_ = 0;
  std::vector<Vec3> ref_pos_;
  long long rebuild_count_ = 0;
};

}  // namespace mwx::md
