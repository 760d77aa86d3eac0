// Linked-cell grid — the O(N) neighbor-finding substrate (Hockney &
// Eastwood), Section II-B: "the linked-cell approach superimposes a
// three-dimensional grid over the simulation space ... sized such that the
// neighbors of any given atom must fall within the grid box containing the
// atom or in one of the grid boxes adjacent to that box."
#pragma once

#include <span>
#include <vector>

#include "common/require.hpp"
#include "common/vec3.hpp"

namespace mwx::parallel {
class FixedThreadPool;
}  // namespace mwx::parallel

namespace mwx::md {

class CellGrid {
 public:
  // `reach` is the interaction radius the grid must cover (cutoff + skin);
  // cells are at least that wide in every dimension.
  CellGrid(const Vec3& lo, const Vec3& hi, double reach);

  // Rebuilds the cell contents from scratch as a deterministic counting
  // sort: per-chunk per-cell count arrays over index-contiguous atom chunks,
  // a block-wise prefix merge over the cells, then a stable in-order
  // scatter.  Within every cell the occupants are chunk 0's atoms (in index
  // order), then chunk 1's, ... — which IS ascending atom index — so the
  // cell table does not depend on the pool width or chunk count.  A null
  // pool runs the passes inline as one chunk.
  void bin(std::span<const Vec3> positions, parallel::FixedThreadPool* pool = nullptr,
           int n_chunks = 1);

  [[nodiscard]] int n_cells() const { return nx_ * ny_ * nz_; }
  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] int nz() const { return nz_; }

  [[nodiscard]] int cell_of(const Vec3& p) const;

  // Occupants of cell c (valid until the next bin()).
  [[nodiscard]] const int* cell_begin(int c) const {
    return occupants_.data() + start_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const int* cell_end(int c) const {
    return occupants_.data() + start_[static_cast<std::size_t>(c) + 1];
  }
  [[nodiscard]] int cell_count(int c) const {
    return start_[static_cast<std::size_t>(c) + 1] - start_[static_cast<std::size_t>(c)];
  }

  // The (up to 27) cell ids adjacent to cell c, including c itself, written
  // into `out`; returns how many.
  int neighbor_cells(int c, int out[27]) const;

  // Total occupant entries (== number of binned atoms).
  [[nodiscard]] std::size_t n_binned() const { return occupants_.size(); }

 private:
  [[nodiscard]] int clamp_axis(double v, double lo, double inv_w, int n) const;

  Vec3 lo_, hi_;
  double inv_wx_, inv_wy_, inv_wz_;
  int nx_, ny_, nz_;
  std::vector<int> start_;      // n_cells + 1
  std::vector<int> occupants_;  // atom ids grouped by cell
  std::vector<int> scratch_;       // per-atom cell id of the current bin pass
  std::vector<int> chunk_counts_;  // per-(chunk, cell) counts, then scatter cursors
  std::vector<int> block_base_;    // per-cell-block scan bases
};

}  // namespace mwx::md
