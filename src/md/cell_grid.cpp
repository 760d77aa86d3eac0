#include "md/cell_grid.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/chunked.hpp"

namespace mwx::md {

CellGrid::CellGrid(const Vec3& lo, const Vec3& hi, double reach) : lo_(lo), hi_(hi) {
  require(reach > 0.0, "cell reach must be positive");
  const Vec3 ext = hi - lo;
  require(ext.x > 0 && ext.y > 0 && ext.z > 0, "degenerate box");
  // Axis counts are validated in floating point BEFORE the int casts: a huge
  // box-to-reach ratio must fail the contract, not overflow the cast (UB) or
  // the nx*ny*nz product used for cell indexing.
  auto axis = [&](double extent) {
    const double cells = std::max(1.0, std::floor(extent / reach));
    require(cells <= 2097152.0, "cell grid axis count overflows int indexing");
    return static_cast<int>(cells);
  };
  nx_ = axis(ext.x);
  ny_ = axis(ext.y);
  nz_ = axis(ext.z);
  const long long cells =
      static_cast<long long>(nx_) * static_cast<long long>(ny_) * static_cast<long long>(nz_);
  require(cells < (1ll << 31),
          "cell grid cell count overflows int indexing (shrink the box or grow the reach)");
  inv_wx_ = static_cast<double>(nx_) / ext.x;
  inv_wy_ = static_cast<double>(ny_) / ext.y;
  inv_wz_ = static_cast<double>(nz_) / ext.z;
  start_.assign(static_cast<std::size_t>(n_cells()) + 1, 0);
}

int CellGrid::clamp_axis(double v, double lo, double inv_w, int n) const {
  int c = static_cast<int>((v - lo) * inv_w);
  if (c < 0) c = 0;
  if (c >= n) c = n - 1;
  return c;
}

int CellGrid::cell_of(const Vec3& p) const {
  const int cx = clamp_axis(p.x, lo_.x, inv_wx_, nx_);
  const int cy = clamp_axis(p.y, lo_.y, inv_wy_, ny_);
  const int cz = clamp_axis(p.z, lo_.z, inv_wz_, nz_);
  return (cz * ny_ + cy) * nx_ + cx;
}

void CellGrid::bin(std::span<const Vec3> positions, parallel::FixedThreadPool* pool,
                   int n_chunks) {
  const std::size_t n = positions.size();
  const std::size_t nc = static_cast<std::size_t>(n_cells());
  // One chunk on a null pool, and at least one for n == 0: the cell scan
  // below must still rewrite every row start.
  const int chunks =
      pool == nullptr ? 1 : std::clamp(n_chunks, 1, static_cast<int>(std::max<std::size_t>(n, 1)));
  scratch_.resize(n);
  occupants_.resize(n);
  chunk_counts_.assign(static_cast<std::size_t>(chunks) * nc, 0);

  // Phase A (parallel over atom chunks): cell ids + per-chunk histograms.
  // Each chunk owns one contiguous count row (no sharing).
  parallel::for_chunks(pool, chunks, static_cast<long long>(n),
                       [&](int k, long long b, long long e) {
    int* counts = chunk_counts_.data() + static_cast<std::size_t>(k) * nc;
    for (long long i = b; i < e; ++i) {
      const int c = cell_of(positions[static_cast<std::size_t>(i)]);
      scratch_[static_cast<std::size_t>(i)] = c;
      ++counts[c];
    }
  });

  // Phase B (two-level block scan over cells): each block rewrites its
  // (cell, chunk) counts — iterated cell-major, chunk-minor, the stable
  // order — into block-local exclusive prefixes and reports a block total;
  // a tiny serial scan over the block totals then anchors the blocks.  All
  // integer arithmetic: the result is the exact serial prefix sum.
  const int n_blocks =
      static_cast<int>(std::min(static_cast<long long>(chunks), static_cast<long long>(nc)));
  block_base_.assign(static_cast<std::size_t>(n_blocks) + 1, 0);
  parallel::for_chunks(pool, n_blocks, static_cast<long long>(nc),
                       [&](int blk, long long cb, long long ce) {
    int run = 0;
    for (long long c = cb; c < ce; ++c) {
      for (int k = 0; k < chunks; ++k) {
        int& cell = chunk_counts_[static_cast<std::size_t>(k) * nc +
                                  static_cast<std::size_t>(c)];
        const int count = cell;
        cell = run;
        run += count;
      }
    }
    block_base_[static_cast<std::size_t>(blk) + 1] = run;
  });
  for (int b = 0; b < n_blocks; ++b) {
    block_base_[static_cast<std::size_t>(b) + 1] += block_base_[static_cast<std::size_t>(b)];
  }
  parallel::for_chunks(pool, n_blocks, static_cast<long long>(nc),
                       [&](int blk, long long cb, long long ce) {
    const int base = block_base_[static_cast<std::size_t>(blk)];
    for (long long c = cb; c < ce; ++c) {
      for (int k = 0; k < chunks; ++k) {
        chunk_counts_[static_cast<std::size_t>(k) * nc + static_cast<std::size_t>(c)] += base;
      }
      // Chunk 0's scatter base for a cell IS the cell's global row start.
      start_[static_cast<std::size_t>(c)] = chunk_counts_[static_cast<std::size_t>(c)];
    }
  });
  start_[nc] = static_cast<int>(n);

  // Phase C (parallel over atom chunks): stable in-order scatter.  Chunk k's
  // cursors live in its own count row; within every cell the chunk bases are
  // ordered k = 0, 1, ... and each chunk scans its atoms in ascending index,
  // so occupants_ comes out in ascending atom index per cell for any chunk
  // count.
  parallel::for_chunks(pool, chunks, static_cast<long long>(n),
                       [&](int k, long long b, long long e) {
    int* cursors = chunk_counts_.data() + static_cast<std::size_t>(k) * nc;
    for (long long i = b; i < e; ++i) {
      occupants_[static_cast<std::size_t>(
          cursors[scratch_[static_cast<std::size_t>(i)]]++)] = static_cast<int>(i);
    }
  });
}

int CellGrid::neighbor_cells(int c, int out[27]) const {
  MWX_ASSERT(c >= 0 && c < n_cells());
  const int cx = c % nx_;
  const int cy = (c / nx_) % ny_;
  const int cz = c / (nx_ * ny_);
  int n = 0;
  for (int dz = -1; dz <= 1; ++dz) {
    const int z = cz + dz;
    if (z < 0 || z >= nz_) continue;
    for (int dy = -1; dy <= 1; ++dy) {
      const int y = cy + dy;
      if (y < 0 || y >= ny_) continue;
      for (int dx = -1; dx <= 1; ++dx) {
        const int x = cx + dx;
        if (x < 0 || x >= nx_) continue;
        out[n++] = (z * ny_ + y) * nx_ + x;
      }
    }
  }
  return n;
}

}  // namespace mwx::md
