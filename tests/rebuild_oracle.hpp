// Reference forms of the rebuild passes and the force reduction — the
// serial and dense implementations the engine ran before each pass became a
// single chunked (or sparse) implementation.  Test-only: the bit-identity
// suites measure the production passes against these, as scene_io_oracle.hpp
// does for the scene codec.
//
//   bin            serial counting sort of atoms into CellGrid cells;
//   prefix_offsets serial exclusive prefix sum of the CSR row counts;
//   morton_order   Morton keys + std::stable_sort;
//   reduce_dense   the paper's O(n_atoms x n_slots) reduction sweep.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "md/cell_grid.hpp"
#include "md/force_buffers.hpp"
#include "md/morton.hpp"
#include "md/neighbor_list.hpp"
#include "md/system.hpp"

namespace mwx::md::oracle {

// Row starts (n_cells + 1) and occupants grouped by cell, ascending atom
// index within a cell.
struct CellTable {
  std::vector<int> start;
  std::vector<int> occupants;
};

inline CellTable bin(const CellGrid& grid, std::span<const Vec3> positions) {
  const std::size_t n = positions.size();
  CellTable t;
  t.start.assign(static_cast<std::size_t>(grid.n_cells()) + 1, 0);
  std::vector<int> cell(n);
  for (std::size_t i = 0; i < n; ++i) {
    cell[i] = grid.cell_of(positions[i]);
    ++t.start[static_cast<std::size_t>(cell[i]) + 1];
  }
  for (std::size_t c = 1; c < t.start.size(); ++c) t.start[c] += t.start[c - 1];
  t.occupants.resize(n);
  std::vector<int> cursor(t.start.begin(), t.start.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    t.occupants[static_cast<std::size_t>(cursor[static_cast<std::size_t>(cell[i])]++)] =
        static_cast<int>(i);
  }
  return t;
}

// Row offsets (n_atoms + 1) for the counts currently in `nl`.
inline std::vector<std::size_t> prefix_offsets(const NeighborList& nl) {
  std::vector<std::size_t> offsets(static_cast<std::size_t>(nl.n_atoms()) + 1, 0);
  for (int i = 0; i < nl.n_atoms(); ++i) {
    offsets[static_cast<std::size_t>(i) + 1] =
        offsets[static_cast<std::size_t>(i)] + static_cast<std::size_t>(nl.count(i));
  }
  return offsets;
}

inline std::vector<int> morton_order(std::span<const Vec3> positions, const Vec3& lo,
                                     const Vec3& hi, double cell_width) {
  const Vec3 ext = hi - lo;
  auto axis_cells = [cell_width](double extent) {
    return std::max(1, static_cast<int>(std::floor(extent / cell_width)));
  };
  const int nx = axis_cells(ext.x);
  const int ny = axis_cells(ext.y);
  const int nz = axis_cells(ext.z);
  auto quantize = [](double v, double l, double inv_w, int n) {
    return static_cast<std::uint32_t>(std::clamp(static_cast<int>((v - l) * inv_w), 0, n - 1));
  };
  const double inv_wx = static_cast<double>(nx) / ext.x;
  const double inv_wy = static_cast<double>(ny) / ext.y;
  const double inv_wz = static_cast<double>(nz) / ext.z;
  std::vector<std::uint64_t> key(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec3& p = positions[i];
    key[i] = morton3(quantize(p.x, lo.x, inv_wx, nx), quantize(p.y, lo.y, inv_wy, ny),
                     quantize(p.z, lo.z, inv_wz, nz));
  }
  std::vector<int> order(positions.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&key](int a, int b) {
    return key[static_cast<std::size_t>(a)] < key[static_cast<std::size_t>(b)];
  });
  return order;
}

// Sums every slot in slot order into acc = F / m and zeroes every entry.
inline void reduce_dense(MolecularSystem& sys, ForceBuffers& buf, int begin, int end) {
  for (int i = begin; i < end; ++i) {
    Vec3 total{};
    for (int w = 0; w < buf.n_workers(); ++w) {
      total += buf.force_raw(w, i);
      buf.force_raw(w, i) = Vec3{};
    }
    sys.accelerations()[static_cast<std::size_t>(i)] = total * sys.inv_mass(i);
  }
}

}  // namespace mwx::md::oracle
