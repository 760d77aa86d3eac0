// Morton/Z-order spatial keys and the cell-major reordering pass.
//
// Section V-A's data-packing experiment failed because Java gave the authors
// no handle on object placement.  In C++ we can actually move the data: the
// engine periodically permutes the MolecularSystem's hot arrays so atoms that
// are close in space become close in memory.  The ordering key interleaves
// the bits of each atom's quantized cell coordinate (Z-order), which keeps
// every 2x2x2 block of cells contiguous at every scale — so the pair loop's
// gather of neighbor positions walks a nearly linear address stream instead
// of the creation-order scatter the paper measured.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/vec3.hpp"

namespace mwx::parallel {
class FixedThreadPool;
}  // namespace mwx::parallel

namespace mwx::md {

// Interleaves the low 21 bits of x, y, z into a 63-bit Z-order key
// (x owns bit 0, y bit 1, z bit 2 of each triple).
[[nodiscard]] std::uint64_t morton3(std::uint32_t x, std::uint32_t y, std::uint32_t z);

// Cell-major ordering of `positions` inside the box [lo, hi]: each atom is
// quantized to a cell of width >= cell_width per axis (the same floor-based
// cell count CellGrid uses, so "same Morton cell" implies "same grid cell"),
// keyed by morton3 of its cell coordinate, and stably sorted.  Returns
// new_order with new_order[k] = old index of the atom placed k-th.
//
// The key build fans out over index-contiguous chunks and the sort is a
// stable LSD radix sort on the packed 64-bit keys: per-chunk digit
// histograms, one digit-major/chunk-minor exclusive scan, and a stable
// per-chunk scatter per 8-bit pass.  A stable sort's permutation is unique,
// so atoms sharing a cell keep their relative order and the result does not
// depend on the pool width or chunk count.  A null pool runs every pass
// inline as one chunk.
[[nodiscard]] std::vector<int> morton_order(std::span<const Vec3> positions, const Vec3& lo,
                                            const Vec3& hi, double cell_width,
                                            parallel::FixedThreadPool* pool = nullptr,
                                            int n_chunks = 1);

// Inverse permutation: inverse[new_order[k]] = k.  Validates that new_order
// is a permutation of [0, n).
[[nodiscard]] std::vector<int> invert_permutation(const std::vector<int>& new_order);

}  // namespace mwx::md
