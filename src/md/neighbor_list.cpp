#include "md/neighbor_list.hpp"

#include <algorithm>

#include "parallel/chunked.hpp"

namespace mwx::md {

NeighborList::NeighborList(int n_atoms, double cutoff, double skin)
    : cutoff_(cutoff), skin_(skin) {
  require(n_atoms > 0, "neighbor list needs atoms");
  require(cutoff > 0.0 && skin >= 0.0, "cutoff/skin must be sane");
  counts_.assign(static_cast<std::size_t>(n_atoms), 0);
  cursor_.assign(static_cast<std::size_t>(n_atoms), 0);
  offsets_.assign(static_cast<std::size_t>(n_atoms) + 1, 0);
}

void NeighborList::begin_rebuild(std::span<const Vec3> positions) {
  require(positions.size() == counts_.size(), "atom count changed");
  ref_pos_.assign(positions.begin(), positions.end());
  std::fill(counts_.begin(), counts_.end(), 0);
}

void NeighborList::finalize_offsets(parallel::FixedThreadPool* pool, int n_chunks) {
  const std::size_t n = counts_.size();
  const int chunks = pool == nullptr ? 1 : std::clamp(n_chunks, 1, static_cast<int>(n));
  scan_bases_.assign(static_cast<std::size_t>(chunks) + 1, 0);
  // Pass 1: chunk-local exclusive prefixes + chunk totals.
  parallel::for_chunks(pool, chunks, static_cast<long long>(n),
                       [&](int k, long long b, long long e) {
    std::size_t running = 0;
    for (long long i = b; i < e; ++i) {
      offsets_[static_cast<std::size_t>(i)] = running;
      running += static_cast<std::size_t>(counts_[static_cast<std::size_t>(i)]);
    }
    scan_bases_[static_cast<std::size_t>(k) + 1] = running;
  });
  // Serial anchor: O(chunks), not O(n_atoms) — the whole point.
  for (int k = 0; k < chunks; ++k) {
    scan_bases_[static_cast<std::size_t>(k) + 1] += scan_bases_[static_cast<std::size_t>(k)];
  }
  // Pass 2: add the chunk base back and reset this chunk's fill cursors.
  parallel::for_chunks(pool, chunks, static_cast<long long>(n),
                       [&](int k, long long b, long long e) {
    const std::size_t base = scan_bases_[static_cast<std::size_t>(k)];
    for (long long i = b; i < e; ++i) {
      offsets_[static_cast<std::size_t>(i)] += base;
      cursor_[static_cast<std::size_t>(i)] = 0;
    }
  });
  total_ = scan_bases_[static_cast<std::size_t>(chunks)];
  offsets_[n] = total_;
  // Grow-only: steady-state rebuilds reuse the high-water allocation instead
  // of churning the allocator every few steps.  Every entry is rewritten by
  // the fill, so outgrowing the block drops it before allocating the next:
  // nothing is copied and the two blocks are never resident together.  The
  // grown block stays untouched here — the fill pass writes every live entry
  // before any reader sees it, and writing from the filling worker is what
  // places the pages.
  if (entries_.capacity() < total_) entries_.discard_and_reserve(total_ + total_ / 4);
  entries_.resize_uninitialized(total_);
}

bool NeighborList::chunk_exceeds_skin(std::span<const Vec3> positions, int begin,
                                      int end) const {
  if (!ever_built()) return true;
  // Euclidean displacement against skin/2: the list guarantees correctness
  // while every atom stays within skin/2 *of distance* of its reference
  // position (two atoms approaching each other close the skin gap at up to
  // skin/2 each).  The per-component (Chebyshev) check used previously let a
  // diagonal drift of up to (sqrt(3)/2)*skin slip through, silently dropping
  // pair interactions between rebuilds.
  const double limit2 = 0.25 * skin_ * skin_;
  for (int i = begin; i < end; ++i) {
    const Vec3 d = positions[static_cast<std::size_t>(i)] - ref_pos_[static_cast<std::size_t>(i)];
    if (d.norm2() > limit2) return true;
  }
  return false;
}

}  // namespace mwx::md
