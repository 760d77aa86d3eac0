// Privatized per-worker force accumulation (phase 5's reduction input).
//
// "perform a reduction across all copies of the privatized force array"
// (Section II-A, phase 5).  Each accumulation slot owns a full-length force
// array plus scalar tallies; pair kernels write only their slot's copy, so no
// synchronization is needed inside a phase, and the reduction phase sums the
// slots in fixed order — making the parallel result deterministic.
//
// Two performance refinements over the paper's dense design:
//   * The scalar pe/ke tallies are padded to one cache line per slot.  As
//     contiguous doubles, eight adjacent workers' running sums shared one
//     line and every add ping-ponged it between cores (the false-sharing
//     pathology bench/false_sharing.cpp demonstrates).
//   * Every slot tracks which fixed-size blocks of atoms it scattered into
//     (a byte per block, set on the force() store path).  The reduction can
//     then skip (slot, block) pairs nobody touched instead of sweeping the
//     full O(n_atoms x n_slots) matrix — the dominant phase-5 cost at high
//     slot counts.  Untouched entries are exactly +0.0, so skipping them
//     leaves the reduced sum bit-identical to the dense sweep.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/page_vec.hpp"
#include "common/require.hpp"
#include "common/vec3.hpp"

namespace mwx::md {

class ForceBuffers {
 public:
  // Atoms per touched-tracking block.  128 atoms x 24 bytes = 3 KB of force
  // data per (slot, block) skipped — coarse enough that the bitmap stays a
  // few bytes per slot, fine enough that bonded/contiguous chunks leave most
  // of a big system's blocks untouched.
  static constexpr int kBlockShift = 7;
  static constexpr int kBlockAtoms = 1 << kBlockShift;

  ForceBuffers(int n_workers, int n_atoms)
      : n_workers_(n_workers), n_atoms_(n_atoms),
        n_blocks_((n_atoms + kBlockAtoms - 1) / kBlockAtoms),
        // Pad each slot's bitmap row to a full cache line so two slots never
        // share one (the marks themselves must not false-share).
        touched_stride_(((static_cast<std::size_t>(n_blocks_) + 63) / 64) * 64),
        force_(static_cast<std::size_t>(n_workers),
               PageVec<Vec3>(static_cast<std::size_t>(n_atoms))),
        touched_(static_cast<std::size_t>(n_workers) * touched_stride_, 0),
        pe_(static_cast<std::size_t>(n_workers)),
        ke_(static_cast<std::size_t>(n_workers)) {
    require(n_workers > 0 && n_atoms > 0, "buffers need workers and atoms");
  }

  [[nodiscard]] int n_workers() const { return n_workers_; }
  [[nodiscard]] int n_atoms() const { return n_atoms_; }
  [[nodiscard]] int n_blocks() const { return n_blocks_; }

  // Kernel-facing accumulation access: marks the containing block as touched
  // so the sparse reduction knows this slot scattered here.
  [[nodiscard]] Vec3& force(int worker, int atom) {
    touched_[static_cast<std::size_t>(worker) * touched_stride_ +
             static_cast<std::size_t>(atom >> kBlockShift)] = 1;
    return force_[static_cast<std::size_t>(worker)][static_cast<std::size_t>(atom)];
  }
  [[nodiscard]] const Vec3& force(int worker, int atom) const {
    return force_[static_cast<std::size_t>(worker)][static_cast<std::size_t>(atom)];
  }

  // Reduction-facing access: reads/zeroes without setting marks.
  [[nodiscard]] Vec3& force_raw(int worker, int atom) {
    return force_[static_cast<std::size_t>(worker)][static_cast<std::size_t>(atom)];
  }

  [[nodiscard]] bool block_touched(int worker, int block) const {
    return touched_[static_cast<std::size_t>(worker) * touched_stride_ +
                    static_cast<std::size_t>(block)] != 0;
  }

  // Blocks this slot scattered into (diagnostics/benches).
  [[nodiscard]] int touched_blocks(int worker) const {
    int count = 0;
    for (int b = 0; b < n_blocks_; ++b) count += block_touched(worker, b) ? 1 : 0;
    return count;
  }

  // Forgets all touch marks.  Called after the reduction phase, which leaves
  // every touched entry zeroed — so marks and data agree again.
  void clear_touched() { std::fill(touched_.begin(), touched_.end(), std::uint8_t{0}); }

  void add_pe(int worker, double v) { pe_[static_cast<std::size_t>(worker)].value += v; }
  void add_ke(int worker, double v) { ke_[static_cast<std::size_t>(worker)].value += v; }

  // Sums and clears the per-slot scalar tallies.
  double drain_pe() {
    double s = 0.0;
    for (auto& v : pe_) {
      s += v.value;
      v.value = 0.0;
    }
    return s;
  }
  double drain_ke() {
    double s = 0.0;
    for (auto& v : ke_) {
      s += v.value;
      v.value = 0.0;
    }
    return s;
  }

  // Resets every accumulator to exactly +0.0.  Only touched blocks are
  // swept: an untouched entry has never been written since the last sweep,
  // so it is already +0.0 — the same invariant the sparse reduction relies
  // on.  (Writes through force_raw() bypass the touch marks by design; such
  // callers — the reduction, which always zeroes behind itself — must leave
  // entries at +0.0.)
  void zero_forces() {
    for (int w = 0; w < n_workers_; ++w) {
      auto& slot = force_[static_cast<std::size_t>(w)];
      for (int b = 0; b < n_blocks_; ++b) {
        if (!block_touched(w, b)) continue;
        const std::size_t begin = static_cast<std::size_t>(b) << kBlockShift;
        const std::size_t end =
            std::min(slot.size(), begin + static_cast<std::size_t>(kBlockAtoms));
        std::fill(slot.begin() + static_cast<std::ptrdiff_t>(begin),
                  slot.begin() + static_cast<std::ptrdiff_t>(end), Vec3{});
      }
    }
    clear_touched();
  }

 private:
  // One running scalar per slot, alone on its cache line: adjacent slots'
  // per-pair adds must not invalidate each other.
  struct alignas(64) PaddedTally {
    double value = 0.0;
  };

  int n_workers_;
  int n_atoms_;
  int n_blocks_;
  std::size_t touched_stride_;
  // One array per slot, each written only by its own task chain.
  std::vector<PageVec<Vec3>> force_;
  std::vector<std::uint8_t> touched_;
  std::vector<PaddedTally> pe_;
  std::vector<PaddedTally> ke_;
};

}  // namespace mwx::md
