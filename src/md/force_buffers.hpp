// Privatized per-worker force accumulation (phase 5's reduction input).
//
// "perform a reduction across all copies of the privatized force array"
// (Section II-A, phase 5).  Each accumulation slot owns a full-length force
// array plus scalar tallies; pair kernels write only their slot's copy, so no
// synchronization is needed inside a phase, and the reduction phase sums the
// slots in fixed order — making the parallel result deterministic.
//
// Three performance refinements over the paper's dense design:
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
//   * All slots live in one n_slots x n_atoms block from std::calloc, which
//     the constructing (master) thread never writes.  A block past glibc's
//     32 MB mmap ceiling (and every large ASan block) is a fresh anonymous
//     mapping, so the kernel supplies each page zero-filled when a worker's
//     scatter first writes it: a slot costs only the pages its chunks reach,
//     and each page is homed on the node of the worker that owns it (the
//     first-touch rationale of common/page_vec.hpp).  A small block comes
//     from the heap and calloc clears it.  All-bits-zero is +0.0, so the
//     untouched-entry invariant above holds from the start.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <type_traits>
#include <vector>

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

  ForceBuffers(int n_workers, int n_atoms) : n_workers_(n_workers), n_atoms_(n_atoms) {
    require(n_workers > 0 && n_atoms > 0, "buffers need workers and atoms");
    n_blocks_ = (n_atoms - 1) / kBlockAtoms + 1;
    // Pad each slot's bitmap row to a full cache line so two slots never
    // share one (the marks themselves must not false-share).
    touched_stride_ = ((static_cast<std::size_t>(n_blocks_) + 63) / 64) * 64;
    force_.reset(static_cast<Vec3*>(std::calloc(
        static_cast<std::size_t>(n_workers) * static_cast<std::size_t>(n_atoms), sizeof(Vec3))));
    require(force_ != nullptr, "cannot allocate the force slots");
    touched_.assign(static_cast<std::size_t>(n_workers) * touched_stride_, 0);
    pe_.resize(static_cast<std::size_t>(n_workers));
    ke_.resize(static_cast<std::size_t>(n_workers));
  }

  [[nodiscard]] int n_workers() const { return n_workers_; }
  [[nodiscard]] int n_atoms() const { return n_atoms_; }
  [[nodiscard]] int n_blocks() const { return n_blocks_; }

  // Kernel-facing accumulation access: marks the containing block as touched
  // so the sparse reduction knows this slot scattered here.
  [[nodiscard]] Vec3& force(int worker, int atom) {
    touched_[static_cast<std::size_t>(worker) * touched_stride_ +
             static_cast<std::size_t>(atom >> kBlockShift)] = 1;
    return entry(worker, atom);
  }
  [[nodiscard]] const Vec3& force(int worker, int atom) const { return entry(worker, atom); }

  // One slot's scatter target with its base pointers loaded once.  A pair
  // loop calling force() per pair reloads them after every touch mark: the
  // mark is a byte store, which may alias anything.  Copies of the two
  // pointers held in locals cannot be aliased, so the loop keeps them in
  // registers.  at() is force() for this slot: same mark, same entry.
  struct Slot {
    Vec3* force;
    std::uint8_t* touched;
    [[nodiscard]] Vec3& at(int atom) const {
      touched[atom >> kBlockShift] = 1;
      return force[atom];
    }
  };
  [[nodiscard]] Slot slot(int worker) {
    return {slot_base(worker),
            touched_.data() + static_cast<std::size_t>(worker) * touched_stride_};
  }

  // Reduction-facing access: reads/zeroes without setting marks.
  [[nodiscard]] Vec3& force_raw(int worker, int atom) { return entry(worker, atom); }

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
      Vec3* slot = slot_base(w);
      for (int b = 0; b < n_blocks_; ++b) {
        if (!block_touched(w, b)) continue;
        const int begin = b << kBlockShift;
        const int end = std::min(n_atoms_, begin + kBlockAtoms);
        std::fill(slot + begin, slot + end, Vec3{});
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

  // The block is handed out as Vec3 storage without running constructors.
  static_assert(std::is_trivially_copyable_v<Vec3> && std::is_trivially_destructible_v<Vec3>);
  struct Free {
    void operator()(Vec3* p) const noexcept { std::free(p); }
  };

  [[nodiscard]] Vec3* slot_base(int worker) const {
    return force_.get() + static_cast<std::size_t>(worker) * static_cast<std::size_t>(n_atoms_);
  }
  [[nodiscard]] Vec3& entry(int worker, int atom) const {
    return slot_base(worker)[static_cast<std::size_t>(atom)];
  }

  int n_workers_;
  int n_atoms_;
  int n_blocks_ = 0;
  std::size_t touched_stride_ = 0;
  // Slot w is the n_atoms entries from slot_base(w), each written only by
  // its own task chain.
  std::unique_ptr<Vec3[], Free> force_;
  std::vector<std::uint8_t> touched_;
  std::vector<PaddedTally> pe_;
  std::vector<PaddedTally> ke_;
};

}  // namespace mwx::md
