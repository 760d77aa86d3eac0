// The MD kernels, templated on a memory-model policy (md/mem_model.hpp).
//
// Each function processes a contiguous chunk of its domain (atoms, charged
// atoms, or bonds) — the unit the executor schedules — and writes forces
// only into the given worker's private buffer, so chunks are race-free by
// construction.  With Mem = NullMem these compile to pure physics; with
// Mem = TraceMem they additionally emit the heap-layout-dependent address
// stream and arithmetic costs consumed by the machine simulator.
#pragma once

#include <algorithm>
#include <cmath>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/units.hpp"
#include "md/cell_grid.hpp"
#include "md/cost_table.hpp"
#include "md/force_buffers.hpp"
#include "md/lj_table.hpp"
#include "md/mem_model.hpp"
#include "md/neighbor_list.hpp"
#include "md/system.hpp"

namespace mwx::md {

// ---------------------------------------------------------------------------
// Phase 1: predictor — second-order Taylor step of position plus the first
// half velocity kick; reflective walls keep atoms inside the box.
// ---------------------------------------------------------------------------
template <typename Mem>
void predictor_chunk(MolecularSystem& sys, double dt, const CostTable& costs, int begin,
                     int end, Mem& mem) {
  auto& pos = sys.positions();
  auto& vel = sys.velocities();
  auto& acc = sys.accelerations();
  const Box& box = sys.box();
  for (int i = begin; i < end; ++i) {
    mem.read_meta(i);
    if (!sys.movable(i)) continue;
    mem.read_pos(i);
    mem.read_vel(i);
    mem.read_acc(i);
    Vec3& x = pos[static_cast<std::size_t>(i)];
    Vec3& v = vel[static_cast<std::size_t>(i)];
    const Vec3& a = acc[static_cast<std::size_t>(i)];
    x += v * dt + a * (0.5 * dt * dt);
    v += a * (0.5 * dt);
    // Reflective walls.
    for (int d = 0; d < 3; ++d) {
      if (x[static_cast<std::size_t>(d)] < box.lo[static_cast<std::size_t>(d)]) {
        x[static_cast<std::size_t>(d)] =
            2.0 * box.lo[static_cast<std::size_t>(d)] - x[static_cast<std::size_t>(d)];
        v[static_cast<std::size_t>(d)] = -v[static_cast<std::size_t>(d)];
      } else if (x[static_cast<std::size_t>(d)] > box.hi[static_cast<std::size_t>(d)]) {
        x[static_cast<std::size_t>(d)] =
            2.0 * box.hi[static_cast<std::size_t>(d)] - x[static_cast<std::size_t>(d)];
        v[static_cast<std::size_t>(d)] = -v[static_cast<std::size_t>(d)];
      }
    }
    mem.write_pos(i);
    mem.write_vel(i);
    mem.temps(costs.temps_predictor_atom);
    mem.compute(costs.predictor_atom + costs.wall_check_atom);
  }
}

// ---------------------------------------------------------------------------
// Phase 2: neighbor-list validity check for a chunk.
// ---------------------------------------------------------------------------
template <typename Mem>
bool check_chunk(const MolecularSystem& sys, const NeighborList& nlist, const CostTable& costs,
                 int begin, int end, Mem& mem) {
  for (int i = begin; i < end; ++i) {
    mem.read_pos(i);
    mem.compute(costs.check_atom);
  }
  return nlist.chunk_exceeds_skin(sys.positions(), begin, end);
}

// ---------------------------------------------------------------------------
// Phase 3a: neighbor counting — the first step of the compacted CSR rebuild.
// Each chunk scans its atoms' candidate cells with exactly the acceptance
// test the fill pass will apply and records only the count; the serial
// prefix sum (NeighborList::finalize_offsets) then sizes each row exactly.
// The count depends only on the position snapshot and cell contents, so the
// resulting offsets are identical for any chunking/worker count.  The scan
// is modelled as an in-place distance test (no boxed temporaries): counting
// allocates nothing even in the Java-temporaries mode.
// ---------------------------------------------------------------------------
template <typename Mem>
void neighbor_count_chunk(const MolecularSystem& sys, const CellGrid& grid,
                          NeighborList& nlist, const CostTable& costs, int begin, int end,
                          int stride, Mem& mem) {
  const auto& pos = sys.positions();
  const double reach2 = nlist.reach() * nlist.reach();
  for (int i = begin; i < end; i += stride) {
    mem.read_pos(i);
    mem.read_meta(i);
    const Vec3 xi = pos[static_cast<std::size_t>(i)];
    const bool mi = sys.movable(i);
    int count = 0;
    int cells[27];
    const int nc = grid.neighbor_cells(grid.cell_of(xi), cells);
    for (int c = 0; c < nc; ++c) {
      const int* it = grid.cell_begin(cells[c]);
      const int* last = grid.cell_end(cells[c]);
      for (; it != last; ++it) {
        const int j = *it;
        if (j <= i) continue;  // half list, stored on the lower index
        mem.read_cell_entry(static_cast<std::uint64_t>(it - grid.cell_begin(0)));
        if (!mi && !sys.movable(j)) continue;
        if (sys.excluded(i, j)) continue;
        mem.read_pos(j);
        mem.compute(costs.nbr_candidate);
        if (distance2(xi, pos[static_cast<std::size_t>(j)]) <= reach2) ++count;
      }
    }
    nlist.set_count(i, count);
    mem.compute(costs.nbr_count_store);
  }
}

// ---------------------------------------------------------------------------
// Phases 3+4 (fused): per atom, optionally fill its (pre-counted, pre-sized)
// CSR neighbor row from the linked cells, then compute Lennard-Jones forces
// over the list.  Pair (i, j) is processed by the lower index i — the
// paper's convention — with j's share written into this worker's private
// buffer.
//
// The LJ pass over a row has two implementations with identical bits.
// lj_row_scalar is the paper's per-pair loop: the traced backend runs it (its
// per-pair event order is the address stream the simulator replays), and so
// does every native build without AVX2.  lj_row_avx2 is the native kernel.
// ---------------------------------------------------------------------------
template <typename Mem>
void lj_row_scalar(const MolecularSystem& sys, const NeighborList& nlist, const LjTable& lj,
                   const CostTable& costs, ForceBuffers& buf, int worker, int i, Mem& mem) {
  const auto& pos = sys.positions();
  const double cutoff2 = lj.cutoff2();
  const Vec3 xi = pos[static_cast<std::size_t>(i)];
  const int ti = sys.type_of(i);
  Vec3 fi{};
  double pe = 0.0;
  const int* it = nlist.begin(i);
  const int* last = nlist.end(i);
  for (int k = 0; it != last; ++it, ++k) {
    const int j = *it;
    mem.read_neighbor_entry(nlist.entry_index(i, k));
    mem.read_pos(j);
    mem.read_meta(j);
    const Vec3 dr = xi - pos[static_cast<std::size_t>(j)];
    const double r2 = dr.norm2();
    if (r2 > cutoff2 || r2 <= 0.0) continue;
    const int tj = sys.type_of(j);
    const double eps = lj.epsilon(ti, tj);
    if (eps == 0.0) continue;
    const double sr2 = lj.sigma2(ti, tj) / r2;
    const double sr6 = sr2 * sr2 * sr2;
    const double sr12 = sr6 * sr6;
    const double fscale = 24.0 * eps * (2.0 * sr12 - sr6) / r2;
    const Vec3 f = dr * fscale;
    fi += f;
    buf.force(worker, j) -= f;
    mem.write_private_force(worker, j);
    pe += 4.0 * eps * (sr12 - sr6) - lj.shift(ti, tj);
    mem.temps(costs.temps_lj_pair);
    mem.compute(costs.lj_pair);
  }
  buf.force(worker, i) += fi;
  buf.add_pe(worker, pe);
  mem.write_private_force(worker, i);
}

#if defined(__AVX2__)
// The native LJ kernel: the row in blocks of four entries, one pair per
// lane, every lane evaluating the scalar loop's expressions with the scalar
// association (vsubpd/vmulpd/vaddpd/vdivpd are correctly rounded and
// -ffp-contract=off forbids FMA), so each lane's f and pe term carry the
// scalar bits.
//
// Acceptance is a mask instead of a branch: the compares are the negations
// of the scalar `continue` tests in their unordered forms (_CMP_NGT_UQ,
// _CMP_NLE_UQ, _CMP_NEQ_UQ), so a NaN r2 or eps is accepted exactly as the
// scalar loop accepts it.  Rejected lanes are and-ed to +0.0 and all four
// lanes are folded in list order into [fi.x, fi.y, fi.z, pe] and into each
// fj.  That fold is bit-exact: fi and pe start at +0.0 and a round-to-
// nearest sum is -0.0 only when both addends are, so they are never -0.0
// and adding +0.0 leaves them unchanged; fj - (+0.0) == fj for every fj.
// The rejected lane's fj store does mark its block touched, which the
// sparse reduction only turns into more +0.0 addends.
//
// Positions are loaded per lane and packed with _mm256_setr_pd (measured
// faster than vgatherdpd here), and the fold replaces a loop over accepted
// lanes, whose mispredicted exits cost more than the masked work.  The last
// block of a row pads its dead lanes with i and a lane mask rejects them
// whatever their r2 (even a NaN xi): the row is never read past its end.
template <bool kSingleType>
void lj_row_avx2_impl(const MolecularSystem& sys, const NeighborList& nlist, const LjTable& lj,
                      ForceBuffers& buf, int worker, int i) {
  const Vec3* pos = sys.positions().data();
  const Vec3 xi = pos[i];
  const int ti = sys.type_of(i);
  const double* eps_row = lj.epsilon_row(ti);
  const double* sig2_row = lj.sigma2_row(ti);
  const double* shift_row = lj.shift_row(ti);
  const int* row = nlist.begin(i);
  const int n = nlist.count(i);

  const __m256d vxix = _mm256_set1_pd(xi.x);
  const __m256d vxiy = _mm256_set1_pd(xi.y);
  const __m256d vxiz = _mm256_set1_pd(xi.z);
  const __m256d vc2 = _mm256_set1_pd(lj.cutoff2());
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d v2 = _mm256_set1_pd(2.0);
  const __m256d v4 = _mm256_set1_pd(4.0);
  const __m256d v24 = _mm256_set1_pd(24.0);
  // Single-type systems: the pair constants are one table entry.
  const __m256d veps1 = _mm256_set1_pd(eps_row[0]);
  const __m256d vsig21 = _mm256_set1_pd(sig2_row[0]);
  const __m256d vshift1 = _mm256_set1_pd(shift_row[0]);

  // Lane positions 0..3, compared against the entries left in the row.
  const __m256d vlane = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);

  // Lane l is the scalar chain of fi.x, fi.y, fi.z, pe respectively.
  __m256d acc = vzero;
  for (int k = 0; k < n; k += 4) {
    const int rem = n - k;  // < 4 only in the padded last block
    const int j0 = row[k];
    const int j1 = rem > 1 ? row[k + 1] : i;
    const int j2 = rem > 2 ? row[k + 2] : i;
    const int j3 = rem > 3 ? row[k + 3] : i;
    const __m256d live = _mm256_cmp_pd(vlane, _mm256_set1_pd(rem), _CMP_LT_OQ);
    const Vec3& p0 = pos[j0];
    const Vec3& p1 = pos[j1];
    const Vec3& p2 = pos[j2];
    const Vec3& p3 = pos[j3];
    const __m256d dx = _mm256_sub_pd(vxix, _mm256_setr_pd(p0.x, p1.x, p2.x, p3.x));
    const __m256d dy = _mm256_sub_pd(vxiy, _mm256_setr_pd(p0.y, p1.y, p2.y, p3.y));
    const __m256d dz = _mm256_sub_pd(vxiz, _mm256_setr_pd(p0.z, p1.z, p2.z, p3.z));
    const __m256d r2 = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)), _mm256_mul_pd(dz, dz));
    __m256d eps = veps1, sig2 = vsig21, shift = vshift1;
    if constexpr (!kSingleType) {
      const int t0 = sys.type_of(j0), t1 = sys.type_of(j1);
      const int t2 = sys.type_of(j2), t3 = sys.type_of(j3);
      eps = _mm256_setr_pd(eps_row[t0], eps_row[t1], eps_row[t2], eps_row[t3]);
      sig2 = _mm256_setr_pd(sig2_row[t0], sig2_row[t1], sig2_row[t2], sig2_row[t3]);
      shift = _mm256_setr_pd(shift_row[t0], shift_row[t1], shift_row[t2], shift_row[t3]);
    }
    // !(r2 > c2 || r2 <= 0) && !(eps == 0), NaN-faithful.
    const __m256d ok = _mm256_and_pd(
        _mm256_and_pd(live, _mm256_cmp_pd(r2, vc2, _CMP_NGT_UQ)),
        _mm256_and_pd(_mm256_cmp_pd(r2, vzero, _CMP_NLE_UQ),
                      _mm256_cmp_pd(eps, vzero, _CMP_NEQ_UQ)));
    const __m256d sr2 = _mm256_div_pd(sig2, r2);
    const __m256d sr6 = _mm256_mul_pd(_mm256_mul_pd(sr2, sr2), sr2);
    const __m256d sr12 = _mm256_mul_pd(sr6, sr6);
    const __m256d fs = _mm256_div_pd(
        _mm256_mul_pd(_mm256_mul_pd(v24, eps), _mm256_sub_pd(_mm256_mul_pd(v2, sr12), sr6)),
        r2);
    const __m256d fx = _mm256_and_pd(_mm256_mul_pd(dx, fs), ok);
    const __m256d fy = _mm256_and_pd(_mm256_mul_pd(dy, fs), ok);
    const __m256d fz = _mm256_and_pd(_mm256_mul_pd(dz, fs), ok);
    const __m256d e = _mm256_and_pd(
        _mm256_sub_pd(_mm256_mul_pd(_mm256_mul_pd(v4, eps), _mm256_sub_pd(sr12, sr6)), shift),
        ok);
    // 4x4 transpose: pair l's [fx, fy, fz, e] becomes one vector.
    const __m256d t0 = _mm256_unpacklo_pd(fx, fy);  // fx0 fy0 fx2 fy2
    const __m256d t1 = _mm256_unpackhi_pd(fx, fy);  // fx1 fy1 fx3 fy3
    const __m256d t2 = _mm256_unpacklo_pd(fz, e);   // fz0 e0  fz2 e2
    const __m256d t3 = _mm256_unpackhi_pd(fz, e);   // fz1 e1  fz3 e3
    const __m256d pair[4] = {_mm256_permute2f128_pd(t0, t2, 0x20),
                             _mm256_permute2f128_pd(t1, t3, 0x20),
                             _mm256_permute2f128_pd(t0, t2, 0x31),
                             _mm256_permute2f128_pd(t1, t3, 0x31)};
    const int js[4] = {j0, j1, j2, j3};
    for (int l = 0; l < 4; ++l) {
      acc = _mm256_add_pd(acc, pair[l]);
      Vec3& fj = buf.force(worker, js[l]);
      _mm_storeu_pd(&fj.x, _mm_sub_pd(_mm_loadu_pd(&fj.x), _mm256_castpd256_pd128(pair[l])));
      fj.z -= _mm_cvtsd_f64(_mm256_extractf128_pd(pair[l], 1));
    }
  }

  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  buf.force(worker, i) += Vec3{lanes[0], lanes[1], lanes[2]};
  buf.add_pe(worker, lanes[3]);
}

inline void lj_row_avx2(const MolecularSystem& sys, const NeighborList& nlist, const LjTable& lj,
                        ForceBuffers& buf, int worker, int i) {
  if (lj.n_types() == 1) {
    lj_row_avx2_impl<true>(sys, nlist, lj, buf, worker, i);
  } else {
    lj_row_avx2_impl<false>(sys, nlist, lj, buf, worker, i);
  }
}
#endif

template <typename Mem>
void fused_neighbors_lj_chunk(const MolecularSystem& sys, const CellGrid& grid,
                              NeighborList& nlist, const LjTable& lj, const CostTable& costs,
                              bool rebuild, ForceBuffers& buf, int worker, int begin, int end,
                              int stride, Mem& mem) {
  const auto& pos = sys.positions();
  const double reach2 = nlist.reach() * nlist.reach();

  for (int i = begin; i < end; i += stride) {
    mem.read_pos(i);
    mem.read_meta(i);

    if (rebuild) {
      const Vec3 xi = pos[static_cast<std::size_t>(i)];
      const bool mi = sys.movable(i);
      int k = 0;
      int cells[27];
      const int nc = grid.neighbor_cells(grid.cell_of(xi), cells);
      for (int c = 0; c < nc; ++c) {
        const int* it = grid.cell_begin(cells[c]);
        const int* last = grid.cell_end(cells[c]);
        for (; it != last; ++it) {
          const int j = *it;
          if (j <= i) continue;  // half list, stored on the lower index
          mem.read_cell_entry(static_cast<std::uint64_t>(it - grid.cell_begin(0)));

          // Two fixed atoms never interact (nanocar's platform), and
          // directly bonded pairs are excluded from LJ.
          if (!mi && !sys.movable(j)) continue;
          if (sys.excluded(i, j)) continue;
          mem.read_pos(j);
          mem.temps(costs.temps_nbr_candidate);
          mem.compute(costs.nbr_candidate);
          if (distance2(xi, pos[static_cast<std::size_t>(j)]) <= reach2) {
            nlist.add_neighbor(i, j);
            mem.write_neighbor_entry(nlist.entry_index(i, k));
            mem.compute(costs.nbr_accept);
            ++k;
          }
        }
      }
    }

#if defined(__AVX2__)
    if constexpr (!Mem::tracing) {
      lj_row_avx2(sys, nlist, lj, buf, worker, i);
      continue;
    }
#endif
    lj_row_scalar(sys, nlist, lj, costs, buf, worker, i, mem);
  }
}

// ---------------------------------------------------------------------------
// Phase 4 (continued): Coulomb forces between every pair of charged atoms,
// no distance cutoff (Section II-B).  The chunk ranges over positions in the
// charged-atom index list; the triangular inner loop gives lower-ranked
// chunks more work — the deliberate index-correlated imbalance.
//
// This kernel has a scalar and a tiled form.  The all-pairs loop rejects
// (almost) nothing, so a tile that merely regroups the sqrt/divide chain
// cannot amortize its gather cost against skipped pairs.  The tiled form
// therefore reads from a PackedCharges snapshot — the charged atoms'
// positions and charges copied bit-for-bit into four contiguous arrays
// once per step — which turns the inner loop's three
// gathered position loads plus one gathered charge load into streaming
// loads, and buffers dr in the tile so nothing is fetched twice.  The lane
// loop runs sqrt/divide/multiply across the tile branch-free — it
// vectorizes to vsqrtpd/vdivpd, both IEEE-correctly-rounded, so each lane
// computes the scalar form's exact bits — then forces and pe accumulate in
// the original pair order.  kCoulomb * qi is hoisted as
// (kCoulomb * qi) * qj / r, which is precisely the association the scalar
// expression already has.
// ---------------------------------------------------------------------------
inline constexpr int kCoulombTile = 8;

// Per-step SoA snapshot of the charged atoms.  pack() copies values
// verbatim (no arithmetic), so kernels reading it see exactly the bits in
// the master arrays.  The engine repacks after every phase that moves atoms
// or permutes storage order; standalone callers pack right before the call.
struct PackedCharges {
  std::vector<double> x, y, z, q;

  void pack(const MolecularSystem& sys) {
    const auto& charged = sys.charged_indices();
    const auto& pos = sys.positions();
    const std::size_t n = charged.size();
    x.resize(n);
    y.resize(n);
    z.resize(n);
    q.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
      const int j = charged[c];
      const Vec3& p = pos[static_cast<std::size_t>(j)];
      x[c] = p.x;
      y[c] = p.y;
      z[c] = p.z;
      q[c] = sys.charge(j);
    }
  }
};

template <typename Mem>
void coulomb_chunk(const MolecularSystem& sys, const CostTable& costs, ForceBuffers& buf,
                   int worker, int cbegin, int cend, int stride, Mem& mem,
                   bool tiled = false, const PackedCharges* packed = nullptr) {
  const auto& pos = sys.positions();
  const auto& charged = sys.charged_indices();
  const int n_charged = static_cast<int>(charged.size());
  for (int ci = cbegin; ci < cend; ci += stride) {
    const int i = charged[static_cast<std::size_t>(ci)];
    mem.read_pos(i);
    mem.read_meta(i);
    mem.temps(costs.temps_coulomb_outer);
    const Vec3 xi = pos[static_cast<std::size_t>(i)];
    const double qi = sys.charge(i);
    Vec3 fi{};
    double pe = 0.0;

    if (!tiled) {
      for (int cj = ci + 1; cj < n_charged; ++cj) {
        const int j = charged[static_cast<std::size_t>(cj)];
        mem.read_pos(j);
        mem.read_meta(j);
        const Vec3 dr = xi - pos[static_cast<std::size_t>(j)];
        const double r2 = dr.norm2();
        // Coincident charges have no defined pair direction; dividing through
        // r = 0 would seed inf/NaN forces that corrupt every later step (the
        // LJ kernel already skips this case).
        if (r2 <= 0.0) continue;
        const double r = std::sqrt(r2);
        const double e = units::kCoulomb * qi * sys.charge(j) / r;
        const Vec3 f = dr * (e / r2);
        fi += f;
        buf.force(worker, j) -= f;
        mem.write_private_force(worker, j);
        pe += e;
        mem.temps(costs.temps_coulomb_pair);
        mem.compute(costs.coulomb_pair);
      }
    } else {
      MWX_ASSERT(packed != nullptr);
      const double kqi = units::kCoulomb * qi;
      const double* __restrict px = packed->x.data();
      const double* __restrict py = packed->y.data();
      const double* __restrict pz = packed->z.data();
      const double* __restrict pq = packed->q.data();
      // Full blocks of kCoulombTile consecutive cj.  The all-pairs loop accepts
      // every pair except exact coincidence (r2 == 0), so unlike LJ there is
      // nothing to compact: pass 1 computes dr and r2 for the whole block
      // branch-free from the packed arrays (contiguous vector loads), the
      // lane loop runs the sqrt/divide chain, and the ordered scatter
      // accumulates in pair order.  A block containing a coincident pair
      // (vanishingly rare) falls back to the scalar body, preserving the
      // skip semantics bit for bit.
      //
      // The hot block uses AVX2 intrinsics where available: GCC's
      // autovectorizer fully unrolls these fixed-trip loops and then
      // declines to SLP-vectorize the result, so spelling out the ymm ops
      // is what actually lights up the vector units.  vsubpd/vmulpd/vaddpd/
      // vsqrtpd/vdivpd are all IEEE correctly-rounded, and the expressions
      // keep the scalar association — (kqi * qj) / r, e / r2, dr * fs — so
      // each lane computes the scalar form's exact bits.
      int cj = ci + 1;
#if defined(__AVX2__)
      static_assert(kCoulombTile == 8, "AVX2 Coulomb block assumes two 4-lane halves");
      const __m256d vxix = _mm256_set1_pd(xi.x);
      const __m256d vxiy = _mm256_set1_pd(xi.y);
      const __m256d vxiz = _mm256_set1_pd(xi.z);
      const __m256d vkqi = _mm256_set1_pd(kqi);
      const __m256d vzero = _mm256_setzero_pd();
      // [fi.x, fi.y] accumulator: one addpd per pair runs both serial
      // chains, and each lane folds in exactly the scalar order.  fi.x/fi.y
      // stay zero until the chain is folded out below, so the lanes ARE the
      // scalar chains, not partial sums glued on.  fi.z and pe accumulate
      // as plain scalars — four independent 4-cycle chains either way.
      __m128d fixy = _mm_setzero_pd();
      for (; cj + kCoulombTile <= n_charged; cj += kCoulombTile) {
        for (int t = 0; t < kCoulombTile; ++t) {
          mem.read_pos(charged[static_cast<std::size_t>(cj + t)]);
          mem.read_meta(charged[static_cast<std::size_t>(cj + t)]);
        }
        // a_xy holds per-pair [fx, fy] interleaved so the scatter can load,
        // subtract and store fj.x/fj.y with single 128-bit ops — the store
        // port is this loop's tightest resource.
        double a_xy[2 * kCoulombTile], a_fz[kCoulombTile], a_e[kCoulombTile];
        bool ok = true;
        for (int h = 0; h < 2; ++h) {
          const int o = cj + 4 * h;
          const __m256d dx = _mm256_sub_pd(vxix, _mm256_loadu_pd(px + o));
          const __m256d dy = _mm256_sub_pd(vxiy, _mm256_loadu_pd(py + o));
          const __m256d dz = _mm256_sub_pd(vxiz, _mm256_loadu_pd(pz + o));
          const __m256d r2 = _mm256_add_pd(
              _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
              _mm256_mul_pd(dz, dz));
          ok &= _mm256_movemask_pd(_mm256_cmp_pd(r2, vzero, _CMP_GT_OQ)) == 0xF;
          const __m256d r = _mm256_sqrt_pd(r2);
          const __m256d e =
              _mm256_div_pd(_mm256_mul_pd(vkqi, _mm256_loadu_pd(pq + o)), r);
          const __m256d fs = _mm256_div_pd(e, r2);
          const __m256d fx = _mm256_mul_pd(dx, fs);
          const __m256d fy = _mm256_mul_pd(dy, fs);
          // Interleave to [fx0,fy0,fx1,fy1 | fx2,fy2,fx3,fy3].
          const __m256d u0 = _mm256_unpacklo_pd(fx, fy);
          const __m256d u1 = _mm256_unpackhi_pd(fx, fy);
          _mm256_storeu_pd(a_xy + 8 * h, _mm256_permute2f128_pd(u0, u1, 0x20));
          _mm256_storeu_pd(a_xy + 8 * h + 4, _mm256_permute2f128_pd(u0, u1, 0x31));
          _mm256_storeu_pd(a_fz + 4 * h, _mm256_mul_pd(dz, fs));
          _mm256_storeu_pd(a_e + 4 * h, e);
        }
        // A lane hit r2 == 0 (exact coincidence): stop the vector pipeline
        // here — nothing from this block is committed yet — and let the
        // scalar remainder below redo it with the scalar path's exact skip
        // semantics.  Resuming vector accumulation after a scalar stretch
        // would reassociate the fi/pe chains, so the rest of the row stays
        // scalar; coincident pairs never occur in practice.
        if (!ok) break;
        for (int t = 0; t < kCoulombTile; ++t) {
          const __m128d f2 = _mm_loadu_pd(a_xy + 2 * t);
          fixy = _mm_add_pd(fixy, f2);
          fi.z += a_fz[t];
          const int j = charged[static_cast<std::size_t>(cj + t)];
          Vec3& fj = buf.force(worker, j);
          _mm_storeu_pd(&fj.x, _mm_sub_pd(_mm_loadu_pd(&fj.x), f2));
          fj.z -= a_fz[t];
          mem.write_private_force(worker, j);
          pe += a_e[t];
          mem.temps(costs.temps_coulomb_pair);
          mem.compute(costs.coulomb_pair);
        }
      }
      // Fold the vector chain out.  fi.x/fi.y are untouched zeros up to
      // here, so lane assignment (not addition) reproduces the scalar
      // accumulation exactly; the scalar remainder continues the fold for
      // the row tail and any coincident block.
      {
        alignas(16) double lanes[2];
        _mm_store_pd(lanes, fixy);
        fi.x = lanes[0];
        fi.y = lanes[1];
      }
#else
      // Guarded scalar fallback: the same block structure in plain C++.
      // Bit-identical to the AVX2 path (and to the scalar kernel) because
      // every expression keeps the same association.
      double bdx[kCoulombTile], bdy[kCoulombTile], bdz[kCoulombTile], br2[kCoulombTile];
      double bfs[kCoulombTile], be[kCoulombTile];
      for (; cj + kCoulombTile <= n_charged; cj += kCoulombTile) {
        for (int t = 0; t < kCoulombTile; ++t) {
          mem.read_pos(charged[static_cast<std::size_t>(cj + t)]);
          mem.read_meta(charged[static_cast<std::size_t>(cj + t)]);
          const double dx = xi.x - px[cj + t];
          const double dy = xi.y - py[cj + t];
          const double dz = xi.z - pz[cj + t];
          bdx[t] = dx;
          bdy[t] = dy;
          bdz[t] = dz;
          br2[t] = dx * dx + dy * dy + dz * dz;
        }
        double min_r2 = br2[0];
        for (int t = 1; t < kCoulombTile; ++t) min_r2 = std::min(min_r2, br2[t]);
        if (min_r2 > 0.0) {
          for (int t = 0; t < kCoulombTile; ++t) {
            const double r = std::sqrt(br2[t]);
            const double e = kqi * pq[cj + t] / r;
            be[t] = e;
            bfs[t] = e / br2[t];
          }
          for (int t = 0; t < kCoulombTile; ++t) {
            const double fx = bdx[t] * bfs[t];
            const double fy = bdy[t] * bfs[t];
            const double fz = bdz[t] * bfs[t];
            fi.x += fx;
            fi.y += fy;
            fi.z += fz;
            const int j = charged[static_cast<std::size_t>(cj + t)];
            Vec3& fj = buf.force(worker, j);
            fj.x -= fx;
            fj.y -= fy;
            fj.z -= fz;
            mem.write_private_force(worker, j);
            pe += be[t];
            mem.temps(costs.temps_coulomb_pair);
            mem.compute(costs.coulomb_pair);
          }
        } else {
          for (int t = 0; t < kCoulombTile; ++t) {
            if (br2[t] <= 0.0) continue;
            const double r = std::sqrt(br2[t]);
            const double e = kqi * pq[cj + t] / r;
            const double fs = e / br2[t];
            const double fx = bdx[t] * fs;
            const double fy = bdy[t] * fs;
            const double fz = bdz[t] * fs;
            fi.x += fx;
            fi.y += fy;
            fi.z += fz;
            const int j = charged[static_cast<std::size_t>(cj + t)];
            Vec3& fj = buf.force(worker, j);
            fj.x -= fx;
            fj.y -= fy;
            fj.z -= fz;
            mem.write_private_force(worker, j);
            pe += e;
            mem.temps(costs.temps_coulomb_pair);
            mem.compute(costs.coulomb_pair);
          }
        }
      }
#endif
      // Row tail (< kCoulombTile pairs): the scalar body against the packed
      // arrays.
      for (; cj < n_charged; ++cj) {
        const int j = charged[static_cast<std::size_t>(cj)];
        mem.read_pos(j);
        mem.read_meta(j);
        const double dx = xi.x - px[cj];
        const double dy = xi.y - py[cj];
        const double dz = xi.z - pz[cj];
        const double r2 = dx * dx + dy * dy + dz * dz;
        if (r2 <= 0.0) continue;
        const double r = std::sqrt(r2);
        const double e = kqi * pq[cj] / r;
        const double fs = e / r2;
        const double fx = dx * fs;
        const double fy = dy * fs;
        const double fz = dz * fs;
        fi.x += fx;
        fi.y += fy;
        fi.z += fz;
        Vec3& fj = buf.force(worker, j);
        fj.x -= fx;
        fj.y -= fy;
        fj.z -= fz;
        mem.write_private_force(worker, j);
        pe += e;
        mem.temps(costs.temps_coulomb_pair);
        mem.compute(costs.coulomb_pair);
      }
    }

    buf.force(worker, i) += fi;
    buf.add_pe(worker, pe);
    mem.write_private_force(worker, i);
  }
}

// ---------------------------------------------------------------------------
// Phase 4 (continued): bonded forces, iterated in bond-list order with
// indirect indexing into the atom array (Section II-B).
// ---------------------------------------------------------------------------
template <typename Mem>
void radial_bond_chunk(const MolecularSystem& sys, const CostTable& costs, ForceBuffers& buf,
                       int worker, int bbegin, int bend, Mem& mem) {
  const auto& pos = sys.positions();
  const auto& bonds = sys.radial_bonds();
  for (int b = bbegin; b < bend; ++b) {
    const RadialBond& bond = bonds[static_cast<std::size_t>(b)];
    mem.read_pos(bond.a);
    mem.read_pos(bond.b);
    mem.read_meta(bond.a);
    mem.read_meta(bond.b);
    const Vec3 dr = pos[static_cast<std::size_t>(bond.a)] - pos[static_cast<std::size_t>(bond.b)];
    const double r = dr.norm();
    if (r <= 1e-12) continue;
    const double stretch = r - bond.r0;
    const Vec3 f = dr * (-bond.k * stretch / r);
    buf.force(worker, bond.a) += f;
    buf.force(worker, bond.b) -= f;
    buf.add_pe(worker, 0.5 * bond.k * stretch * stretch);
    mem.write_private_force(worker, bond.a);
    mem.write_private_force(worker, bond.b);
    mem.temps(costs.temps_radial_bond);
    mem.compute(costs.radial_bond);
  }
}

template <typename Mem>
void angular_bond_chunk(const MolecularSystem& sys, const CostTable& costs, ForceBuffers& buf,
                        int worker, int bbegin, int bend, Mem& mem) {
  const auto& pos = sys.positions();
  const auto& bonds = sys.angular_bonds();
  for (int b = bbegin; b < bend; ++b) {
    const AngularBond& bond = bonds[static_cast<std::size_t>(b)];
    mem.read_pos(bond.a);
    mem.read_pos(bond.b);
    mem.read_pos(bond.c);
    mem.read_meta(bond.b);
    const Vec3 d1 = pos[static_cast<std::size_t>(bond.a)] - pos[static_cast<std::size_t>(bond.b)];
    const Vec3 d2 = pos[static_cast<std::size_t>(bond.c)] - pos[static_cast<std::size_t>(bond.b)];
    const double r1 = d1.norm();
    const double r2 = d2.norm();
    if (r1 <= 1e-12 || r2 <= 1e-12) continue;
    double cos_t = dot(d1, d2) / (r1 * r2);
    cos_t = std::min(1.0, std::max(-1.0, cos_t));
    const double theta = std::acos(cos_t);
    const double sin_t = std::max(1e-8, std::sqrt(1.0 - cos_t * cos_t));
    const double dv = bond.k * (theta - bond.theta0);
    // F_a = (dV/dθ / sinθ) ∇_a cosθ ; ∇_a cosθ = (d2/r2 − cosθ d1/r1)/r1.
    const double coef = dv / sin_t;
    const Vec3 fa = (d2 / r2 - d1 * (cos_t / r1)) * (coef / r1);
    const Vec3 fc = (d1 / r1 - d2 * (cos_t / r2)) * (coef / r2);
    buf.force(worker, bond.a) += fa;
    buf.force(worker, bond.c) += fc;
    buf.force(worker, bond.b) -= fa + fc;
    buf.add_pe(worker, 0.5 * bond.k * (theta - bond.theta0) * (theta - bond.theta0));
    mem.write_private_force(worker, bond.a);
    mem.write_private_force(worker, bond.b);
    mem.write_private_force(worker, bond.c);
    mem.temps(costs.temps_angular_bond);
    mem.compute(costs.angular_bond);
  }
}

template <typename Mem>
void torsion_bond_chunk(const MolecularSystem& sys, const CostTable& costs, ForceBuffers& buf,
                        int worker, int bbegin, int bend, Mem& mem) {
  const auto& pos = sys.positions();
  const auto& bonds = sys.torsion_bonds();
  for (int t = bbegin; t < bend; ++t) {
    const TorsionBond& bond = bonds[static_cast<std::size_t>(t)];
    mem.read_pos(bond.a);
    mem.read_pos(bond.b);
    mem.read_pos(bond.c);
    mem.read_pos(bond.d);
    const Vec3 b1 = pos[static_cast<std::size_t>(bond.b)] - pos[static_cast<std::size_t>(bond.a)];
    const Vec3 b2 = pos[static_cast<std::size_t>(bond.c)] - pos[static_cast<std::size_t>(bond.b)];
    const Vec3 b3 = pos[static_cast<std::size_t>(bond.d)] - pos[static_cast<std::size_t>(bond.c)];
    const Vec3 n1 = cross(b1, b2);
    const Vec3 n2 = cross(b2, b3);
    const double n1sq = n1.norm2();
    const double n2sq = n2.norm2();
    const double b2len = b2.norm();
    // The dihedral is undefined (and its force singular, ~1/|n|²) when
    // either atom triple is near-collinear; skip such geometries as real MD
    // codes do.  The threshold is relative: sin² of the bend angle ≳ 1e-3.
    if (b2len <= 1e-12 || n1sq <= 1e-3 * b1.norm2() * b2.norm2() ||
        n2sq <= 1e-3 * b2.norm2() * b3.norm2()) {
      continue;
    }
    const double phi = std::atan2(dot(cross(n1, n2), b2) / b2len, dot(n1, n2));
    const double arg = bond.n * phi - bond.phi0;
    const double dvdphi = -bond.k * bond.n * std::sin(arg);
    // ∂φ/∂r_a = −(b2len / |n1|²) n1 ;  ∂φ/∂r_d = (b2len / |n2|²) n2.
    const Vec3 fa = n1 * (dvdphi * b2len / n1sq);
    const Vec3 fd = n2 * (-dvdphi * b2len / n2sq);
    // Blondel–Karplus chain rule: ∇_bφ = (−p−1)∇_aφ + q∇_dφ with
    // p = (b1·b2)/|b2|², q = (b3·b2)/|b2|² (validated against numerical
    // gradients in forces_test).
    const double p = dot(b1, b2) / (b2len * b2len);
    const double q = dot(b3, b2) / (b2len * b2len);
    const Vec3 fb = fa * (-p - 1.0) + fd * q;
    const Vec3 fc = -(fa + fb + fd);
    buf.force(worker, bond.a) += fa;
    buf.force(worker, bond.b) += fb;
    buf.force(worker, bond.c) += fc;
    buf.force(worker, bond.d) += fd;
    buf.add_pe(worker, bond.k * (1.0 + std::cos(arg)));
    mem.write_private_force(worker, bond.a);
    mem.write_private_force(worker, bond.b);
    mem.write_private_force(worker, bond.c);
    mem.write_private_force(worker, bond.d);
    mem.temps(costs.temps_torsion_bond);
    mem.compute(costs.torsion_bond);
  }
}

// ---------------------------------------------------------------------------
// Phase 5: reduction across the privatized force arrays; the summed force
// becomes the new acceleration (and each private copy is zeroed for the next
// step).
//
// The dense variant is the paper's O(n_atoms x n_slots) sweep.  The sparse
// variant consults the per-slot touched-block marks and sums only slots that
// actually scattered into the block containing atom i: a skipped entry is
// exactly +0.0 (never written since the last reduction), and x + (+0.0) is a
// bitwise no-op for every value the accumulator can hold here, so both
// variants produce bit-identical accelerations.
// ---------------------------------------------------------------------------
template <typename Mem>
void reduce_chunk_dense(MolecularSystem& sys, const CostTable& costs, ForceBuffers& buf,
                        int begin, int end, Mem& mem) {
  auto& acc = sys.accelerations();
  const int workers = buf.n_workers();
  for (int i = begin; i < end; ++i) {
    Vec3 total{};
    for (int w = 0; w < workers; ++w) {
      mem.read_private_force(w, i);
      total += buf.force_raw(w, i);
      buf.force_raw(w, i) = Vec3{};
      mem.write_private_force(w, i);
    }
    acc[static_cast<std::size_t>(i)] = total * sys.inv_mass(i);
    mem.write_acc(i);
    mem.compute(costs.reduce_atom_per_worker * workers);
  }
}

template <typename Mem>
void reduce_chunk_sparse(MolecularSystem& sys, const CostTable& costs, ForceBuffers& buf,
                         int begin, int end, Mem& mem) {
  auto& acc = sys.accelerations();
  const int workers = buf.n_workers();
  // Touched-slot lists are per block, not per atom: one bitmap scan covers
  // kBlockAtoms atoms.  Slot counts beyond the list capacity fall back to
  // the dense sweep (the engine never exceeds it; direct kernel users might).
  constexpr int kMaxSlots = 256;
  if (workers > kMaxSlots) {
    reduce_chunk_dense(sys, costs, buf, begin, end, mem);
    return;
  }
  int touched[kMaxSlots];
  int i = begin;
  while (i < end) {
    const int block = i >> ForceBuffers::kBlockShift;
    const int block_end = std::min(end, (block + 1) << ForceBuffers::kBlockShift);
    int n_touched = 0;
    for (int w = 0; w < workers; ++w) {
      if (buf.block_touched(w, block)) touched[n_touched++] = w;
    }
    for (; i < block_end; ++i) {
      Vec3 total{};
      for (int k = 0; k < n_touched; ++k) {
        const int w = touched[k];
        mem.read_private_force(w, i);
        total += buf.force_raw(w, i);
        buf.force_raw(w, i) = Vec3{};
        mem.write_private_force(w, i);
      }
      acc[static_cast<std::size_t>(i)] = total * sys.inv_mass(i);
      mem.write_acc(i);
      mem.compute(costs.reduce_atom_per_worker * n_touched);
    }
  }
}

template <typename Mem>
void reduce_chunk(MolecularSystem& sys, const CostTable& costs, ForceBuffers& buf, int begin,
                  int end, Mem& mem, bool sparse = false) {
  if (sparse) {
    reduce_chunk_sparse(sys, costs, buf, begin, end, mem);
  } else {
    reduce_chunk_dense(sys, costs, buf, begin, end, mem);
  }
}

// ---------------------------------------------------------------------------
// Phase 6: corrector — the second half velocity kick with the new
// accelerations; tallies kinetic energy for the observables.
// ---------------------------------------------------------------------------
template <typename Mem>
void corrector_chunk(MolecularSystem& sys, double dt, const CostTable& costs, ForceBuffers& buf,
                     int worker, int begin, int end, Mem& mem) {
  auto& vel = sys.velocities();
  const auto& acc = sys.accelerations();
  for (int i = begin; i < end; ++i) {
    mem.read_meta(i);
    if (!sys.movable(i)) continue;
    mem.read_vel(i);
    mem.read_acc(i);
    Vec3& v = vel[static_cast<std::size_t>(i)];
    v += acc[static_cast<std::size_t>(i)] * (0.5 * dt);
    buf.add_ke(worker, 0.5 * sys.mass(i) * v.norm2());
    mem.write_vel(i);
    mem.temps(costs.temps_corrector_atom);
    mem.compute(costs.corrector_atom);
  }
}

}  // namespace mwx::md
