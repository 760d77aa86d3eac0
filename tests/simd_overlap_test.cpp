// Tier-2 raw-speed guarantees: every speed path is value-preserving.
//
//  * PME spread/interpolate lane loops — energy bits and a hash of the force
//    bits pinned across spline orders, tail atom counts, and mostly-empty
//    grids (recorded while the recursive scalar path still ran beside them
//    and matched them bit for bit);
//  * the native Coulomb kernel vs the scalar pair loop — bitwise, including
//    non-multiple-of-kCoulombTile tails and the coincident-charge skip;
//  * the overlapped rebuild schedule — native runs bitwise equal to the
//    inline reference across worker counts and queue disciplines
//    (accumulation-slot serial chains);
//  * density-derived neighbor capacity — covers the measured max CSR row on
//    both a sparse gas and a dense bulk crystal, and the heap-model regions
//    sized from it do not alias;
//  * HeapModel's NUMA directory — region-correct homes, tiling, and the
//    single-home (master-init) mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "md/engine.hpp"
#include "md/ewald/pme.hpp"
#include "md/kernels.hpp"
#include "md/layout.hpp"
#include "md/mem_model.hpp"
#include "parallel/thread_pool.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace mwx;

bool bits_eq(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool bits_eq(const Vec3& a, const Vec3& b) {
  return bits_eq(a.x, b.x) && bits_eq(a.y, b.y) && bits_eq(a.z, b.z);
}

// --- PME ---------------------------------------------------------------------

// Deterministic scattered positions (no RNG: failures must be reproducible
// from the test source alone).
std::vector<Vec3> scatter_positions(int n, const Vec3& box, double scale = 1.0) {
  std::vector<Vec3> pos;
  pos.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pos.push_back({std::fmod(3.7 * i + 1.3, box.x * scale),
                   std::fmod(5.1 * i + 0.7, box.y * scale),
                   std::fmod(2.9 * i + 2.1, box.z * scale)});
  }
  return pos;
}

std::vector<double> alternating_charges(int n) {
  std::vector<double> q(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) q[static_cast<std::size_t>(i)] = i % 2 == 0 ? 1.0 : -1.0;
  return q;
}

// FNV-1a over the forces' IEEE bits, x/y/z per atom in order.
std::uint64_t force_bits_hash(const std::vector<Vec3>& forces) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Vec3& f : forces) {
    for (double d : {f.x, f.y, f.z}) {
      unsigned char bytes[sizeof(double)];
      std::memcpy(bytes, &d, sizeof(double));
      for (unsigned char b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

struct PmePin {
  int n;
  int spline_order;
  std::uint64_t energy_bits;
  std::uint64_t force_hash;
};

// Energy bits and force-bit hashes of PmeSolver::compute on a 20 Å box
// (alpha 0.35, r_cutoff 6, grid 16).  n = 17 is the clustered case.
constexpr PmePin kPmePins[] = {
    {0, 3, 0x0000000000000000ull, 0xcbf29ce484222325ull},
    {0, 4, 0x0000000000000000ull, 0xcbf29ce484222325ull},
    {0, 5, 0x0000000000000000ull, 0xcbf29ce484222325ull},
    {0, 6, 0x0000000000000000ull, 0xcbf29ce484222325ull},
    {1, 3, 0xbf840616d998cb62ull, 0x6fa824da7e4a9501ull},
    {1, 4, 0xbf843ec867935f2cull, 0x3b6a31afb6e07efcull},
    {1, 5, 0xbf842bed15bf42f0ull, 0x5df33ed01d950735ull},
    {1, 6, 0xbf842fec1932e7b2ull, 0x4cb12cc3d809bd8eull},
    {5, 3, 0xbfb050c06ff04cf3ull, 0x94b85256c13b8b8cull},
    {5, 4, 0xbfb068d1b45199f4ull, 0xc5e169df2701e3efull},
    {5, 5, 0xbfb060e525acafb5ull, 0x35fa4c9a3a6b3fa1ull},
    {5, 6, 0xbfb0627deaae2e5dull, 0x217aa6e1bd6770acull},
    {17, 3, 0xbfe1bfbe5d10ca1full, 0xc2dcccc1a01e70b9ull},
    {17, 4, 0xbfe1bfcacbbe18e8ull, 0x214cd780302f5f7cull},
    {17, 5, 0xbfe1bee0931b8738ull, 0x24647cd336b37d38ull},
    {17, 6, 0xbfe1bf09d33b805cull, 0x44afe3ada8b55114ull},
    {33, 3, 0xbfe2bbf0b0bf2f38ull, 0xb2ac0279737db1a6ull},
    {33, 4, 0xbfe2d6dd93f126e4ull, 0x258fd5a89f7cfa3full},
    {33, 5, 0xbfe2cdcd84447b61ull, 0xb6a60fde6ff91e4aull},
    {33, 6, 0xbfe2cf9f77237792ull, 0xd619e38d7b6257c7ull},
    {64, 3, 0xbffab13ae80c69f4ull, 0x8a02606802e4d362ull},
    {64, 4, 0xbffac7d52ac885c5ull, 0x80ff1ed268bd93bcull},
    {64, 5, 0xbffac0039ba7e65eull, 0xf1601a720072f897ull},
    {64, 6, 0xbffac1ced73df200ull, 0xb84003c2fbfbd5f6ull},
};

void expect_pme_pinned(int n) {
  const Vec3 box{20.0, 20.0, 20.0};
  const std::vector<Vec3> pos = scatter_positions(n, box, n == 17 ? 0.15 : 1.0);
  const std::vector<double> q = alternating_charges(n);
  int checked = 0;
  for (const PmePin& pin : kPmePins) {
    if (pin.n != n) continue;
    md::ewald::EwaldParams params;
    params.alpha = 0.35;
    params.r_cutoff = 6.0;
    params.grid = 16;
    params.spline_order = pin.spline_order;
    const md::ewald::EwaldResult r = md::ewald::PmeSolver(box, params).compute(pos, q);
    std::uint64_t energy_bits = 0;
    std::memcpy(&energy_bits, &r.energy, sizeof(double));
    EXPECT_EQ(energy_bits, pin.energy_bits)
        << "order " << pin.spline_order << " n " << n << ": energy " << r.energy;
    EXPECT_EQ(force_bits_hash(r.forces), pin.force_hash)
        << "order " << pin.spline_order << " n " << n;
    ++checked;
  }
  EXPECT_EQ(checked, 4) << "spline orders 3-6 for n " << n;
}

TEST(PmeVectorized, BitIdenticalAcrossOrdersAndTails) {
  // 1, 5, 33: tails shorter than, equal to, and longer than any lane width;
  // 64: whole tiles only.
  for (int n : {1, 5, 33, 64}) expect_pme_pinned(n);
}

TEST(PmeVectorized, BitIdenticalOnMostlyEmptyGrid) {
  // All atoms clustered in one corner octant: most grid cells carry zero
  // charge, and several atoms sit within a spline support of the wrap seam.
  expect_pme_pinned(17);
}

TEST(PmeVectorized, BitIdenticalWithNoAtoms) { expect_pme_pinned(0); }

// --- Coulomb kernel ----------------------------------------------------------

// Runs the whole charged list into one slot — through coulomb_chunk (the
// native kernel where the build has AVX2) or row by row through the scalar
// pair loop — and returns (forces, pe).
std::pair<std::vector<Vec3>, double> coulomb_all(const md::MolecularSystem& sys,
                                                 bool scalar) {
  md::CostTable costs;
  md::ForceBuffers buf(1, sys.n_atoms());
  md::NullMem mem;
  md::PackedCharges packed;
  packed.pack(sys);
  if (scalar) {
    for (int ci = 0; ci < sys.n_charged(); ++ci) {
      md::coulomb_row_scalar(sys, costs, buf, 0, ci, mem);
    }
  } else {
    md::coulomb_chunk(sys, costs, packed, buf, 0, 0, sys.n_charged(), 1, mem);
  }
  std::vector<Vec3> forces(static_cast<std::size_t>(sys.n_atoms()));
  for (int i = 0; i < sys.n_atoms(); ++i) {
    forces[static_cast<std::size_t>(i)] = buf.force_raw(0, i);
  }
  return {forces, buf.drain_pe()};
}

void expect_coulomb_bitwise(const md::MolecularSystem& sys) {
  const auto [fs, pes] = coulomb_all(sys, /*scalar=*/true);
  const auto [fn, pen] = coulomb_all(sys, /*scalar=*/false);
  EXPECT_TRUE(bits_eq(pes, pen)) << pes << " vs " << pen;
  for (int i = 0; i < sys.n_atoms(); ++i) {
    ASSERT_TRUE(bits_eq(fs[static_cast<std::size_t>(i)], fn[static_cast<std::size_t>(i)]))
        << "atom " << i;
  }
}

TEST(CoulombTiled, BitIdenticalWithPartialTail) {
  // 37 atoms, all charged -> 36 charges (net-neutral rounding): rows end in
  // every tail length mod kCoulombTile as the triangle shrinks.
  expect_coulomb_bitwise(workloads::make_lj_coulomb_gas(37, 0.002, 300.0, 1.0, 99));
}

TEST(CoulombTiled, BitIdenticalWithCoincidentCharges) {
  md::AtomTypeTable types;
  const int kX = types.add({"X", 20.0, 0.0, 3.0});
  md::Box box{{0, 0, 0}, {30, 30, 30}};
  md::MolecularSystem sys(types, box);
  // Two exactly coincident charges (the r2 <= 0 skip) among a dozen others.
  sys.add_atom(kX, {5.0, 5.0, 5.0}, {}, +1.0);
  sys.add_atom(kX, {5.0, 5.0, 5.0}, {}, -1.0);
  for (int i = 0; i < 12; ++i) {
    sys.add_atom(kX, {8.0 + 1.3 * i, 9.0 + 0.7 * i, 10.0 + 0.4 * i}, {},
                 i % 2 == 0 ? +1.0 : -1.0);
  }
  expect_coulomb_bitwise(sys);
}

TEST(CoulombTiled, BitIdenticalWithCoincidentChargeAfterFullBlock) {
  md::AtomTypeTable types;
  const int kX = types.add({"X", 20.0, 0.0, 3.0});
  md::Box box{{0, 0, 0}, {40, 40, 40}};
  md::MolecularSystem sys(types, box);
  // Charge 10 sits exactly on charge 0: row 0 commits its first full block
  // of kCoulombTile pairs, then meets the coincident pair in the second
  // block and finishes on the scalar loop.
  for (int i = 0; i < 20; ++i) {
    const int k = i == 10 ? 0 : i;
    sys.add_atom(kX, {5.0 + 1.3 * k, 6.0 + 0.7 * k, 7.0 + 0.4 * k}, {},
                 i % 2 == 0 ? +1.0 : -1.0);
  }
  expect_coulomb_bitwise(sys);
}

// --- Overlapped rebuild schedule --------------------------------------------

md::EngineConfig overlap_config(int threads, sim::Assignment assignment) {
  md::EngineConfig cfg;
  cfg.n_threads = threads;
  cfg.chunks_per_thread = assignment == sim::Assignment::Static ? 1 : 2;
  cfg.assignment = assignment;
  cfg.dt_fs = 4.0;
  cfg.cutoff = 6.0;
  cfg.skin = 0.5;
  return cfg;
}

md::MolecularSystem overlap_workload() {
  // Shuffled gas, half LJ-only and a charged subset: the overlap phase must
  // interleave Coulomb chunks with neighbor counting.  Hot enough (with the
  // 4 fs step above) that the skin/2 displacement bound trips every few
  // steps, so the run re-enters the overlap phase repeatedly.
  return workloads::make_lj_coulomb_gas(256, 0.004, 3000.0, 0.25, 7);
}

double run_native_energy(const md::EngineConfig& cfg, int steps, long long* rebuilds) {
  md::Engine engine(overlap_workload(), cfg);
  parallel::ThreadPoolConfig pc;
  pc.n_threads = cfg.n_threads;
  pc.queue_mode = cfg.assignment == sim::Assignment::SharedQueue
                      ? parallel::QueueMode::Single
                      : (cfg.assignment == sim::Assignment::WorkStealing
                             ? parallel::QueueMode::WorkStealing
                             : parallel::QueueMode::PerThread);
  parallel::FixedThreadPool pool(pc);
  engine.run_native(pool, steps);
  pool.shutdown();
  if (rebuilds != nullptr) *rebuilds = engine.rebuild_count();
  return engine.total_energy();
}

TEST(OverlapRebuild, BitIdenticalAcrossWorkersAndDisciplines) {
  const int steps = 25;
  for (sim::Assignment assignment :
       {sim::Assignment::Static, sim::Assignment::SharedQueue,
        sim::Assignment::WorkStealing}) {
    for (int threads : {1, 2, 4, 8}) {
      const md::EngineConfig cfg = overlap_config(threads, assignment);
      long long rebuilds = 0;
      const double overlapped = run_native_energy(cfg, steps, &rebuilds);
      // A deterministic repeat, and the inline reference of the same config.
      const double overlapped2 = run_native_energy(cfg, steps, nullptr);
      md::Engine inline_engine(overlap_workload(), cfg);
      inline_engine.run_inline(steps);

      EXPECT_GT(rebuilds, 1) << "workload never exercised the overlap phase";
      EXPECT_TRUE(bits_eq(overlapped, overlapped2)) << "nondeterministic schedule";
      EXPECT_TRUE(bits_eq(overlapped, inline_engine.total_energy()))
          << "native diverged from inline: " << threads << " threads, assignment "
          << static_cast<int>(assignment);
    }
  }
}

// --- Density-derived neighbor capacity --------------------------------------

int max_row_count(const md::Engine& engine) {
  int mx = 0;
  for (int i = 0; i < engine.system().n_atoms(); ++i) {
    mx = std::max(mx, engine.neighbor_list().count(i));
  }
  return mx;
}

TEST(NeighborCapacity, DerivedWidthCoversSparseGas) {
  md::EngineConfig cfg;
  cfg.cutoff = 8.0;
  cfg.skin = 0.9;
  md::Engine engine(workloads::make_lj_gas(512, 0.002, 120.0, 5), cfg);
  engine.compute_forces_only();
  // Sparse gas: far fewer than the old fixed 384 slots, but still a safe
  // margin over the measured maximum row.
  EXPECT_GE(engine.neighbor_capacity(), max_row_count(engine));
  EXPECT_LT(engine.neighbor_capacity(), 384);
}

TEST(NeighborCapacity, DerivedWidthCoversDenseBulkCrystal) {
  // A bulk crystal far denser than the benchmark gases: the O(n*384)-era
  // fixed width would truncate the modelled table here.
  md::EngineConfig cfg;
  cfg.cutoff = 9.0;
  cfg.skin = 1.0;
  md::Engine engine(workloads::make_lj_gas(512, 0.12, 80.0, 5), cfg);
  engine.compute_forces_only();
  EXPECT_GT(engine.neighbor_capacity(), 384);
  EXPECT_LE(engine.neighbor_capacity(), 2048);
  EXPECT_GE(engine.neighbor_capacity(), max_row_count(engine));

  // The heap-model regions planned from the derived width must not alias:
  // the last modelled neighbor entry ends before the cell region begins.
  const auto& heap = const_cast<md::Engine&>(engine).heap();
  const std::uint64_t n_entries =
      static_cast<std::uint64_t>(engine.system().n_atoms()) *
      static_cast<std::uint64_t>(heap.neighbor_entries_per_atom());
  EXPECT_LE(heap.neighbor_entry_addr(n_entries - 1) + 4, heap.cell_entry_addr(0));
}

// --- HeapModel NUMA directory ------------------------------------------------

TEST(NumaDirectory, InactiveAndSingleHomeModes) {
  md::HeapModel heap(md::HeapConfig{}, 128, 64);
  // No directory configured: no opinion, machine falls back to the spec.
  EXPECT_EQ(heap.domain_of(heap.pos_addr(0)), -1);

  // Master-init (no first touch): everything on domain 0 — the single-home
  // pathology the spec's home_package also models.
  heap.configure_numa(4, 4, /*first_touch=*/false);
  EXPECT_EQ(heap.domain_of(heap.pos_addr(0)), 0);
  EXPECT_EQ(heap.domain_of(heap.pos_addr(127)), 0);
  EXPECT_EQ(heap.domain_of(heap.private_force_addr(3, 100)), 0);
}

TEST(NumaDirectory, FirstTouchTilesRegionsByOwner) {
  const int n_atoms = 128, n_domains = 4, n_workers = 4;
  md::HeapModel heap(md::HeapConfig{}, n_atoms, 64);
  heap.configure_numa(n_domains, n_workers, /*first_touch=*/true);

  // Per-atom data: block-mapped by atom index, each domain getting an equal
  // contiguous span.
  std::vector<int> per_domain(static_cast<std::size_t>(n_domains), 0);
  for (int i = 0; i < n_atoms; ++i) {
    const int d = heap.domain_of(heap.pos_addr(i));
    ASSERT_GE(d, 0);
    ASSERT_LT(d, n_domains);
    ++per_domain[static_cast<std::size_t>(d)];
    EXPECT_EQ(d, i * n_domains / n_atoms) << "atom " << i;
  }
  for (int d = 0; d < n_domains; ++d) {
    EXPECT_EQ(per_domain[static_cast<std::size_t>(d)], n_atoms / n_domains);
  }

  // Private force slots: homed with their owning worker.
  for (int w = 0; w < n_workers; ++w) {
    EXPECT_EQ(heap.domain_of(heap.private_force_addr(w, 0)), w * n_domains / n_workers);
    EXPECT_EQ(heap.domain_of(heap.private_force_addr(w, n_atoms - 1)),
              w * n_domains / n_workers);
  }

  // CSR neighbor store: block-mapped across the region, first entry on the
  // first domain, last entry on the last.
  const std::uint64_t last_entry =
      static_cast<std::uint64_t>(n_atoms) *
          static_cast<std::uint64_t>(heap.neighbor_entries_per_atom()) -
      1;
  EXPECT_EQ(heap.domain_of(heap.neighbor_entry_addr(0)), 0);
  EXPECT_EQ(heap.domain_of(heap.neighbor_entry_addr(last_entry)), n_domains - 1);
}

}  // namespace
