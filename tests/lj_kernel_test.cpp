// Differential test of the native LJ kernel (fused_neighbors_lj_chunk with
// NullMem: the AVX2 block kernel where compiled in) against the scalar
// per-pair loop (lj_row_scalar), bitwise on every force-buffer entry and on
// pe.  Covers multi-type tables, fixed atoms and exclusions, strided
// chunks, a Morton-ordered droplet, rows of every length mod 4, and the
// scalar loop's skip semantics (eps == 0, coincident atoms, beyond cutoff,
// exactly at cutoff, NaN positions), with the row filled in the same call
// (rebuild, copied from the count pass's stash) and read from an existing
// list.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "md/cell_grid.hpp"
#include "md/kernels.hpp"
#include "md/morton.hpp"
#include "workloads/workloads.hpp"

namespace mwx::md {
namespace {

constexpr int kSlots = 2;
constexpr int kWorker = 1;  // the unused slot 0 must stay untouched

bool bits_eq(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

struct LjResult {
  std::vector<Vec3> forces;  // slot kWorker
  double pe = 0.0;
};

LjResult drain(ForceBuffers& buf, int n_atoms) {
  LjResult r;
  for (int i = 0; i < n_atoms; ++i) {
    r.forces.push_back(buf.force_raw(kWorker, i));
    const Vec3& other = buf.force_raw(0, i);
    EXPECT_TRUE(bits_eq(other.x, 0.0) && bits_eq(other.y, 0.0) && bits_eq(other.z, 0.0))
        << "slot 0 written at atom " << i;
  }
  r.pe = buf.drain_pe();
  return r;
}

void expect_bitwise(const LjResult& got, const LjResult& want, const char* what) {
  EXPECT_TRUE(bits_eq(got.pe, want.pe)) << what << ": pe " << got.pe << " vs " << want.pe;
  ASSERT_EQ(got.forces.size(), want.forces.size());
  for (std::size_t i = 0; i < got.forces.size(); ++i) {
    const Vec3& a = got.forces[i];
    const Vec3& b = want.forces[i];
    ASSERT_TRUE(bits_eq(a.x, b.x) && bits_eq(a.y, b.y) && bits_eq(a.z, b.z))
        << what << ": atom " << i << " (" << a.x << ", " << a.y << ", " << a.z << ") vs ("
        << b.x << ", " << b.y << ", " << b.z << ")";
  }
}

// Rows in the order strided chunks o = 0 .. stride-1 walk them.
LjResult scalar_reference(const MolecularSystem& sys, const NeighborList& nlist,
                          const LjTable& lj, int stride) {
  const CostTable costs;
  ForceBuffers buf(kSlots, sys.n_atoms());
  NullMem mem;
  for (int o = 0; o < stride; ++o) {
    for (int i = o; i < sys.n_atoms(); i += stride) {
      lj_row_scalar(sys, nlist, lj, costs, buf, kWorker, i, mem);
    }
  }
  return drain(buf, sys.n_atoms());
}

// With `rebuild`, chunk o fills its rows from stashes[o], the rows the count
// chunk o kept; without, it reads the finished list.
LjResult native_chunks(const MolecularSystem& sys, const CellGrid& grid, NeighborList& nlist,
                       const LjTable& lj, bool rebuild, int stride,
                       const std::vector<PageVec<int>>& stashes) {
  const CostTable costs;
  ForceBuffers buf(kSlots, sys.n_atoms());
  NullMem mem;
  for (int o = 0; o < stride; ++o) {
    fused_neighbors_lj_chunk(sys, grid, nlist, lj, costs, rebuild,
                             stashes[static_cast<std::size_t>(o)], buf, kWorker, o,
                             sys.n_atoms(), stride, mem);
  }
  return drain(buf, sys.n_atoms());
}

// Full pipeline on a real system: count, prefix, then the native kernel
// filling each row in the same call (rebuild) and re-reading the finished
// list (no rebuild), both against the scalar loop over that list.
void expect_native_matches_scalar(const MolecularSystem& sys, double cutoff, double skin,
                                  int stride) {
  const LjTable lj(sys, cutoff);
  NeighborList nlist(sys.n_atoms(), cutoff, skin);
  CellGrid grid(sys.box().lo, sys.box().hi, nlist.reach());
  grid.bin(sys.positions());
  nlist.begin_rebuild(sys.positions());
  const CostTable costs;
  NullMem mem;
  std::vector<PageVec<int>> stashes(static_cast<std::size_t>(stride));
  for (int o = 0; o < stride; ++o) {
    neighbor_count_chunk(sys, grid, nlist, costs, o, sys.n_atoms(), stride,
                         stashes[static_cast<std::size_t>(o)], mem);
  }
  nlist.finalize_offsets();
  ASSERT_GT(nlist.total_entries(), 0u);

  const LjResult filled = native_chunks(sys, grid, nlist, lj, /*rebuild=*/true, stride, stashes);
  nlist.end_rebuild();
  const LjResult reused = native_chunks(sys, grid, nlist, lj, /*rebuild=*/false, stride, stashes);
  const LjResult ref = scalar_reference(sys, nlist, lj, stride);
  expect_bitwise(filled, ref, "rebuild");
  expect_bitwise(reused, ref, "no rebuild");
}

TEST(LjKernel, SaltTwoTypes) {
  const workloads::BenchmarkSpec spec = workloads::make_salt();
  ASSERT_EQ(spec.system.types().n(), 2);
  expect_native_matches_scalar(spec.system, spec.engine.cutoff, spec.engine.skin, 1);
}

TEST(LjKernel, NanocarFixedAtomsAndExclusions) {
  const workloads::BenchmarkSpec spec = workloads::make_nanocar();
  expect_native_matches_scalar(spec.system, spec.engine.cutoff, spec.engine.skin, 1);
}

TEST(LjKernel, Al1000Stride4) {
  const workloads::BenchmarkSpec spec = workloads::make_al1000();
  expect_native_matches_scalar(spec.system, spec.engine.cutoff, spec.engine.skin, 4);
}

TEST(LjKernel, MortonOrderedDroplet10k) {
  MolecularSystem sys = workloads::make_droplet(10000, 110.0, 1);
  const EngineConfig cfg;
  sys.permute(morton_order(sys.positions(), sys.box().lo, sys.box().hi, cfg.cutoff + cfg.skin));
  expect_native_matches_scalar(sys, cfg.cutoff, cfg.skin, 1);
}

// Hand-built rows over a small box: row i holds i % 10 entries (every tail
// length mod 4, and empty rows), partners spread so rows mix accepted pairs
// with pairs beyond the cutoff.  Planted cases: row 0 pairs atom 0 with
// atom 1, which coincides with it (r2 == 0), atom 2, exactly at the cutoff
// (r2 == c2, kept), and atom 5, whose NaN coordinate keeps the pair and
// poisons both forces, as in the scalar loop.  With `multi_type` every third
// atom has an eps == 0 type; atom 8 then owns a NaN position but only such
// partners (and appears in no other row), so every pair of its row —
// including the dead lanes of its short last block — must be rejected.
void expect_crafted_matches(bool multi_type) {
  constexpr double kCutoff = 8.0;
  AtomTypeTable types;
  const int ka = types.add({"A", 26.98, 0.0104, 2.62});
  int kb = ka, kz = ka;
  if (multi_type) {
    kb = types.add({"B", 39.95, 0.0103, 3.40});
    kz = types.add({"Z", 4.00, 0.0, 2.50});
  }
  const Box box{{0, 0, 0}, {40, 40, 40}};
  MolecularSystem sys(types, box);
  constexpr int kAtoms = 41;
  constexpr int kNanPartner = 5, kNanOwner = 8;
  sys.add_atom(ka, {10.0, 10.0, 10.0});
  sys.add_atom(kb, {10.0, 10.0, 10.0});           // coincident with atom 0
  sys.add_atom(ka, {10.0 + kCutoff, 10.0, 10.0});  // exactly at the cutoff
  for (int i = 3; i < kAtoms; ++i) {
    const int t = i % 3 == 0 ? kz : (i % 3 == 1 ? ka : kb);
    sys.add_atom(t, {10.0 + std::fmod(2.3 * i, 14.0), 10.0 + std::fmod(1.7 * i, 11.0),
                     10.0 + std::fmod(3.1 * i, 9.0)});
  }
  sys.positions()[kNanPartner].y = std::numeric_limits<double>::quiet_NaN();
  sys.positions()[kNanOwner].z = std::numeric_limits<double>::quiet_NaN();

  std::vector<std::vector<int>> rows(kAtoms);
  rows[0] = {1, 2, kNanPartner, 3, 4, 6, 7};
  rows[kNanOwner] = {3, 6, 9, 12, 15};  // type Z when multi_type
  for (int i = 1; i < kAtoms; ++i) {
    if (i == kNanOwner) continue;
    for (int m = 0; m < i % 10; ++m) {
      int j = (i + 1 + 4 * m) % kAtoms;
      while (j == i || j == kNanOwner) j = (j + 1) % kAtoms;
      rows[static_cast<std::size_t>(i)].push_back(j);
    }
  }
  NeighborList nlist(kAtoms, kCutoff, 0.5);
  nlist.begin_rebuild(sys.positions());
  for (int i = 0; i < kAtoms; ++i) {
    nlist.set_count(i, static_cast<int>(rows[static_cast<std::size_t>(i)].size()));
  }
  nlist.finalize_offsets();
  for (int i = 0; i < kAtoms; ++i) {
    for (const int j : rows[static_cast<std::size_t>(i)]) nlist.add_neighbor(i, j);
  }
  nlist.end_rebuild();

  const LjTable lj(sys, kCutoff);
  const CellGrid grid(box.lo, box.hi, nlist.reach());
  const LjResult got = native_chunks(sys, grid, nlist, lj, /*rebuild=*/false, 1,
                                     std::vector<PageVec<int>>(1));
  const LjResult ref = scalar_reference(sys, nlist, lj, 1);
  expect_bitwise(got, ref, multi_type ? "crafted, 3 types" : "crafted, 1 type");

  // The planted cases did what they were planted for.
  EXPECT_TRUE(std::isnan(ref.pe));
  EXPECT_TRUE(std::isnan(ref.forces[kNanPartner].x));
  EXPECT_TRUE(std::isfinite(ref.forces[2].x) && ref.forces[2].x != 0.0);
  if (multi_type) {
    const Vec3& f = ref.forces[kNanOwner];
    EXPECT_TRUE(bits_eq(f.x, 0.0) && bits_eq(f.y, 0.0) && bits_eq(f.z, 0.0));
  }
}

TEST(LjKernel, CraftedRowsMultiType) { expect_crafted_matches(true); }

TEST(LjKernel, CraftedRowsSingleType) { expect_crafted_matches(false); }

}  // namespace
}  // namespace mwx::md
