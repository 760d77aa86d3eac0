// Remaining MD-substrate coverage: LJ parameter tables, force buffers (and
// which of their pages are resident), engine idempotence and
// stride-decomposition coverage properties.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "common/units.hpp"
#include "md/engine.hpp"
#include "md/force_buffers.hpp"
#include "md/lj_table.hpp"
#include "workloads/workloads.hpp"

namespace mwx::md {
namespace {

TEST(LjTableTest, ParametersAndShift) {
  AtomTypeTable types;
  types.add({"A", 1.0, units::ev(0.01), 3.0});
  types.add({"B", 1.0, units::ev(0.04), 4.0});
  MolecularSystem sys(types, {{0, 0, 0}, {10, 10, 10}});
  const double cutoff = 9.0;
  LjTable table(sys, cutoff);
  EXPECT_DOUBLE_EQ(table.cutoff2(), 81.0);
  EXPECT_NEAR(table.epsilon(0, 1), units::ev(0.02), 1e-15);  // sqrt mixing
  EXPECT_DOUBLE_EQ(table.sigma2(0, 1), 3.5 * 3.5);
  // The shift equals V(rc): adding it back makes the potential zero at rc.
  const double sr2 = 3.5 * 3.5 / 81.0;
  const double sr6 = sr2 * sr2 * sr2;
  EXPECT_NEAR(table.shift(0, 1), 4.0 * units::ev(0.02) * (sr6 * sr6 - sr6), 1e-18);
  // Symmetry.
  EXPECT_DOUBLE_EQ(table.epsilon(0, 1), table.epsilon(1, 0));
  EXPECT_DOUBLE_EQ(table.shift(0, 1), table.shift(1, 0));
}

TEST(ForceBuffersTest, AccumulateDrainZero) {
  ForceBuffers buf(3, 5);
  EXPECT_EQ(buf.n_workers(), 3);
  EXPECT_EQ(buf.n_atoms(), 5);
  buf.force(0, 2) += Vec3{1, 0, 0};
  buf.force(2, 2) += Vec3{0, 2, 0};
  buf.add_pe(0, 1.5);
  buf.add_pe(1, 2.5);
  buf.add_ke(2, 4.0);
  EXPECT_DOUBLE_EQ(buf.drain_pe(), 4.0);
  EXPECT_DOUBLE_EQ(buf.drain_pe(), 0.0);  // drained
  EXPECT_DOUBLE_EQ(buf.drain_ke(), 4.0);
  buf.zero_forces();
  EXPECT_EQ(buf.force(0, 2), Vec3(0, 0, 0));
  EXPECT_EQ(buf.force(2, 2), Vec3(0, 0, 0));
}

TEST(ForceBuffersTest, Validation) {
  EXPECT_THROW(ForceBuffers(0, 5), ContractError);
  EXPECT_THROW(ForceBuffers(2, 0), ContractError);
  // Checked before anything is sized from them.
  EXPECT_THROW(ForceBuffers(-1, 5), ContractError);
  EXPECT_THROW(ForceBuffers(2, -1), ContractError);
}

// --- ForceBuffersResidency -------------------------------------------------
// The slots are one calloc block that only the kernels' scatters write, so
// the pages of a slot nobody wrote must not be resident.

bool all_bits_zero(const Vec3& v) {
  constexpr unsigned char kZero[sizeof(Vec3)] = {};
  return std::memcmp(&v, kZero, sizeof(Vec3)) == 0;
}

// Resident pages among those lying wholly inside [begin, end).
long resident_pages(const Vec3* begin, const Vec3* end) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const std::uintptr_t lo = (reinterpret_cast<std::uintptr_t>(begin) + page - 1) / page * page;
  const std::uintptr_t hi = reinterpret_cast<std::uintptr_t>(end) / page * page;
  if (hi <= lo) return 0;
  std::vector<unsigned char> pages((hi - lo) / page);
  if (mincore(reinterpret_cast<void*>(lo), hi - lo, pages.data()) != 0) {
    ADD_FAILURE() << "mincore failed: " << std::strerror(errno);
    return -1;
  }
  long resident = 0;
  for (const unsigned char p : pages) resident += p & 1;
  return resident;
}

// 4 slots x 512k atoms x 24 B = 48 MB: past glibc's 32 MB mmap ceiling, so
// the block is always a mapping of its own, never recycled heap.
constexpr int kBigSlots = 4;
constexpr int kBigAtoms = 512 * 1024;

TEST(ForceBuffersResidency, OnlyWrittenPagesAreResident) {
#if !defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "residency is asserted for glibc's and ASan's allocators only: both map "
                  "a block this large fresh, other allocators may hand out touched memory";
#endif
  ForceBuffers buf(kBigSlots, kBigAtoms);
  const auto resident = [&](int w) {
    const Vec3* slot = &buf.force_raw(w, 0);
    return resident_pages(slot, slot + kBigAtoms);
  };
  for (int w = 0; w < kBigSlots; ++w) EXPECT_EQ(resident(w), 0) << "slot " << w;
  buf.force(1, kBigAtoms / 2) += Vec3{1, 2, 3};
  EXPECT_EQ(resident(0), 0);
  EXPECT_GE(resident(1), 1);
  EXPECT_LE(resident(1), 512);  // one page, or one 2 MB transparent huge page
  EXPECT_EQ(resident(2), 0);
  EXPECT_EQ(resident(3), 0);
}

TEST(ForceBuffersResidency, FreshBlockReadsPositiveZero) {
  ForceBuffers buf(kBigSlots, kBigAtoms);
  long nonzero = 0;
  for (int w = 0; w < kBigSlots; ++w)
    for (int i = 0; i < kBigAtoms; ++i) nonzero += all_bits_zero(buf.force_raw(w, i)) ? 0 : 1;
  EXPECT_EQ(nonzero, 0);
}

TEST(ForceBuffersResidency, ReusedHeapMemoryReadsPositiveZero) {
  // A small block comes from the heap, where a freed predecessor of the same
  // size left non-zero bits (-0.0 included) for the next one to inherit.
  for (int round = 0; round < 3; ++round) {
    ForceBuffers buf(3, 300);
    for (int w = 0; w < 3; ++w)
      for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(all_bits_zero(buf.force_raw(w, i)))
            << "round " << round << " slot " << w << " atom " << i;
        buf.force(w, i) = Vec3{-0.0, -1.0, 1e300};
      }
  }
}

TEST(EngineMiscTest, ComputeForcesOnlyIsIdempotent) {
  auto sys = workloads::make_lj_gas(80, 0.012, 150.0, 4);
  EngineConfig cfg;
  cfg.n_threads = 2;
  cfg.temporaries = TemporariesMode::InPlace;
  Engine eng(std::move(sys), cfg);
  eng.compute_forces_only();
  const double pe1 = eng.potential_energy();
  const auto acc1 = eng.system().accelerations();
  eng.compute_forces_only();
  EXPECT_EQ(eng.potential_energy(), pe1);
  for (int i = 0; i < eng.system().n_atoms(); ++i) {
    EXPECT_EQ(eng.system().accelerations()[static_cast<std::size_t>(i)],
              acc1[static_cast<std::size_t>(i)]);
  }
}

TEST(EngineMiscTest, StepsAndRebuildCountersAdvance) {
  auto sys = workloads::make_lj_gas(60, 0.012, 250.0, 4);
  EngineConfig cfg;
  cfg.n_threads = 1;
  cfg.temporaries = TemporariesMode::InPlace;
  Engine eng(std::move(sys), cfg);
  EXPECT_EQ(eng.steps_done(), 0);
  eng.run_inline(5);
  EXPECT_EQ(eng.steps_done(), 5);
  EXPECT_GE(eng.rebuild_count(), 1);
}

// Cyclic (strided) decomposition property: across any thread/chunk split,
// every movable atom receives exactly the same total force as the serial
// reference — i.e. the strided chunks tile the triangular domains exactly.
class StrideCoverage : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(StrideCoverage, ForcesIndependentOfDecomposition) {
  const auto [threads, chunks] = GetParam();
  auto make = [&](int t, int c) {
    auto sys = workloads::make_salt(5);  // exercises LJ + Coulomb together
    EngineConfig cfg;
    cfg.n_threads = t;
    cfg.chunks_per_thread = c;
    cfg.cutoff = 7.0;
    cfg.skin = 0.9;
    cfg.temporaries = TemporariesMode::InPlace;
    return Engine(std::move(sys.system), cfg);
  };
  Engine reference = make(1, 1);
  reference.compute_forces_only();
  Engine split = make(threads, chunks);
  split.compute_forces_only();
  EXPECT_NEAR(units::to_ev(reference.potential_energy()),
              units::to_ev(split.potential_energy()), 1e-9);
  for (int i = 0; i < reference.system().n_atoms(); ++i) {
    const Vec3 d = reference.system().accelerations()[static_cast<std::size_t>(i)] -
                   split.system().accelerations()[static_cast<std::size_t>(i)];
    EXPECT_LT(d.norm(), 1e-12) << "atom " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Decompositions, StrideCoverage,
                         ::testing::Values(std::pair{2, 1}, std::pair{3, 1},
                                           std::pair{4, 2}, std::pair{7, 3},
                                           std::pair{16, 1}));

}  // namespace
}  // namespace mwx::md
