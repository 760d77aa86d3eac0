// Tests for the spatial-locality machinery: Morton keys and ordering,
// MolecularSystem permutation behind stable external IDs, heap-model address
// follow-through, scene I/O invariance, CSR build determinism, and
// trajectory invariance under the reordering pass.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "md/engine.hpp"
#include "md/force_buffers.hpp"
#include "md/layout.hpp"
#include "md/morton.hpp"
#include "md/scene_io.hpp"
#include "md/system.hpp"
#include "workloads/workloads.hpp"

namespace mwx::md {
namespace {

// --- Morton keys -------------------------------------------------------------

TEST(MortonTest, UnitStepsLandOnInterleavedBits) {
  EXPECT_EQ(morton3(0, 0, 0), 0u);
  EXPECT_EQ(morton3(1, 0, 0), 1u);  // x owns bit 0
  EXPECT_EQ(morton3(0, 1, 0), 2u);  // y owns bit 1
  EXPECT_EQ(morton3(0, 0, 1), 4u);  // z owns bit 2
  EXPECT_EQ(morton3(1, 1, 1), 7u);
  // Second bit of each axis lands three positions up.
  EXPECT_EQ(morton3(2, 0, 0), 8u);
  EXPECT_EQ(morton3(0, 2, 0), 16u);
  EXPECT_EQ(morton3(0, 0, 2), 32u);
}

TEST(MortonTest, KeysAreDistinctAndOrderIsHierarchical) {
  // All 8 corners of a 2x2x2 block have distinct keys below every key in the
  // next block — the property that keeps spatial blocks contiguous.
  std::set<std::uint64_t> low;
  for (std::uint32_t z = 0; z < 2; ++z) {
    for (std::uint32_t y = 0; y < 2; ++y) {
      for (std::uint32_t x = 0; x < 2; ++x) low.insert(morton3(x, y, z));
    }
  }
  EXPECT_EQ(low.size(), 8u);
  EXPECT_EQ(*low.rbegin(), 7u);
  EXPECT_GT(morton3(2, 0, 0), *low.rbegin());
  // Top of the 21-bit range interleaves without overflow.
  const std::uint32_t top = (1u << 21) - 1;
  EXPECT_EQ(morton3(top, top, top), 0x7fffffffffffffffull);
}

TEST(MortonTest, OrderIsAPermutationAndCellMajor) {
  Rng rng(5);
  std::vector<Vec3> pos;
  const Vec3 lo{0, 0, 0}, hi{40, 40, 40};
  for (int i = 0; i < 600; ++i) pos.push_back(rng.point_in_box(lo, hi));
  const double width = 8.0;
  const std::vector<int> order = morton_order(pos, lo, hi, width);
  ASSERT_EQ(order.size(), pos.size());
  // invert_permutation validates range and uniqueness.
  const std::vector<int> inverse = invert_permutation(order);
  for (int k = 0; k < 600; ++k) EXPECT_EQ(order[static_cast<std::size_t>(inverse[static_cast<std::size_t>(k)])], k);

  // Cell-major: atoms sharing a quantized cell occupy one contiguous run.
  auto cell_key = [&](const Vec3& p) {
    const int n = 5;  // floor(40 / 8)
    auto q = [&](double v, double l) {
      int c = static_cast<int>((v - l) * n / 40.0);
      return std::min(n - 1, std::max(0, c));
    };
    return (q(p.x, lo.x) * 8 + q(p.y, lo.y)) * 8 + q(p.z, lo.z);
  };
  std::set<int> seen;
  int current = -1;
  for (int k = 0; k < 600; ++k) {
    const int key = cell_key(pos[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])]);
    if (key != current) {
      EXPECT_EQ(seen.count(key), 0u) << "cell revisited at rank " << k;
      seen.insert(key);
      current = key;
    }
  }
}

TEST(MortonTest, OrderIsStableAndIdempotent) {
  Rng rng(9);
  std::vector<Vec3> pos;
  const Vec3 lo{0, 0, 0}, hi{20, 20, 20};
  for (int i = 0; i < 200; ++i) pos.push_back(rng.point_in_box(lo, hi));
  const std::vector<int> first = morton_order(pos, lo, hi, 7.0);
  std::vector<Vec3> sorted;
  sorted.reserve(pos.size());
  for (int o : first) sorted.push_back(pos[static_cast<std::size_t>(o)]);
  // Reordering an already-ordered set is the identity (stable sort).
  const std::vector<int> second = morton_order(sorted, lo, hi, 7.0);
  for (int k = 0; k < 200; ++k) EXPECT_EQ(second[static_cast<std::size_t>(k)], k);
}

TEST(MortonTest, InvertPermutationRejectsNonPermutations) {
  EXPECT_THROW(invert_permutation({0, 2}), ContractError);     // out of range
  EXPECT_THROW(invert_permutation({1, 1}), ContractError);     // repeated
  EXPECT_NO_THROW(invert_permutation({2, 0, 1}));
}

// --- System permutation ------------------------------------------------------

MolecularSystem make_bonded_mix() {
  AtomTypeTable types;
  types.add({"A", 10.0, 0.2, 3.0});
  types.add({"B", 20.0, 0.4, 3.4});
  MolecularSystem sys(types, Box{{0, 0, 0}, {30, 30, 30}});
  Rng rng(13);
  for (int i = 0; i < 24; ++i) {
    sys.add_atom(i % 2, rng.point_in_box({1, 1, 1}, {29, 29, 29}),
                 {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)},
                 (i % 3 == 0) ? 1.0 : 0.0, i % 5 != 0);
  }
  sys.add_radial_bond({0, 1, 100.0, 2.0});
  sys.add_radial_bond({2, 3, 100.0, 2.0});
  sys.add_angular_bond({0, 1, 2, 50.0, 2.0});
  sys.add_torsion_bond({0, 1, 2, 3, 10.0, 2, 0.5});
  return sys;
}

TEST(SystemPermuteTest, InversePermutationRestoresEverythingBitwise) {
  MolecularSystem sys = make_bonded_mix();
  const MolecularSystem original = sys;

  std::vector<int> perm(static_cast<std::size_t>(sys.n_atoms()));
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(3);
  std::shuffle(perm.begin(), perm.end(), rng);
  sys.permute(perm);
  sys.permute(invert_permutation(perm));

  ASSERT_EQ(sys.n_atoms(), original.n_atoms());
  for (int i = 0; i < sys.n_atoms(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(std::memcmp(&sys.positions()[idx], &original.positions()[idx], sizeof(Vec3)), 0);
    EXPECT_EQ(std::memcmp(&sys.velocities()[idx], &original.velocities()[idx], sizeof(Vec3)),
              0);
    EXPECT_EQ(sys.type_of(i), original.type_of(i));
    EXPECT_EQ(sys.charge(i), original.charge(i));
    EXPECT_EQ(sys.movable(i), original.movable(i));
    EXPECT_EQ(sys.external_id(i), i);
    EXPECT_EQ(sys.index_of_external(i), i);
  }
  EXPECT_EQ(sys.charged_indices(), original.charged_indices());
  ASSERT_EQ(sys.radial_bonds().size(), original.radial_bonds().size());
  for (std::size_t b = 0; b < sys.radial_bonds().size(); ++b) {
    EXPECT_EQ(sys.radial_bonds()[b].a, original.radial_bonds()[b].a);
    EXPECT_EQ(sys.radial_bonds()[b].b, original.radial_bonds()[b].b);
  }
  EXPECT_TRUE(sys.excluded(0, 1));
  EXPECT_TRUE(sys.excluded(2, 3));
  EXPECT_FALSE(sys.excluded(0, 2));
}

TEST(SystemPermuteTest, PermutationRelabelsButPreservesPhysics) {
  MolecularSystem sys = make_bonded_mix();
  const MolecularSystem original = sys;
  std::vector<int> perm(static_cast<std::size_t>(sys.n_atoms()));
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(17);
  std::shuffle(perm.begin(), perm.end(), rng);
  sys.permute(perm);

  // Every atom is findable by external ID and carries its original state.
  for (int ext = 0; ext < original.n_atoms(); ++ext) {
    const int i = sys.index_of_external(ext);
    EXPECT_EQ(sys.external_id(i), ext);
    EXPECT_EQ(std::memcmp(&sys.positions()[static_cast<std::size_t>(i)],
                          &original.positions()[static_cast<std::size_t>(ext)], sizeof(Vec3)),
              0);
    EXPECT_EQ(sys.mass(i), original.mass(ext));
    EXPECT_EQ(sys.movable(i), original.movable(ext));
  }
  // Charged list stays ascending.
  const auto& charged = sys.charged_indices();
  for (std::size_t k = 1; k < charged.size(); ++k) EXPECT_LT(charged[k - 1], charged[k]);
  EXPECT_EQ(sys.n_charged(), original.n_charged());
  // Bonds still couple the same physical atoms (by external ID), and their
  // endpoints are excluded from LJ.
  for (const RadialBond& b : sys.radial_bonds()) {
    EXPECT_TRUE(sys.excluded(b.a, b.b));
    const std::uint64_t lo = static_cast<std::uint64_t>(
        std::min(sys.external_id(b.a), sys.external_id(b.b)));
    EXPECT_LE(lo, 2u);
  }
  // Conserved quantities are permutation-invariant up to summation order.
  EXPECT_NEAR(sys.kinetic_energy(), original.kinetic_energy(), 1e-12);
}

TEST(SystemPermuteTest, RejectsNonPermutations) {
  MolecularSystem sys = make_bonded_mix();
  std::vector<int> bad(static_cast<std::size_t>(sys.n_atoms()), 0);
  EXPECT_THROW(sys.permute(bad), ContractError);
  bad.pop_back();
  EXPECT_THROW(sys.permute(bad), ContractError);
}

// --- Heap-model follow-through ----------------------------------------------

TEST(HeapPermuteTest, JavaObjectsAddressesFollowAtomsButStayScattered) {
  HeapConfig hc;
  hc.layout = Layout::JavaObjects;
  HeapModel heap(hc, 4);
  std::vector<std::uint64_t> before(4);
  for (int i = 0; i < 4; ++i) before[static_cast<std::size_t>(i)] = heap.pos_addr(i);
  const std::vector<int> order{2, 0, 3, 1};
  heap.permute_objects(order);
  // Index k now denotes old atom order[k]; its object never moved, so its
  // address is old atom order[k]'s — creation-order placement survives the
  // permutation (the paper's observed JVM behaviour).
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(heap.pos_addr(k), before[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])]);
  }
}

TEST(HeapPermuteTest, ReorderedObjectsBecomeContiguousInNewOrder) {
  HeapConfig hc;
  hc.layout = Layout::ReorderedObjects;
  HeapModel heap(hc, 4);
  heap.permute_objects({2, 0, 3, 1});
  for (int i = 0; i < 4; ++i) EXPECT_EQ(heap.slot_of(i), static_cast<std::uint32_t>(i));
  EXPECT_LT(heap.pos_addr(0), heap.pos_addr(1));
  EXPECT_LT(heap.pos_addr(1), heap.pos_addr(2));
}

TEST(HeapPermuteTest, PackedSoaAddressesAreIndexOnly) {
  HeapConfig hc;
  hc.layout = Layout::PackedSoA;
  HeapModel heap(hc, 4);
  std::vector<std::uint64_t> before(4);
  for (int i = 0; i < 4; ++i) before[static_cast<std::size_t>(i)] = heap.pos_addr(i);
  heap.permute_objects({2, 0, 3, 1});
  // SoA entries are addressed by index; the engine physically moved the data
  // into the new index order, so index addresses are already correct.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(heap.pos_addr(i), before[static_cast<std::size_t>(i)]);
}

// --- Scene I/O stability -----------------------------------------------------

TEST(SceneIoPermuteTest, SavedSceneIsByteIdenticalAcrossReorders) {
  MolecularSystem sys = make_bonded_mix();
  std::ostringstream before;
  save_scene(before, sys);

  std::vector<int> perm(static_cast<std::size_t>(sys.n_atoms()));
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(23);
  std::shuffle(perm.begin(), perm.end(), rng);
  sys.permute(perm);
  std::ostringstream after;
  save_scene(after, sys);
  EXPECT_EQ(before.str(), after.str());

  // And the round trip re-establishes external ID == index.
  std::istringstream in(after.str());
  MolecularSystem loaded = load_scene(in);
  for (int i = 0; i < loaded.n_atoms(); ++i) EXPECT_EQ(loaded.external_id(i), i);
}

// --- CSR determinism across worker counts -----------------------------------

TEST(CsrDeterminismTest, BuildIsIdenticalAcrossWorkerCounts) {
  auto build = [](int n_threads) {
    auto spec = workloads::make_al1000();
    auto cfg = spec.engine;
    cfg.n_threads = n_threads;
    cfg.chunks_per_thread = 2;
    cfg.temporaries = TemporariesMode::InPlace;
    auto eng = std::make_unique<Engine>(std::move(spec.system), cfg);
    eng->compute_forces_only();
    return eng;
  };
  const auto ref_p = build(1);
  const Engine& ref = *ref_p;
  const NeighborList& rl = ref.neighbor_list();
  for (int workers : {2, 4, 8}) {
    const auto other_p = build(workers);
    const Engine& other = *other_p;
    const NeighborList& ol = other.neighbor_list();
    ASSERT_EQ(ol.total_entries(), rl.total_entries()) << workers << " workers";
    for (int i = 0; i < ref.system().n_atoms(); ++i) {
      ASSERT_EQ(ol.count(i), rl.count(i)) << "atom " << i << ", " << workers << " workers";
      ASSERT_EQ(ol.entry_index(i, 0), rl.entry_index(i, 0));
      EXPECT_TRUE(std::equal(ol.begin(i), ol.end(i), rl.begin(i)));
    }
    // PE is summed per accumulation slot, so its low bits legitimately vary
    // with the worker count (different slot partitions reassociate the sum);
    // the interaction set — checked entry-by-entry above — may not.
    EXPECT_NEAR(other.potential_energy(), ref.potential_energy(),
                1e-10 * (std::abs(ref.potential_energy()) + 1.0));
  }
}

// --- Trajectory invariance under reordering ----------------------------------

TEST(ReorderTrajectoryTest, ReorderedRunMatchesBaselineObservables) {
  auto run = [](int reorder_interval, int steps) {
    auto spec = workloads::make_al1000();
    auto cfg = spec.engine;
    cfg.n_threads = 2;
    cfg.temporaries = TemporariesMode::InPlace;
    cfg.reorder_interval = reorder_interval;
    auto eng = std::make_unique<Engine>(std::move(spec.system), cfg);
    eng->run_inline(steps);
    return eng;
  };
  const int steps = 12;
  const auto base_p = run(0, steps);
  const auto reordered_p = run(1, steps);
  const Engine& base = *base_p;
  const Engine& reordered = *reordered_p;

  // The pass really ran and really changed the storage order.
  bool any_moved = false;
  for (int i = 0; i < reordered.system().n_atoms() && !any_moved; ++i) {
    any_moved = reordered.system().external_id(i) != i;
  }
  EXPECT_TRUE(any_moved);

  // Observables agree to reassociation-level tolerance: reordering changes
  // only floating-point accumulation order, never the interaction set.
  const double scale = std::abs(base.total_energy()) + 1.0;
  EXPECT_NEAR(reordered.total_energy(), base.total_energy(), 1e-9 * scale);
  EXPECT_NEAR(reordered.potential_energy(), base.potential_energy(), 1e-9 * scale);

  // Per-atom state, matched through external IDs, stays tightly aligned over
  // a short horizon (chaotic divergence hasn't amplified the low-bit noise).
  double max_dx = 0.0;
  for (int ext = 0; ext < base.system().n_atoms(); ++ext) {
    const int i = reordered.system().index_of_external(ext);
    const Vec3 d = reordered.system().positions()[static_cast<std::size_t>(i)] -
                   base.system().positions()[static_cast<std::size_t>(ext)];
    max_dx = std::max(max_dx, std::sqrt(d.norm2()));
  }
  EXPECT_LT(max_dx, 1e-6);
}

TEST(ReorderTrajectoryTest, DisabledReorderStaysBitIdenticalAndDeterministic) {
  auto run = [] {
    auto spec = workloads::make_al1000();
    auto cfg = spec.engine;
    cfg.n_threads = 2;
    cfg.temporaries = TemporariesMode::InPlace;
    auto eng = std::make_unique<Engine>(std::move(spec.system), cfg);
    eng->run_inline(10);
    return eng;
  };
  const auto a_p = run();
  const auto b_p = run();
  const Engine& a = *a_p;
  const Engine& b = *b_p;
  const double pe_a = a.potential_energy(), pe_b = b.potential_energy();
  const double ke_a = a.kinetic_energy(), ke_b = b.kinetic_energy();
  EXPECT_EQ(std::memcmp(&pe_a, &pe_b, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&ke_a, &ke_b, sizeof(double)), 0);
  // No reorder pass -> storage order untouched.
  for (int i = 0; i < a.system().n_atoms(); ++i) EXPECT_EQ(a.system().external_id(i), i);
}

TEST(ReorderTrajectoryTest, ReorderedRunConservesEnergy) {
  auto spec = workloads::make_al1000();
  auto cfg = spec.engine;
  cfg.n_threads = 1;
  cfg.temporaries = TemporariesMode::InPlace;
  cfg.reorder_interval = 1;
  Engine eng(std::move(spec.system), cfg);
  eng.run_inline(2);
  const double e0 = eng.total_energy();
  eng.run_inline(40);
  const double e1 = eng.total_energy();
  EXPECT_NEAR(e1, e0, 5e-3 * (std::abs(e0) + 1.0));
}

// --- ForceBuffers::zero_forces -----------------------------------------------

TEST(ForceBuffersZeroTest, ZeroForcesClearsMixedUsePatterns) {
  ForceBuffers buf(3, 300);  // spans 3 blocks of 128
  // Worker 0 touches the first block, worker 1 the last, worker 2 nothing.
  buf.force(0, 5) = Vec3{1, 2, 3};
  buf.force(1, 299) = Vec3{4, 5, 6};
  buf.add_pe(0, 1.0);
  buf.zero_forces();
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 300; ++i) {
      const Vec3& f = buf.force_raw(w, i);
      EXPECT_EQ(f.x, 0.0);
      EXPECT_EQ(f.y, 0.0);
      EXPECT_EQ(f.z, 0.0);
    }
    EXPECT_EQ(buf.touched_blocks(w), 0);
  }
  // A second accumulate/zero cycle behaves identically (marks were reset).
  buf.force(2, 130) = Vec3{7, 8, 9};
  EXPECT_EQ(buf.touched_blocks(2), 1);
  buf.zero_forces();
  const Vec3& f = buf.force_raw(2, 130);
  EXPECT_EQ(f.x, 0.0);
  EXPECT_EQ(f.y, 0.0);
  EXPECT_EQ(f.z, 0.0);
}

}  // namespace
}  // namespace mwx::md
