// Determinism proofs for the chunked rebuild pipeline: every pass (cell
// binning, CSR prefix scan, Morton radix sort, chunked scene serialization)
// must be bit/byte-identical to its serial reference (rebuild_oracle.hpp,
// scene_io_oracle.hpp) at every thread/chunk count, under every queue
// discipline, down to empty and single-atom inputs — and the engine's
// energies must not depend on the pool at all.  Plus the >= 1M-atom
// integer-overflow guards (OverflowGuardTest — big-index address models, no
// big allocations; deliberately outside the tsan preset filter).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "md/cell_grid.hpp"
#include "md/engine.hpp"
#include "md/layout.hpp"
#include "md/morton.hpp"
#include "md/neighbor_list.hpp"
#include "md/scene_io.hpp"
#include "parallel/thread_pool.hpp"
#include "rebuild_oracle.hpp"
#include "scene_io_oracle.hpp"
#include "serve/scene_cache.hpp"
#include "sim/machine.hpp"
#include "topo/machine_spec.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace mwx;
using parallel::FixedThreadPool;
using parallel::QueueMode;

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr QueueMode kModes[] = {QueueMode::Single, QueueMode::PerThread,
                                QueueMode::WorkStealing};

// A droplet-like workload keeps cell occupancy irregular: dense core, sparse
// halo — the stress case for per-chunk histograms.
md::MolecularSystem irregular_system(int n) {
  return workloads::make_droplet(n, 110.0, 7);
}

void expect_grid_matches(const md::oracle::CellTable& ref, const md::CellGrid& grid) {
  ASSERT_EQ(static_cast<std::size_t>(grid.n_cells()) + 1, ref.start.size());
  ASSERT_EQ(grid.n_binned(), ref.occupants.size());
  for (int c = 0; c < grid.n_cells(); ++c) {
    const std::size_t cs = static_cast<std::size_t>(c);
    ASSERT_EQ(grid.cell_count(c), ref.start[cs + 1] - ref.start[cs]) << "cell " << c;
    ASSERT_TRUE(std::equal(grid.cell_begin(c), grid.cell_end(c),
                           ref.occupants.begin() + ref.start[cs]))
        << "cell " << c;
  }
}

void expect_offsets_match(const md::NeighborList& nl) {
  const std::vector<std::size_t> ref = md::oracle::prefix_offsets(nl);
  ASSERT_EQ(nl.total_entries(), ref.back());
  for (int i = 0; i < nl.n_atoms(); ++i) {
    ASSERT_EQ(nl.entry_index(i, 0), ref[static_cast<std::size_t>(i)]) << "row " << i;
  }
}

TEST(RebuildParallelTest, BinningMatchesSerialAcrossThreadsAndModes) {
  md::MolecularSystem sys = irregular_system(3000);
  const double reach = 8.9;
  md::CellGrid par(sys.box().lo, sys.box().hi, reach);
  const md::oracle::CellTable ref = md::oracle::bin(par, sys.positions());
  par.bin(sys.positions());
  expect_grid_matches(ref, par);
  for (QueueMode mode : kModes) {
    for (int t : kThreadCounts) {
      FixedThreadPool pool({.n_threads = t, .queue_mode = mode});
      // Chunk counts both below and above the worker count.
      for (int chunks : {1, 2, t, 3 * t}) {
        par.bin(sys.positions(), &pool, chunks);
        expect_grid_matches(ref, par);
      }
    }
  }
}

TEST(RebuildParallelTest, BinningReusesHoistedCursorAcrossRebuilds) {
  // One-chunk path regression: repeated bins (with motion in between) stay
  // correct — every atom lands in exactly one cell.
  md::MolecularSystem sys = irregular_system(500);
  md::CellGrid grid(sys.box().lo, sys.box().hi, 8.9);
  Rng rng(3);
  for (int pass = 0; pass < 3; ++pass) {
    grid.bin(sys.positions());
    ASSERT_EQ(grid.n_binned(), static_cast<std::size_t>(sys.n_atoms()));
    std::vector<bool> seen(static_cast<std::size_t>(sys.n_atoms()), false);
    for (int c = 0; c < grid.n_cells(); ++c) {
      for (const int* it = grid.cell_begin(c); it != grid.cell_end(c); ++it) {
        ASSERT_FALSE(seen[static_cast<std::size_t>(*it)]);
        seen[static_cast<std::size_t>(*it)] = true;
      }
    }
    for (auto& p : sys.positions()) {
      p.x += rng.uniform(-0.5, 0.5);
      p.y += rng.uniform(-0.5, 0.5);
    }
  }
}

TEST(RebuildParallelTest, PrefixScanMatchesSerialAcrossThreadsAndModes) {
  const int n = 5000;
  md::MolecularSystem sys = irregular_system(n);
  md::NeighborList ref(n, 8.0, 0.9);
  ref.begin_rebuild(sys.positions());
  // Irregular counts, including long zero runs (empty vapor rows).
  auto set_counts = [n](md::NeighborList& nl) {
    for (int i = 0; i < n; ++i) {
      nl.set_count(i, i % 5 == 0 ? 0 : static_cast<int>((i * 13 + 5) % 97));
    }
  };
  set_counts(ref);
  ref.finalize_offsets();
  expect_offsets_match(ref);
  for (QueueMode mode : kModes) {
    for (int t : kThreadCounts) {
      FixedThreadPool pool({.n_threads = t, .queue_mode = mode});
      md::NeighborList par(n, 8.0, 0.9);
      for (int chunks : {1, 2, t, 3 * t}) {
        par.begin_rebuild(sys.positions());
        set_counts(par);
        par.finalize_offsets(&pool, chunks);
        expect_offsets_match(par);
      }
    }
  }
}

TEST(RebuildParallelTest, MortonRadixMatchesStableSortAcrossThreadsAndModes) {
  md::MolecularSystem sys = irregular_system(4000);
  const double reach = 8.9;
  const std::vector<int> ref =
      md::oracle::morton_order(sys.positions(), sys.box().lo, sys.box().hi, reach);
  EXPECT_EQ(ref, md::morton_order(sys.positions(), sys.box().lo, sys.box().hi, reach));
  for (QueueMode mode : kModes) {
    for (int t : kThreadCounts) {
      FixedThreadPool pool({.n_threads = t, .queue_mode = mode});
      for (int chunks : {1, 2, t, 3 * t}) {
        EXPECT_EQ(ref, md::morton_order(sys.positions(), sys.box().lo, sys.box().hi,
                                        reach, &pool, chunks));
      }
    }
  }
}

TEST(RebuildParallelTest, SceneTextByteIdenticalAcrossThreadsAndModes) {
  md::MolecularSystem sys = irregular_system(2000);
  const std::string ref = md::format_scene(sys);
  const std::uint64_t ref_hash = serve::SceneCache::content_hash(ref);
  for (QueueMode mode : kModes) {
    for (int t : kThreadCounts) {
      FixedThreadPool pool({.n_threads = t, .queue_mode = mode});
      for (int chunks : {1, 2, t, 3 * t}) {
        const std::string par = md::format_scene(sys, &pool, chunks);
        ASSERT_EQ(ref, par);
        ASSERT_EQ(ref_hash, serve::SceneCache::content_hash(par));
      }
    }
  }
}

TEST(RebuildParallelTest, SceneTextMatchesOracleWriterForEveryGenerator) {
  // The chunked writer against the iostream reference writer, for every
  // generator (nanocar carries all three bond kinds) and a checkpoint, at
  // 1/2/4/8 chunks.  The pinned FNV hashes are the reference writer's bytes
  // for these seeds: SceneCache keys must not move when the codec changes.
  struct Generated {
    const char* name;
    md::MolecularSystem system;
    std::uint64_t hash;
  };
  const Generated generated[] = {
      {"nanocar", workloads::make_nanocar(11).system, 0xa1d84f83454f6c63ull},
      {"salt", workloads::make_salt(22).system, 0xf75f1663953c6944ull},
      {"Al-1000", workloads::make_al1000(33).system, 0x2cd7d95ae37762fcull},
      {"lj_gas", workloads::make_lj_gas(300, 0.006, 300.0, 1), 0x7159dd12e3f085b9ull},
      {"lj_coulomb_gas", workloads::make_lj_coulomb_gas(300, 0.008, 300.0, 0.25, 2),
       0x82aa2b25865f962eull},
      {"chain", workloads::make_chain(40, 3), 0xe6faabe66977ea8aull},
      {"ionic", workloads::make_ionic(64, 4), 0xceff3be6a30331c2ull},
      {"bulk_crystal", workloads::make_bulk_crystal(500, 50.0, 5), 0x719f48b6f4de2432ull},
      {"droplet", workloads::make_droplet(2000, 110.0, 6), 0x0ce254802c92d5f9ull},
  };
  parallel::ThreadPoolConfig pc;
  pc.n_threads = 4;
  FixedThreadPool pool(pc);
  for (const Generated& g : generated) {
    const std::string ref = md::oracle::scene_text(g.system);
    EXPECT_EQ(serve::SceneCache::content_hash(serve::scene_text(g.system)), g.hash) << g.name;
    for (int chunks : {1, 2, 4, 8}) {
      ASSERT_EQ(md::format_scene(g.system, &pool, chunks), ref) << g.name << " @" << chunks;
    }
  }

  workloads::BenchmarkSpec spec = workloads::make_nanocar(11);
  md::Engine engine(std::move(spec.system), spec.engine);
  engine.run_native(pool, 4);
  const std::string ref = md::oracle::checkpoint_text(
      engine.system(), engine.neighbor_list().reference_positions());
  for (int chunks : {1, 2, 4, 8}) {
    ASSERT_EQ(md::format_checkpoint(engine.system(), engine.neighbor_list().reference_positions(),
                                    &pool, chunks),
              ref)
        << "checkpoint @" << chunks;
  }
}

TEST(RebuildParallelTest, EngineEnergiesIndependentOfPoolAndQueueMode) {
  // The full pipeline through the engine: the inline run (no pool, one
  // chunk per pass) and every (pool width x queue mode) native run must
  // report bitwise-equal energies, with the Morton pass on every rebuild
  // (reorder_interval = 1).
  auto energies = [](int pool_threads, QueueMode mode) -> std::vector<double> {
    workloads::BenchmarkSpec spec = workloads::make_al1000();
    md::EngineConfig cfg = spec.engine;
    cfg.n_threads = 4;
    cfg.reorder_interval = 1;
    md::Engine engine(std::move(spec.system), cfg);
    std::vector<double> out;
    if (pool_threads == 0) {
      for (int s = 0; s < 6; ++s) {
        engine.run_inline(1);
        out.push_back(engine.total_energy());
        out.push_back(engine.potential_energy());
      }
    } else {
      FixedThreadPool pool({.n_threads = pool_threads, .queue_mode = mode});
      for (int s = 0; s < 6; ++s) {
        engine.run_native(pool, 1);
        out.push_back(engine.total_energy());
        out.push_back(engine.potential_energy());
      }
    }
    return out;
  };
  const std::vector<double> ref = energies(0, QueueMode::Single);
  ASSERT_EQ(ref.size(), 12u);
  for (QueueMode mode : kModes) {
    for (int t : {1, 2, 4, 8}) EXPECT_EQ(ref, energies(t, mode));
  }
}

// Nanocar (bonds of all three kinds, fixed platform atoms) plus a few
// charged atoms, so every per-atom array and every remapped list is live.
md::MolecularSystem permute_system() {
  md::MolecularSystem sys = workloads::make_nanocar().system;
  const Vec3 mid = (sys.box().lo + sys.box().hi) * 0.5;
  for (int k = 0; k < 12; ++k) {
    sys.add_atom(0, mid + Vec3{0.7 * k, 0.3 * k, 0.2}, Vec3{0.01 * k, 0.0, -0.01},
                 k % 2 == 0 ? 1.0 : -1.0);
  }
  return sys;
}

template <typename T>
bool same_bytes(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

void expect_same_state(const md::MolecularSystem& got, const md::MolecularSystem& want) {
  const int n = want.n_atoms();
  ASSERT_EQ(got.n_atoms(), n);
  EXPECT_EQ(std::memcmp(got.positions().data(), want.positions().data(), n * sizeof(Vec3)), 0);
  EXPECT_EQ(std::memcmp(got.velocities().data(), want.velocities().data(), n * sizeof(Vec3)), 0);
  EXPECT_EQ(
      std::memcmp(got.accelerations().data(), want.accelerations().data(), n * sizeof(Vec3)), 0);
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(same_bytes(got.mass(i), want.mass(i))) << "atom " << i;
    ASSERT_TRUE(same_bytes(got.inv_mass(i), want.inv_mass(i))) << "atom " << i;
    ASSERT_TRUE(same_bytes(got.charge(i), want.charge(i))) << "atom " << i;
    ASSERT_EQ(got.type_of(i), want.type_of(i)) << "atom " << i;
    ASSERT_EQ(got.movable(i), want.movable(i)) << "atom " << i;
    ASSERT_EQ(got.external_id(i), want.external_id(i)) << "atom " << i;
    ASSERT_EQ(got.index_of_external(i), want.index_of_external(i)) << "external " << i;
    ASSERT_EQ(got.index_of_external(got.external_id(i)), i) << "atom " << i;
  }
  EXPECT_EQ(got.charged_indices(), want.charged_indices());
  ASSERT_EQ(got.radial_bonds().size(), want.radial_bonds().size());
  for (std::size_t k = 0; k < want.radial_bonds().size(); ++k) {
    const md::RadialBond& a = got.radial_bonds()[k];
    const md::RadialBond& b = want.radial_bonds()[k];
    ASSERT_TRUE(a.a == b.a && a.b == b.b && same_bytes(a.k, b.k) && same_bytes(a.r0, b.r0));
    ASSERT_TRUE(got.excluded(a.a, a.b));
  }
  ASSERT_EQ(got.angular_bonds().size(), want.angular_bonds().size());
  for (std::size_t k = 0; k < want.angular_bonds().size(); ++k) {
    const md::AngularBond& a = got.angular_bonds()[k];
    const md::AngularBond& b = want.angular_bonds()[k];
    ASSERT_TRUE(a.a == b.a && a.b == b.b && a.c == b.c && same_bytes(a.k, b.k) &&
                same_bytes(a.theta0, b.theta0));
  }
  ASSERT_EQ(got.torsion_bonds().size(), want.torsion_bonds().size());
  for (std::size_t k = 0; k < want.torsion_bonds().size(); ++k) {
    const md::TorsionBond& a = got.torsion_bonds()[k];
    const md::TorsionBond& b = want.torsion_bonds()[k];
    ASSERT_TRUE(a.a == b.a && a.b == b.b && a.c == b.c && a.d == b.d && a.n == b.n &&
                same_bytes(a.k, b.k) && same_bytes(a.phi0, b.phi0));
  }
}

TEST(RebuildParallelTest, PermuteMatchesNullPoolAtOneThreeAndEightChunks) {
  const md::MolecularSystem base = permute_system();
  ASSERT_GT(base.n_charged(), 0);
  ASSERT_GT(base.torsion_bonds().size(), 0u);
  ASSERT_LT(base.n_movable(), base.n_atoms());
  // A random shuffle, then the Morton order of the shuffled state: the
  // second permute starts from non-identity external ids.
  std::vector<int> shuffle(static_cast<std::size_t>(base.n_atoms()));
  for (int k = 0; k < base.n_atoms(); ++k) shuffle[static_cast<std::size_t>(k)] = k;
  Rng rng(17);
  for (std::size_t k = shuffle.size() - 1; k > 0; --k) {
    std::swap(shuffle[k], shuffle[rng.next() % (k + 1)]);
  }
  md::MolecularSystem ref = base;
  ref.permute(shuffle);
  const std::vector<int> morton =
      md::morton_order(ref.positions(), ref.box().lo, ref.box().hi, 8.9);
  ref.permute(morton);
  // The inline result is the gather itself.
  for (int k = 0; k < base.n_atoms(); ++k) {
    const int from = shuffle[static_cast<std::size_t>(morton[static_cast<std::size_t>(k)])];
    ASSERT_EQ(ref.external_id(k), from);
    ASSERT_TRUE(same_bytes(ref.positions()[static_cast<std::size_t>(k)],
                           base.positions()[static_cast<std::size_t>(from)]));
  }
  for (QueueMode mode : kModes) {
    FixedThreadPool pool({.n_threads = 4, .queue_mode = mode});
    for (int chunks : {1, 3, 8}) {
      md::MolecularSystem par = base;
      par.permute(shuffle, &pool, chunks);
      par.permute(morton, &pool, chunks);
      expect_same_state(par, ref);
    }
  }
  // The inverse check still rejects a non-permutation before moving anything.
  FixedThreadPool pool({.n_threads = 4});
  md::MolecularSystem bad = base;
  std::vector<int> repeated = shuffle;
  repeated[1] = repeated[0];
  EXPECT_THROW(bad.permute(repeated, &pool, 3), ContractError);
  expect_same_state(bad, base);
}

TEST(RebuildParallelTest, BinRewritesEveryCellForEmptyAndSingleAtomInput) {
  md::MolecularSystem sys = irregular_system(500);
  const Vec3 lo = sys.box().lo, hi = sys.box().hi;
  const std::vector<Vec3> none;
  const std::vector<Vec3> one{sys.positions()[7]};
  FixedThreadPool pool({.n_threads = 4});
  md::CellGrid grid(lo, hi, 8.9);
  for (FixedThreadPool* p : {static_cast<FixedThreadPool*>(nullptr), &pool}) {
    for (int chunks : {1, 4}) {
      // Each small bin follows a full one, so a stale row start or occupant
      // count from the previous pass would show.
      for (const std::vector<Vec3>* input : {&none, &one}) {
        grid.bin(sys.positions(), p, chunks);
        expect_grid_matches(md::oracle::bin(grid, sys.positions()), grid);
        grid.bin(*input, p, chunks);
        expect_grid_matches(md::oracle::bin(grid, *input), grid);
      }
    }
  }
  grid.bin(one);
  ASSERT_EQ(grid.n_binned(), 1u);
  EXPECT_EQ(*grid.cell_begin(grid.cell_of(one[0])), 0);
}

TEST(RebuildParallelTest, PrefixScanRewritesOffsetsForSingleAtomList) {
  const std::vector<Vec3> pos{{1.0, 2.0, 3.0}};
  FixedThreadPool pool({.n_threads = 4});
  md::NeighborList nl(1, 8.0, 0.9);
  for (FixedThreadPool* p : {static_cast<FixedThreadPool*>(nullptr), &pool}) {
    for (int chunks : {1, 4}) {
      for (int count : {5, 0}) {
        nl.begin_rebuild(pos);
        nl.set_count(0, count);
        nl.finalize_offsets(p, chunks);
        expect_offsets_match(nl);
        EXPECT_EQ(nl.total_entries(), static_cast<std::size_t>(count));
        // The fill cursor was reset: the row takes exactly `count` entries.
        for (int k = 0; k < count; ++k) nl.add_neighbor(0, k);
        EXPECT_THROW(nl.add_neighbor(0, count), ContractError);
      }
    }
  }
}

TEST(RebuildParallelTest, MortonOrderHandlesEmptyAndSingleAtomInput) {
  const Vec3 lo{0.0, 0.0, 0.0}, hi{50.0, 50.0, 50.0};
  const std::vector<Vec3> none;
  const std::vector<Vec3> one{{10.0, 20.0, 30.0}};
  FixedThreadPool pool({.n_threads = 4});
  for (FixedThreadPool* p : {static_cast<FixedThreadPool*>(nullptr), &pool}) {
    for (int chunks : {1, 4}) {
      EXPECT_TRUE(md::morton_order(none, lo, hi, 8.9, p, chunks).empty());
      EXPECT_EQ(md::morton_order(one, lo, hi, 8.9, p, chunks), std::vector<int>{0});
    }
  }
}

TEST(RebuildParallelTest, CheckpointRoundTripThroughParallelSerializer) {
  // A checkpoint written by the chunked serializer must hash identically to
  // the serial text AND restore bit-exactly.
  workloads::BenchmarkSpec spec = workloads::make_al1000();
  md::EngineConfig cfg = spec.engine;
  cfg.n_threads = 4;
  md::Engine engine(std::move(spec.system), cfg);
  FixedThreadPool pool({.n_threads = 4});
  engine.run_native(pool, 4);

  const std::string serial_text = serve::checkpoint_text(engine);
  const std::string par_text = serve::checkpoint_text(engine, &pool);
  ASSERT_EQ(serial_text, par_text);
  ASSERT_EQ(serve::SceneCache::content_hash(serial_text),
            serve::SceneCache::content_hash(par_text));

  std::istringstream is(par_text);
  std::vector<Vec3> refs;
  md::MolecularSystem restored = md::load_scene(is, &refs);
  md::Engine resumed(std::move(restored), cfg);
  resumed.restore_continuation(refs);

  engine.run_native(pool, 3);
  resumed.run_native(pool, 3);
  EXPECT_EQ(engine.total_energy(), resumed.total_energy());
  EXPECT_EQ(engine.potential_energy(), resumed.potential_energy());
}

TEST(RebuildParallelTest, SimulatedBackendChargesParallelRebuildPhases) {
  workloads::BenchmarkSpec spec = workloads::make_al1000();
  md::EngineConfig cfg = spec.engine;
  cfg.n_threads = 4;
  cfg.reorder_interval = 1;
  md::Engine engine(std::move(spec.system), cfg);
  sim::MachineConfig mc;
  mc.spec = topo::core_i7_920();
  mc.n_threads = 4;
  sim::Machine machine(mc);
  engine.run_simulated(machine, 3);
  ASSERT_GE(engine.rebuild_count(), 1);

  // The new phase tags show up in the counter domains...
  const std::vector<int> phases = machine.counter_phases();
  auto has = [&phases](int tag) {
    return std::find(phases.begin(), phases.end(), tag) != phases.end();
  };
  EXPECT_TRUE(has(md::kPhaseBin));
  EXPECT_TRUE(has(md::kPhaseNbrPrefix));
  EXPECT_TRUE(has(md::kPhaseMortonSort));

  // ...and counter conservation holds across all domains.
  EXPECT_TRUE(machine.conservation_violations().empty());
}

TEST(RebuildParallelTest, SimulatedEnergiesMatchInline) {
  // The traced backend runs the rebuild passes inline yet charges them as
  // parallel phases: that changes simulated *time*, never physics.
  auto make = [] {
    workloads::BenchmarkSpec spec = workloads::make_al1000();
    md::EngineConfig cfg = spec.engine;
    cfg.n_threads = 2;
    cfg.reorder_interval = 1;
    return md::Engine(std::move(spec.system), cfg);
  };
  md::Engine traced = make();
  sim::MachineConfig mc;
  mc.spec = topo::core_i7_920();
  mc.n_threads = 2;
  sim::Machine machine(mc);
  traced.run_simulated(machine, 4);
  md::Engine inline_engine = make();
  inline_engine.run_inline(4);
  ASSERT_GE(traced.rebuild_count(), 1);
  EXPECT_EQ(traced.total_energy(), inline_engine.total_energy());
  EXPECT_EQ(traced.potential_energy(), inline_engine.potential_energy());
}

// --- >= 1M-atom integer-overflow guards -------------------------------------
// Named outside the tsan preset filter on purpose: these exercise address
// models and guard paths, not concurrency.

TEST(OverflowGuardTest, CellGridRejectsAxisCountOverflow) {
  // A huge box with a tiny reach would overflow int cell indexing; the
  // constructor must refuse it rather than wrap.
  EXPECT_THROW(md::CellGrid({0, 0, 0}, {1e9, 1e9, 1e9}, 0.1), ContractError);
  // Axis counts that fit individually but whose product overflows int.
  EXPECT_THROW(md::CellGrid({0, 0, 0}, {2e6, 2e6, 2e6}, 1.0), ContractError);
}

TEST(OverflowGuardTest, CellGridHandlesMillionAtomOccupancy) {
  // 1M synthetic positions on a coarse grid: start_/occupants_ stay
  // consistent (the capacity/total bookkeeping is exercised well past any
  // 16/32k boundary, with cell totals summing to exactly n).
  const int n = 1000000;
  std::vector<Vec3> pos(static_cast<std::size_t>(n));
  Rng rng(11);
  for (auto& p : pos) {
    p = {rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)};
  }
  md::CellGrid grid({0, 0, 0}, {200, 200, 200}, 10.0);
  grid.bin(pos);
  ASSERT_EQ(grid.n_binned(), static_cast<std::size_t>(n));
  long long total = 0;
  for (int c = 0; c < grid.n_cells(); ++c) total += grid.cell_count(c);
  EXPECT_EQ(total, n);
}

TEST(OverflowGuardTest, NeighborListTotalsUse64BitArithmetic) {
  // Synthetic high-density check: 1.2M rows x 1900 entries/row would
  // overflow a 32-bit total (2.28e9); the CSR offsets must carry it.  No
  // allocation happens before finalize, and we avoid the 9 GB entry array by
  // checking the address model (HeapModel), which shares the same widths.
  static_assert(sizeof(std::size_t) == 8, "CSR offsets must be 64-bit");
  const md::HeapConfig hc;
  md::HeapModel heap(hc, 1100000, 2048);
  const std::uint64_t total =
      1100000ull * static_cast<std::uint64_t>(heap.neighbor_entries_per_atom());
  ASSERT_GT(total, 1ull << 31);
  // Addresses must be strictly monotone through the 2^32-entry region.
  const std::uint64_t a = heap.neighbor_entry_addr(total - 1);
  const std::uint64_t b = heap.neighbor_entry_addr(total / 2);
  const std::uint64_t c = heap.neighbor_entry_addr(0);
  EXPECT_GT(a, b);
  EXPECT_GT(b, c);
  EXPECT_EQ(a - c, (total - 1) * 4);
}

TEST(OverflowGuardTest, EntryIndexIs64BitPerRow) {
  // entry_index must not truncate row offsets in the billions.
  md::NeighborList nl(3, 8.0, 0.9);
  std::vector<Vec3> pos{{1, 1, 1}, {2, 2, 2}, {3, 3, 3}};
  nl.begin_rebuild(pos);
  nl.set_count(0, 7);
  nl.set_count(1, 5);
  nl.set_count(2, 3);
  nl.finalize_offsets();
  static_assert(std::is_same_v<decltype(nl.entry_index(0, 0)), std::uint64_t>,
                "entry_index must be 64-bit");
  static_assert(std::is_same_v<decltype(nl.total_entries()), std::size_t>,
                "total_entries must be 64-bit");
  EXPECT_EQ(nl.entry_index(1, 0), 7u);
  EXPECT_EQ(nl.entry_index(2, 0), 12u);
  EXPECT_EQ(nl.total_entries(), 15u);
}

}  // namespace
