// Property tests of the neighbor-finding machinery against brute force:
// for random systems across densities and seeds, the engine's half neighbor
// list must contain exactly the pairs within reach (minus the exclusion and
// fixed-pair rules), and the machine-simulator phase must execute empty and
// degenerate workloads gracefully.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "md/engine.hpp"
#include "sim/machine.hpp"
#include "topo/machine_spec.hpp"
#include "workloads/workloads.hpp"

namespace mwx::md {
namespace {

using PairSet = std::set<std::pair<int, int>>;

PairSet brute_force_pairs(const MolecularSystem& sys, double reach) {
  PairSet pairs;
  const auto& pos = sys.positions();
  for (int i = 0; i < sys.n_atoms(); ++i) {
    for (int j = i + 1; j < sys.n_atoms(); ++j) {
      if (!sys.movable(i) && !sys.movable(j)) continue;
      if (sys.excluded(i, j)) continue;
      if (distance(pos[static_cast<std::size_t>(i)], pos[static_cast<std::size_t>(j)]) <=
          reach) {
        pairs.emplace(i, j);
      }
    }
  }
  return pairs;
}

PairSet engine_pairs(Engine& eng) {
  eng.compute_forces_only();  // unconditional rebuild
  PairSet pairs;
  const NeighborList& nl = eng.neighbor_list();
  for (int i = 0; i < eng.system().n_atoms(); ++i) {
    for (const int* it = nl.begin(i); it != nl.end(i); ++it) {
      EXPECT_GT(*it, i) << "half list must store only higher indices";
      pairs.emplace(i, *it);
    }
  }
  return pairs;
}

class NeighborSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(NeighborSweep, ListMatchesBruteForce) {
  const auto [density, seed] = GetParam();
  auto sys = workloads::make_lj_gas(200, density, 200.0, seed);
  // Jitter positions off the seed lattice so geometry is irregular.
  Rng rng(seed * 7 + 1);
  const Box& box = sys.box();
  for (auto& p : sys.positions()) {
    p += Vec3{rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)};
    p.x = std::clamp(p.x, box.lo.x, box.hi.x);
    p.y = std::clamp(p.y, box.lo.y, box.hi.y);
    p.z = std::clamp(p.z, box.lo.z, box.hi.z);
  }
  EngineConfig cfg;
  cfg.n_threads = 2;
  cfg.cutoff = 6.0;
  cfg.skin = 1.0;
  cfg.temporaries = TemporariesMode::InPlace;
  const double reach = cfg.cutoff + cfg.skin;
  const PairSet expected = brute_force_pairs(sys, reach);
  Engine eng(std::move(sys), cfg);
  const PairSet actual = engine_pairs(eng);
  EXPECT_EQ(actual, expected) << "density " << density << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Densities, NeighborSweep,
                         ::testing::Combine(::testing::Values(0.002, 0.01, 0.03),
                                            ::testing::Values(1u, 2u, 3u)));

TEST(NeighborPropertyTest, BondedSystemExcludesBondedPairs) {
  auto sys = workloads::make_chain(20, 9);
  EngineConfig cfg;
  cfg.n_threads = 1;
  cfg.cutoff = 6.0;
  cfg.skin = 1.0;
  cfg.temporaries = TemporariesMode::InPlace;
  const PairSet expected = brute_force_pairs(sys, cfg.cutoff + cfg.skin);
  Engine eng(std::move(sys), cfg);
  const PairSet actual = engine_pairs(eng);
  EXPECT_EQ(actual, expected);
  // Direct bonds must be absent even though they are within reach.
  for (const auto& [i, j] : actual) {
    EXPECT_FALSE(eng.system().excluded(i, j));
  }
}

TEST(NeighborPropertyTest, NanocarPlatformPairsAbsent) {
  auto spec = workloads::make_nanocar(11);
  const auto& sys_ref = spec.system;
  std::vector<char> movable(static_cast<std::size_t>(sys_ref.n_atoms()));
  for (int i = 0; i < sys_ref.n_atoms(); ++i) movable[static_cast<std::size_t>(i)] =
      sys_ref.movable(i) ? 1 : 0;
  auto cfg = spec.engine;
  cfg.n_threads = 2;
  cfg.temporaries = TemporariesMode::InPlace;
  Engine eng(std::move(spec.system), cfg);
  const PairSet pairs = engine_pairs(eng);
  for (const auto& [i, j] : pairs) {
    EXPECT_TRUE(movable[static_cast<std::size_t>(i)] || movable[static_cast<std::size_t>(j)])
        << "fixed platform atoms must not pair with one another";
  }
}

TEST(MachineEdgeTest, EmptyPhaseCompletesImmediately) {
  sim::MachineConfig mc;
  mc.spec = topo::core_i7_920();
  mc.sched.noise_bursts_per_second = 0.0;
  mc.n_threads = 4;
  sim::Machine machine(mc);
  sim::PhaseWork empty;
  empty.tag = 1;
  const auto r = machine.run_phase(empty);
  EXPECT_GT(r.end_seconds, r.begin_seconds);  // wake + barrier only
  EXPECT_LT(r.duration_seconds(), 1e-4);
  for (double b : r.busy_seconds) EXPECT_EQ(b, 0.0);
}

TEST(MachineEdgeTest, SingleTaskManyThreads) {
  sim::MachineConfig mc;
  mc.spec = topo::core_i7_920();
  mc.sched.noise_bursts_per_second = 0.0;
  mc.n_threads = 8;
  sim::Machine machine(mc);
  sim::PhaseWork w;
  w.tag = 1;
  w.tasks.push_back({0, 1e6, 0, 0, 0});
  const auto r = machine.run_phase(w);
  // One thread works; seven wait at the barrier.
  int busy_threads = 0;
  for (double b : r.busy_seconds) busy_threads += b > 0 ? 1 : 0;
  EXPECT_EQ(busy_threads, 1);
  EXPECT_GT(machine.counters().barrier_wait_cycles, 6e6);
}

}  // namespace
}  // namespace mwx::md
