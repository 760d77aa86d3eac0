// Golden trajectories: 40 inline steps of each Table I benchmark and of a
// 10k-atom droplet with the Morton pass on every rebuild, pinned to the
// exact potential/kinetic energy bits and an FNV-1a hash of the final
// positions and velocities (storage order).
//
// The pins predate the AVX2 LJ kernel and must hold in every build
// configuration (AVX2 and the forced-scalar preset alike): a kernel change
// that moves a single bit of any trajectory fails here, even when it is
// self-consistent across its own code paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "md/engine.hpp"
#include "workloads/workloads.hpp"

namespace mwx {
namespace {

constexpr int kSteps = 40;

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void fnv1a(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t k = 0; k < n; ++k) {
    h ^= p[k];
    h *= 1099511628211ull;
  }
}

struct Golden {
  std::uint64_t pe_bits;
  std::uint64_t ke_bits;
  std::uint64_t state_hash;  // FNV-1a over positions then velocities
};

Golden run_golden(md::MolecularSystem sys, const md::EngineConfig& cfg) {
  md::Engine engine(std::move(sys), cfg);
  engine.run_inline(kSteps);
  const auto& pos = engine.system().positions();
  const auto& vel = engine.system().velocities();
  std::uint64_t h = 14695981039346656037ull;
  fnv1a(h, pos.data(), pos.size() * sizeof(Vec3));
  fnv1a(h, vel.data(), vel.size() * sizeof(Vec3));
  return {bits_of(engine.potential_energy()), bits_of(engine.kinetic_energy()), h};
}

void expect_golden(const std::string& name, const Golden& got, const Golden& want) {
  EXPECT_EQ(got.pe_bits, want.pe_bits) << name << " pe bits 0x" << std::hex << got.pe_bits;
  EXPECT_EQ(got.ke_bits, want.ke_bits) << name << " ke bits 0x" << std::hex << got.ke_bits;
  EXPECT_EQ(got.state_hash, want.state_hash)
      << name << " state hash 0x" << std::hex << got.state_hash;
}

void expect_benchmark(const std::string& name, const Golden& want) {
  workloads::BenchmarkSpec spec = workloads::make_benchmark(name);
  expect_golden(name, run_golden(std::move(spec.system), spec.engine), want);
}

TEST(GoldenTrajectory, Al1000) {
  expect_benchmark("Al-1000",
                   {0xc03550e4ec76d9acull, 0x3ffbbfbda42d6068ull, 0x0e53041d47df0a2full});
}

TEST(GoldenTrajectory, Salt) {
  expect_benchmark("salt",
                   {0xc037c832c92d9f77ull, 0x40196cf79a1a0079ull, 0xeb31178e84b7862cull});
}

TEST(GoldenTrajectory, Nanocar) {
  expect_benchmark("nanocar",
                   {0xbfb523b14b36208full, 0x3f92eb474317dd5cull, 0xc9c47c6398da153dull});
}

TEST(GoldenTrajectory, Droplet10kMortonEveryRebuild) {
  md::EngineConfig cfg;
  cfg.n_threads = 4;
  cfg.chunks_per_thread = 4;
  cfg.assignment = sim::Assignment::WorkStealing;
  cfg.dt_fs = 2.0;
  cfg.reorder_interval = 1;
  expect_golden("droplet10k", run_golden(workloads::make_droplet(10000, 110.0, 1), cfg),
                {0xc0054baa0729c0aeull, 0x3ff505b83067a317ull, 0xd49e1eb92bd2f630ull});
}

}  // namespace
}  // namespace mwx
