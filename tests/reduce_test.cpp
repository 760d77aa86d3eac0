// Phase-5 reduction at slot counts past any fixed touched-slot capacity: a
// Static engine has one accumulation slot per thread, so n_threads = 300
// means 300 slots.  The sparse reduction must match the dense oracle there
// too, and the engine must run it end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "md/engine.hpp"
#include "md/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "rebuild_oracle.hpp"
#include "workloads/workloads.hpp"

namespace mwx::md {
namespace {

constexpr int kSlots = 300;

// The Static engine's Coulomb decomposition: task c takes charged rows
// c, c + k, c + 2k, ... into slot c.
void scatter_static(const MolecularSystem& sys, ForceBuffers& buf) {
  const CostTable costs;
  PackedCharges packed;
  packed.pack(sys);
  NullMem mem;
  const int k = std::min(kSlots, sys.n_charged());
  for (int c = 0; c < k; ++c) {
    coulomb_chunk(sys, costs, packed, buf, c, c, sys.n_charged(), k, mem);
  }
}

TEST(SparseReduce, ThreeHundredSlotsMatchDenseOracle) {
  MolecularSystem sparse_sys = workloads::make_salt(4).system;
  MolecularSystem dense_sys = workloads::make_salt(4).system;
  const int n = sparse_sys.n_atoms();
  ForceBuffers sparse_buf(kSlots, n), dense_buf(kSlots, n);
  scatter_static(sparse_sys, sparse_buf);
  scatter_static(dense_sys, dense_buf);

  // The engine's atom-phase split: kSlots contiguous chunks.
  const CostTable costs;
  NullMem mem;
  for (int c = 0; c < kSlots; ++c) {
    reduce_chunk_sparse(sparse_sys, costs, sparse_buf, n * c / kSlots, n * (c + 1) / kSlots,
                        mem);
  }
  oracle::reduce_dense(dense_sys, dense_buf, 0, n);

  const Vec3 zero{};
  for (int i = 0; i < n; ++i) {
    const Vec3& a = sparse_sys.accelerations()[static_cast<std::size_t>(i)];
    const Vec3& b = dense_sys.accelerations()[static_cast<std::size_t>(i)];
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(Vec3)), 0) << "atom " << i;
    ASSERT_NE(std::memcmp(&a, &zero, sizeof(Vec3)), 0) << "atom " << i << " got no force";
    for (int w = 0; w < kSlots; ++w) {
      ASSERT_EQ(std::memcmp(&sparse_buf.force_raw(w, i), &zero, sizeof(Vec3)), 0)
          << "slot " << w << " atom " << i << " not zeroed";
    }
  }
}

TEST(SparseReduce, ThreeHundredThreadStaticEngineMatchesAcrossBackends) {
  auto make = [] {
    workloads::BenchmarkSpec spec = workloads::make_salt(4);
    EngineConfig cfg = spec.engine;
    cfg.n_threads = kSlots;
    cfg.chunks_per_thread = 1;
    cfg.assignment = sim::Assignment::Static;
    return Engine(std::move(spec.system), cfg);
  };
  Engine inline_eng = make();
  ASSERT_EQ(inline_eng.n_slots(), kSlots);
  inline_eng.run_inline(4);

  Engine native_eng = make();
  parallel::FixedThreadPool pool({.n_threads = 4, .queue_mode = parallel::QueueMode::PerThread});
  native_eng.run_native(pool, 4);

  EXPECT_EQ(inline_eng.total_energy(), native_eng.total_energy());
  for (int i = 0; i < inline_eng.system().n_atoms(); ++i) {
    ASSERT_EQ(inline_eng.system().positions()[static_cast<std::size_t>(i)],
              native_eng.system().positions()[static_cast<std::size_t>(i)])
        << "atom " << i;
  }
}

}  // namespace
}  // namespace mwx::md
