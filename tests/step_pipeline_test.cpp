// The step schedule: a run_* call opens with one predict-check phase, runs
// forces then a fused integrate phase per step, and each step with another
// to come predicts and checks that step inside its integrate phase.  How a
// window of steps is cut into calls, and which backend runs them, must not
// move a bit: the last step of every call stops after the corrector, so the
// state between calls (energies, checkpoints) is the state after the step.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "md/engine.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/trace_ring.hpp"
#include "serve/scene_cache.hpp"
#include "sim/machine.hpp"
#include "topo/machine_spec.hpp"
#include "workloads/workloads.hpp"

namespace mwx::md {
namespace {

constexpr int kThreads = 2;
constexpr int kWindow = 8;

// Energies compared as bit patterns, not values.
struct Bits {
  std::uint64_t pe = 0;
  std::uint64_t ke = 0;
  bool operator==(const Bits&) const = default;
};

Bits bits_of(const Engine& e) {
  Bits b;
  const double pe = e.potential_energy();
  const double ke = e.kinetic_energy();
  std::memcpy(&b.pe, &pe, sizeof pe);
  std::memcpy(&b.ke, &ke, sizeof ke);
  return b;
}

// A hot, charged, shuffled gas with a thin skin and a Morton pass on every
// rebuild, so the window holds rebuilds (and reorders) detected by the
// check that runs inside the previous step's integrate phase.
Engine make_engine(sim::Assignment assignment, int chunks_per_thread) {
  EngineConfig cfg;
  cfg.n_threads = kThreads;
  cfg.chunks_per_thread = chunks_per_thread;
  cfg.assignment = assignment;
  cfg.dt_fs = 2.0;
  cfg.cutoff = 7.0;
  cfg.skin = 0.3;
  cfg.reorder_interval = 1;
  return Engine(workloads::make_lj_coulomb_gas(300, 0.012, 600.0, 0.25, 5), cfg);
}

parallel::QueueMode queue_mode_for(sim::Assignment assignment) {
  switch (assignment) {
    case sim::Assignment::Static: return parallel::QueueMode::PerThread;
    case sim::Assignment::SharedQueue: return parallel::QueueMode::Single;
    case sim::Assignment::WorkStealing: return parallel::QueueMode::WorkStealing;
  }
  return parallel::QueueMode::Single;
}

class StepPipeline
    : public ::testing::TestWithParam<std::tuple<sim::Assignment, int>> {
 protected:
  sim::Assignment assignment() const { return std::get<0>(GetParam()); }
  int chunks() const { return std::get<1>(GetParam()); }
  Engine fresh() const { return make_engine(assignment(), chunks()); }
  parallel::FixedThreadPool make_pool() const {
    return parallel::FixedThreadPool(
        {.n_threads = kThreads, .queue_mode = queue_mode_for(assignment())});
  }
};

// (a) After every step k of the window, four ways of reaching it agree bit
// for bit: one k-step native call, k one-step native calls, one k-step
// inline call and one k-step simulated call.
TEST_P(StepPipeline, EnergyBitsIndependentOfCallSplitAndBackend) {
  parallel::FixedThreadPool pool = make_pool();

  Engine single = fresh();
  std::vector<Bits> per_step;
  for (int k = 1; k <= kWindow; ++k) {
    single.run_native(pool, 1);
    per_step.push_back(bits_of(single));
  }
  // The window really holds a rebuild after the first step, and with it a
  // Morton reorder.
  ASSERT_GE(single.rebuild_count(), 2);

  for (int k = 1; k <= kWindow; ++k) {
    const Bits want = per_step[static_cast<std::size_t>(k - 1)];

    Engine native = fresh();
    native.run_native(pool, k);
    EXPECT_EQ(bits_of(native), want) << "run_native(pool, " << k << ")";

    Engine inl = fresh();
    inl.run_inline(k);
    EXPECT_EQ(bits_of(inl), want) << "run_inline(" << k << ")";

    Engine simulated = fresh();
    sim::MachineConfig mc;
    mc.spec = topo::core_i7_920();
    mc.n_threads = kThreads;
    mc.record_events = false;
    sim::Machine machine(mc);
    simulated.run_simulated(machine, k);
    EXPECT_EQ(bits_of(simulated), want) << "run_simulated(" << k << ")";
  }
}

// (b) The checkpoint written after one k-step call is byte-identical to the
// one written after k one-step calls: positions are not pre-advanced past
// the step the call ends on.
TEST_P(StepPipeline, CheckpointAfterOneCallMatchesSingleStepCalls) {
  parallel::FixedThreadPool pool = make_pool();
  Engine whole = fresh();
  whole.run_native(pool, kWindow);
  Engine split = fresh();
  for (int k = 0; k < kWindow; ++k) split.run_native(pool, 1);
  EXPECT_EQ(serve::checkpoint_text(whole), serve::checkpoint_text(split));
}

// (c) A k-step call dispatches 1 + 2k phases plus the overlap phase of each
// rebuild step, in the order predict-check, then (forces, integrate) per
// step, and brackets each step once.
TEST_P(StepPipeline, KStepCallTracesOnePlusTwoKPhases) {
  parallel::FixedThreadPool pool = make_pool();
  Engine engine = fresh();
  perf::TraceRing ring(kThreads + 1, 1 << 14);
  engine.attach_trace(&ring);
  engine.run_native(pool, kWindow);

  std::vector<int> tags;
  int steps = 0;
  for (const auto& m : ring.snapshot().events) {
    if (m.lane != ring.external_lane()) continue;
    if (m.event.kind == perf::TraceKind::Phase) tags.push_back(m.event.tag);
    if (m.event.kind == perf::TraceKind::Step) ++steps;
  }
  EXPECT_EQ(steps, kWindow);
  ASSERT_EQ(static_cast<long long>(tags.size()), 1 + 2 * kWindow + engine.rebuild_count());
  EXPECT_EQ(tags.front(), kPhasePredictCheck);
  EXPECT_EQ(tags.back(), kPhaseReduceCorrect);
  int forces = 0, pipelined = 0, overlap = 0;
  for (const int tag : tags) {
    forces += tag == kPhaseForces ? 1 : 0;
    pipelined += tag == kPhaseReduceCorrectPredict ? 1 : 0;
    overlap += tag == kPhaseOverlap ? 1 : 0;
  }
  EXPECT_EQ(forces, kWindow);
  EXPECT_EQ(pipelined, kWindow - 1);
  EXPECT_EQ(overlap, engine.rebuild_count());
}

std::string param_name(const ::testing::TestParamInfo<StepPipeline::ParamType>& info) {
  const char* names[] = {"Static", "SharedQueue", "WorkStealing"};
  return std::string(names[static_cast<int>(std::get<0>(info.param))]) + "_x" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllDisciplines, StepPipeline,
                         ::testing::Combine(::testing::Values(sim::Assignment::Static,
                                                              sim::Assignment::SharedQueue,
                                                              sim::Assignment::WorkStealing),
                                            ::testing::Values(1, 4)),
                         param_name);

}  // namespace
}  // namespace mwx::md
