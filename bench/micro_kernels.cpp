// Micro-benchmarks (google-benchmark) of the individual substrates: force
// kernels, neighbor rebuild, reduction, phase dispatch, the cache model and
// the JaMON monitor.  These measure the *native* C++ code on the host,
// complementing the simulated end-to-end benches.
#include <benchmark/benchmark.h>

#include "md/engine.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/monitor.hpp"
#include "sim/cache.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace mwx;

md::Engine make_engine(const std::string& benchmark_name, int threads = 1) {
  auto spec = workloads::make_benchmark(benchmark_name, 7);
  auto cfg = spec.engine;
  cfg.n_threads = threads;
  cfg.temporaries = md::TemporariesMode::InPlace;
  return md::Engine(std::move(spec.system), cfg);
}

void BM_StepSalt(benchmark::State& state) {
  auto eng = make_engine("salt");
  for (auto _ : state) eng.run_inline(1);
  state.SetItemsProcessed(state.iterations() * eng.system().n_atoms());
}
BENCHMARK(BM_StepSalt)->Unit(benchmark::kMillisecond);

void BM_StepNanocar(benchmark::State& state) {
  auto eng = make_engine("nanocar");
  for (auto _ : state) eng.run_inline(1);
  state.SetItemsProcessed(state.iterations() * eng.system().n_atoms());
}
BENCHMARK(BM_StepNanocar)->Unit(benchmark::kMillisecond);

void BM_StepAl1000(benchmark::State& state) {
  auto eng = make_engine("Al-1000");
  for (auto _ : state) eng.run_inline(1);
  state.SetItemsProcessed(state.iterations() * eng.system().n_atoms());
}
BENCHMARK(BM_StepAl1000)->Unit(benchmark::kMillisecond);

void BM_ForcesOnly_LjGas(benchmark::State& state) {
  auto sys = workloads::make_lj_gas(static_cast<int>(state.range(0)), 0.012, 150.0, 3);
  md::EngineConfig cfg;
  cfg.n_threads = 1;
  cfg.temporaries = md::TemporariesMode::InPlace;
  md::Engine eng(std::move(sys), cfg);
  for (auto _ : state) {
    eng.compute_forces_only();
    benchmark::DoNotOptimize(eng.potential_energy());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ForcesOnly_LjGas)->Arg(250)->Arg(1000)->Arg(4000)->Unit(benchmark::kMicrosecond);

void BM_NeighborRebuild(benchmark::State& state) {
  auto sys = workloads::make_lj_gas(static_cast<int>(state.range(0)), 0.012, 150.0, 3);
  md::EngineConfig cfg;
  cfg.n_threads = 1;
  cfg.temporaries = md::TemporariesMode::InPlace;
  md::Engine eng(std::move(sys), cfg);
  for (auto _ : state) {
    eng.compute_forces_only();  // unconditional rebuild + forces
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NeighborRebuild)->Arg(1000)->Arg(8000)->Unit(benchmark::kMicrosecond);

// One empty 4-item phase on a 4-thread pool: the fork-join cost every
// engine phase and every for_chunks pass pays on top of its work.  The
// argument is the QueueMode (0 Single, 1 PerThread, 2 WorkStealing).
// With empty items the time tracks how many items the calling thread claims
// before the spinning workers arrive, so the caller's share of items is
// reported beside it (counter caller_share; 0.25 is one item per phase).
void BM_PhaseDispatch(benchmark::State& state) {
  parallel::FixedThreadPool pool(
      {.n_threads = 4, .queue_mode = static_cast<parallel::QueueMode>(state.range(0))});
  long long caller_items = 0;  // written by the calling thread only
  for (auto _ : state) {
    pool.run_phase(4, [&pool, &caller_items](int item) {
      benchmark::DoNotOptimize(item);
      if (pool.worker_index() < 0) ++caller_items;
    });
  }
  state.counters["caller_share"] =
      static_cast<double>(caller_items) / (4.0 * static_cast<double>(state.iterations()));
}
BENCHMARK(BM_PhaseDispatch)->Arg(0)->Arg(1)->Arg(2)->UseRealTime();

void BM_JamonMonitorAdd(benchmark::State& state) {
  perf::JamonMonitor monitor;
  for (auto _ : state) monitor.add("hot", 1e-6);
}
BENCHMARK(BM_JamonMonitorAdd);

void BM_CacheModelAccess(benchmark::State& state) {
  sim::SetAssocCache cache(256 * 1024, 64, 8);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addr, false));
    addr += 64;
    if (addr > (1u << 22)) addr = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheModelAccess);

void BM_SimulatedStepAl1000(benchmark::State& state) {
  // Cost of simulating one Al-1000 step on 4 modelled cores (the harness's
  // own overhead, relevant for reproducing long runs).
  auto spec = workloads::make_benchmark("Al-1000", 7);
  auto cfg = spec.engine;
  cfg.n_threads = 4;
  md::Engine eng(std::move(spec.system), cfg);
  sim::MachineConfig mc;
  mc.spec = topo::core_i7_920();
  mc.n_threads = 4;
  sim::Machine machine(mc);
  for (auto _ : state) eng.run_simulated(machine, 1);
}
BENCHMARK(BM_SimulatedStepAl1000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
