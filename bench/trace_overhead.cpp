// Self-audit of the trace layer (the corrected Section IV-A design).
//
// The paper found that the measurement tools distorted the measurement:
// JaMON's synchronized monitors serialized parallel MW.  TraceRing is our
// always-on replacement, so it must audit its own observer effect as a
// first-class number: run the same 8-thread Al-1000 (Lennard-Jones) workload
// uninstrumented, with TraceRing attached, and with JamonMonitor attached —
// at the same per-task event rate — and report the per-event overhead of
// each layer plus their ratio.  A second, allocation-free record loop
// measures the raw per-call cost of both layers under 8-thread load.
//
// The audit also verifies that attaching the trace layer leaves the engine's
// observables bit-identical (energies compared bitwise), and exports the
// traced run as TRACE_trace_overhead.json for chrome://tracing.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/monitor.hpp"
#include "perf/scoped_timer.hpp"
#include "perf/trace_ring.hpp"

namespace {

constexpr int kThreads = 8;
constexpr int kUpdatesPerTask = 64;  // instrumentation depth (per-atom-ish)

enum class Mode { Uninstrumented, TraceRing, Jamon };

struct AuditRun {
  double seconds = 0.0;
  double pe = 0.0;
  double ke = 0.0;
  unsigned long long events = 0;
};

AuditRun run_native(Mode mode, int steps, mwx::perf::TraceRing* export_ring = nullptr) {
  using namespace mwx;
  workloads::BenchmarkSpec spec = workloads::make_al1000();
  md::EngineConfig cfg = spec.engine;
  cfg.n_threads = kThreads;
  cfg.monitor_updates_per_task = mode == Mode::Uninstrumented ? 0 : kUpdatesPerTask;
  md::Engine engine(std::move(spec.system), cfg);
  parallel::FixedThreadPool pool(
      {.n_threads = kThreads, .queue_mode = parallel::QueueMode::PerThread});

  perf::TraceRing local_ring(kThreads + 1, std::size_t{1} << 16);
  perf::TraceRing* ring = export_ring != nullptr ? export_ring : &local_ring;
  perf::JamonMonitor monitor;
  engine.run_native(pool, 5);  // warmup before attaching instrumentation
  if (mode == Mode::TraceRing) {
    engine.attach_trace(ring);
  } else if (mode == Mode::Jamon) {
    engine.attach_monitor(&monitor);
  }

  perf::StopWatch watch;
  engine.run_native(pool, steps);
  AuditRun r;
  r.seconds = watch.elapsed_seconds();
  r.pe = engine.potential_energy();
  r.ke = engine.kinetic_energy();
  r.events = mode == Mode::Jamon ? static_cast<unsigned long long>(monitor.total_hits())
                                 : ring->total_records();
  pool.shutdown();
  return r;
}

AuditRun best_of(Mode mode, int steps, int reps) {
  AuditRun best = run_native(mode, steps);
  for (int i = 1; i < reps; ++i) {
    const AuditRun r = run_native(mode, steps);
    if (r.seconds < best.seconds) best = r;
  }
  return best;
}

// Raw per-call cost under 8-thread load: every thread hammers its layer with
// the same number of records, no engine in the way.
template <typename Body>
double loop_seconds(int per_thread, Body&& body) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  mwx::perf::StopWatch watch;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] { body(w, per_thread); });
  }
  for (auto& t : threads) t.join();
  return watch.elapsed_seconds();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mwx;
  const int steps = argc > 1 ? std::atoi(argv[1]) : 40;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 3;

  std::cout << "Trace-layer self-audit: Al-1000 (LJ), " << kThreads
            << " native threads, " << kUpdatesPerTask << " records/task, " << steps
            << " steps, best of " << reps << "\n\n";

  const AuditRun base = best_of(Mode::Uninstrumented, steps, reps);
  perf::TraceRing ring(kThreads + 1, std::size_t{1} << 16);
  AuditRun traced = run_native(Mode::TraceRing, steps, &ring);
  for (int i = 1; i < reps; ++i) {
    ring.clear();
    const AuditRun r = run_native(Mode::TraceRing, steps, &ring);
    if (r.seconds < traced.seconds) traced = r;
  }
  const AuditRun jamon = best_of(Mode::Jamon, steps, reps);

  // Per-event overhead attributed by subtraction; the raw record loop below
  // bounds the trace figure from below when the workload delta drowns in
  // scheduler noise (the trace layer's cost *is* that small).
  const double trace_delta = std::max(0.0, traced.seconds - base.seconds);
  const double jamon_delta = std::max(0.0, jamon.seconds - base.seconds);
  const double trace_event_ns =
      traced.events > 0 ? trace_delta / static_cast<double>(traced.events) * 1e9 : 0.0;
  const double jamon_event_ns =
      jamon.events > 0 ? jamon_delta / static_cast<double>(jamon.events) * 1e9 : 0.0;

  // Each loop body mirrors the engine's actual per-event call verbatim:
  // TraceRing takes integer tags; JaMON is keyed by "phase.<tag>" strings
  // built per event (that string build + map lookup under the global mutex
  // *is* its per-event cost).  Min-of-reps strips scheduler noise.
  constexpr int kLoopReps = 3;
  constexpr int kLoopPerThread = 200000;
  perf::TraceRing loop_ring(kThreads + 1, std::size_t{1} << 12);
  double trace_loop_s = 1e30;
  double jamon_loop_s = 1e30;
  for (int rep = 0; rep < kLoopReps; ++rep) {
    loop_ring.clear();
    trace_loop_s = std::min(trace_loop_s, loop_seconds(kLoopPerThread, [&](int w, int n) {
                     for (int i = 0; i < n; ++i) {
                       loop_ring.record(w, perf::TraceKind::Task, i & 7, 0.0, 1.0, w);
                     }
                   }));
    perf::JamonMonitor loop_monitor;
    jamon_loop_s =
        std::min(jamon_loop_s, loop_seconds(kLoopPerThread / 10, [&](int, int n) {
          for (int i = 0; i < n; ++i) {
            loop_monitor.add("phase." + std::to_string(i & 7), 1e-6);
          }
        }));
  }
  const double trace_loop_ns = trace_loop_s / (double(kLoopPerThread) * kThreads) * 1e9;
  const double jamon_loop_ns =
      jamon_loop_s / (double(kLoopPerThread / 10) * kThreads) * 1e9;

  // The headline ratio compares the two layers under the *same* methodology —
  // the record loop, where each side pays exactly its engine call — because
  // the workload subtraction cannot attribute nanosecond-scale costs on a box
  // whose scheduler noise per step exceeds the whole instrumentation budget
  // (the deltas above are context, not the measurement).
  const double overhead_ratio = trace_loop_ns > 0 ? jamon_loop_ns / trace_loop_ns : 0.0;

  // Observer-effect audit: instrumentation must not change the physics.
  const bool pe_identical = std::memcmp(&base.pe, &traced.pe, sizeof(double)) == 0;
  const bool ke_identical = std::memcmp(&base.ke, &traced.ke, sizeof(double)) == 0;
  const bool jamon_pe_identical = std::memcmp(&base.pe, &jamon.pe, sizeof(double)) == 0;

  Table table({"Configuration", "ms/step", "Slowdown", "events", "ns/event"});
  auto add = [&](const std::string& name, const AuditRun& r, double ns) {
    table.row(name, Table::fixed(r.seconds / steps * 1e3, 3),
              Table::fixed(r.seconds / base.seconds, 3),
              Table::fixed(static_cast<double>(r.events), 0), Table::fixed(ns, 1));
  };
  add("uninstrumented", base, 0.0);
  add("TraceRing", traced, trace_event_ns);
  add("JamonMonitor", jamon, jamon_event_ns);
  table.print(std::cout);
  std::cout << "\nrecord-loop cost: TraceRing " << Table::fixed(trace_loop_ns, 1)
            << " ns/record, JamonMonitor " << Table::fixed(jamon_loop_ns, 1)
            << " ns/add\nobserver-effect ratio (JaMON / TraceRing, record loop): "
            << Table::fixed(overhead_ratio, 1) << "x\nenergies bit-identical: "
            << (pe_identical && ke_identical ? "yes" : "NO") << "\n";

  {
    std::ofstream out("TRACE_trace_overhead.json");
    perf::write_chrome_trace(ring.snapshot(), out);
    std::cout << "chrome://tracing view written to TRACE_trace_overhead.json\n";
  }

  bench::JsonEmitter json("trace_overhead");
  json.metric("workload", "threads", kThreads);
  json.metric("workload", "steps", steps);
  json.metric("workload", "records_per_task", kUpdatesPerTask);
  json.metric("workload", "base_ms_per_step", base.seconds / steps * 1e3);
  json.metric("workload", "trace_ms_per_step", traced.seconds / steps * 1e3);
  json.metric("workload", "jamon_ms_per_step", jamon.seconds / steps * 1e3);
  json.metric("workload", "trace_events", static_cast<double>(traced.events));
  json.metric("workload", "jamon_events", static_cast<double>(jamon.events));
  json.metric("workload", "trace_ns_per_event", trace_event_ns);
  json.metric("workload", "jamon_ns_per_event", jamon_event_ns);
  json.metric("record_loop", "trace_ns_per_record", trace_loop_ns);
  json.metric("record_loop", "jamon_ns_per_add", jamon_loop_ns);
  json.metric("audit", "overhead_ratio_jamon_over_trace", overhead_ratio);
  json.metric("audit", "energies_bit_identical",
              pe_identical && ke_identical ? 1.0 : 0.0);
  json.metric("audit", "jamon_pe_bit_identical", jamon_pe_identical ? 1.0 : 0.0);
  json.note("audit", "chrome_trace", "TRACE_trace_overhead.json");
  std::cout << "wrote " << json.write() << "\n";

  return overhead_ratio >= 10.0 && pe_identical && ke_identical ? 0 : 1;
}
