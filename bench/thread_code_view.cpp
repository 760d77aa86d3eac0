// Section IV-C reproduction: identifying what code each thread is executing.
//
// "Using VisualVM, we could see no way to determine, for a given moment in
// time, what code a particular thread was executing ... A simple way to see
// what method a thread was executing at a given moment for all threads would
// be tremendously helpful."
//
// We run Al-1000 on 4 simulated cores, then print (a) the exact all-threads
// code timeline from the event log — the wished-for view — and (b) the same
// window as a 10 ms sample-and-hold profiler would have displayed, with the
// disagreement fraction quantifying how misleading the 2010 view was.
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "md/engine.hpp"
#include "perf/timeline.hpp"
#include "sim/machine.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace mwx;
  const int steps = argc > 1 ? std::atoi(argv[1]) : 40;

  workloads::BenchmarkSpec spec = workloads::make_benchmark("Al-1000", 7);
  md::EngineConfig cfg = spec.engine;
  cfg.n_threads = 4;
  md::Engine engine(std::move(spec.system), cfg);
  sim::MachineConfig mc;
  mc.spec = topo::core_i7_920();
  mc.n_threads = 4;
  sim::Machine machine(mc);
  engine.run_simulated(machine, steps);

  const perf::EventLog& log = machine.event_log();
  const auto [t0, t1] = log.span();
  // Each live phase tag renders as its hex digit.
  static_assert(md::kNumPhaseTags <= 16, "phase tags no longer fit one hex digit");
  std::map<int, char> symbols;
  std::string legend;
  for (const auto& [tag, name] : md::phase_tag_name_map()) {
    if (tag == 0) continue;
    symbols[tag] = "0123456789abcdef"[tag];
    legend += std::string(1, symbols[tag]) + "=" + name + " ";
  }
  const perf::TimelineView view(symbols);

  std::cout << "What code is each thread executing? (Section IV-C), Al-1000, 4 cores\n"
            << legend << ".=idle\n\n";

  // Zoom on a few steps in the middle of the run.
  const double mid = 0.5 * (t0 + t1);
  const double window = (t1 - t0) * 6.0 / steps;  // about six steps wide
  std::cout << "Exact view (" << Table::fixed(window * 1e3, 1) << " ms window):\n"
            << view.render(log, mid, mid + window, 100) << '\n';

  for (double period : {5e-3, 1e-3}) {
    std::cout << "Sample-and-hold view at " << Table::fixed(period * 1e3, 0) << " ms:\n"
              << view.render_sampled(log, mid, mid + window, 100, period);
    std::cout << "  -> disagrees with truth in "
              << Table::fixed(
                     view.sampled_disagreement(log, mid, mid + window, 100, period) * 100.0,
                     1)
              << "% of cells\n\n";
  }

  // The instantaneous query the paper asked for.
  Table table({"Time (ms)", "T0", "T1", "T2", "T3"});
  auto name_of = [](int tag) {
    const char* name = tag > 0 ? md::phase_tag_name(tag) : nullptr;
    return name != nullptr ? name : "idle";
  };
  for (int k = 0; k < 6; ++k) {
    const double t = mid + k * window / 6.0;
    const auto tags = perf::TimelineView::tags_at(log, t);
    table.row(Table::fixed(t * 1e3, 3), name_of(tags[0]), name_of(tags[1]), name_of(tags[2]),
              name_of(tags[3]));
  }
  table.print(std::cout, "\"What method is thread X in right now?\"");
  return 0;
}
