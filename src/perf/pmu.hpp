// Unified performance-counter vocabulary (the PMU layer).
//
// The paper's memory-behaviour analysis (Section V, Tables II/III) was read
// out of Intel VTune: per-core hardware counters attributed to program
// phases.  This header is the reproduction's common vocabulary for that
// data, with two providers behind one API:
//
//   * "sim"        — sim::Machine attributes its modelled cache/DRAM/steal/
//                    barrier counters to (engine phase, core) domains and
//                    exports them as a PmuReport (Machine::pmu_report());
//   * "perf_event" — perf::PmuAccumulator (native_pmu.hpp) samples real
//                    hardware counters per worker thread with phase brackets
//                    driven by the engine's phase hooks;
//   * "fallback"   — the same accumulator when perf_event_open is denied
//                    (containers, unprivileged CI): thread CPU time and soft
//                    page faults from clock_gettime/rusage, clearly labelled.
//
// A PmuReport is a dense (phase tag x lane) matrix of CounterSets, where a
// lane is a core (sim) or a worker thread (native).  tools/mwx-report joins
// these with TRACE_*.json and BENCH_*.json into the VTune-style run report.
#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace mwx::perf {

// Every counter either provider can fill.  Sim fills the modelled-machine
// fields; native fills the hardware (or fallback) fields.  Values are stored
// as double uniformly: counts stay exactly representable far beyond any
// realistic run length (2^53), and cycle/second-valued entries are naturally
// fractional.
enum class Counter : int {
  kCycles = 0,         // native: PERF_COUNT_HW_CPU_CYCLES
  kInstructions,       // native: PERF_COUNT_HW_INSTRUCTIONS
  kCacheReferences,    // native: PERF_COUNT_HW_CACHE_REFERENCES
  kCacheMisses,        // native: PERF_COUNT_HW_CACHE_MISSES
  kL1Hits,             // sim cache model, per level
  kL1Misses,
  kL1DirtyEvictions,
  kL2Hits,
  kL2Misses,
  kL2DirtyEvictions,
  kL3Hits,
  kL3Misses,
  kL3DirtyEvictions,
  kDramLineFetches,    // sim memory controller
  kDramRemoteFetches,  // subset served by a remote package's controller
  kDramWritebacks,
  kDramQueueCycles,
  kMigrations,         // sim OS-scheduler model
  kSteals,
  kStealOverheadCycles,
  kNoiseStallCycles,
  kQueueWaitCycles,
  kMonitorWaitCycles,
  kBarrierWaitCycles,
  kBusyCycles,         // task-execution time attributed to the domain
  kTasks,              // tasks (or task-chains) executed in the domain
  kCpuNanos,           // fallback: CLOCK_THREAD_CPUTIME_ID delta
  kSoftPageFaults,     // fallback: rusage minor faults
  kCount
};

inline constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::kCount);

// Snake-case stable name, used as the JSON key ("l2_misses", ...).
[[nodiscard]] const char* counter_name(Counter c);

// The conservation law (DESIGN §9): how a provider's (phase, lane) domains,
// summed, must relate to its machine-global total, per counter.
enum class Conservation : int {
  kExact,      // event counts: the sum equals the total
  kTolerance,  // cycle sums: equal up to floating-point association order
  kNone,       // busy_cycles, tasks: folded in from the event log, no total
};

[[nodiscard]] Conservation conservation_rule(Counter c);
[[nodiscard]] const char* conservation_rule_name(Conservation r);  // "exact", ...

// Relative tolerance of the kTolerance counters.
inline constexpr double kConservationRelTol = 1e-9;

// A bundle of counter values for one attribution domain.
struct CounterSet {
  std::array<double, kNumCounters> v{};

  [[nodiscard]] double& operator[](Counter c) { return v[static_cast<std::size_t>(c)]; }
  [[nodiscard]] double operator[](Counter c) const { return v[static_cast<std::size_t>(c)]; }

  CounterSet& operator+=(const CounterSet& o) {
    for (std::size_t i = 0; i < kNumCounters; ++i) v[i] += o.v[i];
    return *this;
  }
  [[nodiscard]] friend CounterSet operator+(CounterSet a, const CounterSet& b) {
    a += b;
    return a;
  }
  // Counter deltas (end-of-window minus start-of-window readings).
  [[nodiscard]] friend CounterSet operator-(CounterSet a, const CounterSet& b) {
    for (std::size_t i = 0; i < kNumCounters; ++i) a.v[i] -= b.v[i];
    return a;
  }

  [[nodiscard]] bool all_zero() const {
    for (double x : v) {
      if (x != 0.0) return false;
    }
    return true;
  }

  // Miss ratios of the modelled hierarchy, for Table II-style views.
  [[nodiscard]] double miss_rate(Counter hits, Counter misses) const {
    const double a = (*this)[hits] + (*this)[misses];
    return a > 0.0 ? (*this)[misses] / a : 0.0;
  }
};

// The counters whose summed domains break their conservation rule against
// the machine-global total, in Counter order; empty when the law holds.
[[nodiscard]] std::vector<Counter> conservation_violations(const CounterSet& domains,
                                                           const CounterSet& total);

// Attribution key: which lane (core or worker thread), during which engine
// phase.  -1 means "all" on either axis.
struct PmuDomain {
  int lane = -1;
  int phase = -1;
};

// A complete counter matrix from one provider over one run window.
class PmuReport {
 public:
  std::string provider;   // "sim" | "perf_event" | "fallback"
  std::string lane_kind;  // "core" | "worker"
  int n_lanes = 0;
  // Optional tag -> human name table (md::phase_tag_name_map()).  Emitted as
  // "phase_names" when non-empty so report consumers never hard-code the
  // engine's phase vocabulary.  Filled by the layer that knows the tags'
  // meaning (the tools / the planner), not by the providers.
  std::map<int, std::string> phase_names;

  // Mutable cell accessor; creates the phase row on first touch.
  [[nodiscard]] CounterSet& at(int phase, int lane);
  // Read-only cell lookup; nullptr when the domain was never touched.
  [[nodiscard]] const CounterSet* find(int phase, int lane) const;

  // Phase tags present, ascending.
  [[nodiscard]] std::vector<int> phases() const;

  [[nodiscard]] CounterSet phase_total(int phase) const;  // sum over lanes
  [[nodiscard]] CounterSet lane_total(int lane) const;    // sum over phases
  [[nodiscard]] CounterSet total() const;                 // sum over everything

  // PMU_<name>.json: schema_version/git_sha identity header, provider,
  // lane_kind, per-phase per-lane counter objects, per-phase and grand
  // totals, and (when `machine_total` is non-null) the provider's own
  // machine-global aggregate plus the conservation table (rule per counter,
  // kConservationRelTol) so consumers re-verify the law without a copy of it.
  void write_json(std::ostream& out, const std::string& name, const std::string& git_sha,
                  const CounterSet* machine_total = nullptr) const;

 private:
  std::map<int, std::vector<CounterSet>> by_phase_;  // phase tag -> per-lane
};

// JSON schema revision shared by every artifact emitter (PMU_*, BENCH_*,
// REPORT_*).  Bump when a consumer-visible field changes meaning.
inline constexpr int kArtifactSchemaVersion = 2;

// The git SHA baked in at configure time (MWX_GIT_SHA), or "unknown".
[[nodiscard]] const char* build_git_sha();

}  // namespace mwx::perf
