#include "perf/pmu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "common/require.hpp"

namespace mwx::perf {

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kCycles: return "cycles";
    case Counter::kInstructions: return "instructions";
    case Counter::kCacheReferences: return "cache_references";
    case Counter::kCacheMisses: return "cache_misses";
    case Counter::kL1Hits: return "l1_hits";
    case Counter::kL1Misses: return "l1_misses";
    case Counter::kL1DirtyEvictions: return "l1_dirty_evictions";
    case Counter::kL2Hits: return "l2_hits";
    case Counter::kL2Misses: return "l2_misses";
    case Counter::kL2DirtyEvictions: return "l2_dirty_evictions";
    case Counter::kL3Hits: return "l3_hits";
    case Counter::kL3Misses: return "l3_misses";
    case Counter::kL3DirtyEvictions: return "l3_dirty_evictions";
    case Counter::kDramLineFetches: return "dram_line_fetches";
    case Counter::kDramRemoteFetches: return "dram_remote_fetches";
    case Counter::kDramWritebacks: return "dram_writebacks";
    case Counter::kDramQueueCycles: return "dram_queue_cycles";
    case Counter::kMigrations: return "migrations";
    case Counter::kSteals: return "steals";
    case Counter::kStealOverheadCycles: return "steal_overhead_cycles";
    case Counter::kNoiseStallCycles: return "noise_stall_cycles";
    case Counter::kQueueWaitCycles: return "queue_wait_cycles";
    case Counter::kMonitorWaitCycles: return "monitor_wait_cycles";
    case Counter::kBarrierWaitCycles: return "barrier_wait_cycles";
    case Counter::kBusyCycles: return "busy_cycles";
    case Counter::kTasks: return "tasks";
    case Counter::kCpuNanos: return "cpu_nanos";
    case Counter::kSoftPageFaults: return "soft_page_faults";
    case Counter::kCount: break;
  }
  return "unknown";
}

Conservation conservation_rule(Counter c) {
  switch (c) {
    case Counter::kDramQueueCycles:
    case Counter::kStealOverheadCycles:
    case Counter::kNoiseStallCycles:
    case Counter::kQueueWaitCycles:
    case Counter::kMonitorWaitCycles:
    case Counter::kBarrierWaitCycles:
      return Conservation::kTolerance;
    case Counter::kBusyCycles:
    case Counter::kTasks:
      return Conservation::kNone;
    default:
      return Conservation::kExact;
  }
}

const char* conservation_rule_name(Conservation r) {
  switch (r) {
    case Conservation::kExact: return "exact";
    case Conservation::kTolerance: return "tolerance";
    case Conservation::kNone: return "none";
  }
  return "unknown";
}

std::vector<Counter> conservation_violations(const CounterSet& domains, const CounterSet& total) {
  std::vector<Counter> out;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    const double d = domains.v[i];
    const double t = total.v[i];
    const Conservation rule = conservation_rule(c);
    const bool ok =
        rule == Conservation::kNone || d == t ||
        (rule == Conservation::kTolerance &&
         std::fabs(d - t) <= kConservationRelTol * std::max({std::fabs(d), std::fabs(t), 1.0}));
    if (!ok) out.push_back(c);
  }
  return out;
}

const char* build_git_sha() {
#ifdef MWX_GIT_SHA
  return MWX_GIT_SHA;
#else
  return "unknown";
#endif
}

CounterSet& PmuReport::at(int phase, int lane) {
  require(n_lanes > 0, "PmuReport needs n_lanes set before cells are touched");
  require(lane >= 0 && lane < n_lanes, "lane out of range");
  auto& row = by_phase_[phase];
  if (row.empty()) row.resize(static_cast<std::size_t>(n_lanes));
  return row[static_cast<std::size_t>(lane)];
}

const CounterSet* PmuReport::find(int phase, int lane) const {
  const auto it = by_phase_.find(phase);
  if (it == by_phase_.end()) return nullptr;
  if (lane < 0 || lane >= static_cast<int>(it->second.size())) return nullptr;
  return &it->second[static_cast<std::size_t>(lane)];
}

std::vector<int> PmuReport::phases() const {
  std::vector<int> out;
  out.reserve(by_phase_.size());
  for (const auto& [tag, row] : by_phase_) out.push_back(tag);
  return out;
}

CounterSet PmuReport::phase_total(int phase) const {
  CounterSet sum;
  const auto it = by_phase_.find(phase);
  if (it == by_phase_.end()) return sum;
  for (const auto& cell : it->second) sum += cell;
  return sum;
}

CounterSet PmuReport::lane_total(int lane) const {
  CounterSet sum;
  for (const auto& [tag, row] : by_phase_) {
    if (lane >= 0 && lane < static_cast<int>(row.size())) {
      sum += row[static_cast<std::size_t>(lane)];
    }
  }
  return sum;
}

CounterSet PmuReport::total() const {
  CounterSet sum;
  for (const auto& [tag, row] : by_phase_) {
    for (const auto& cell : row) sum += cell;
  }
  return sum;
}

namespace {
void write_counter_object(std::ostream& out, const CounterSet& c, const char* indent) {
  out << "{";
  bool first = true;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    // Zero-suppressed: domains touch a small counter subset, and the report
    // joiner treats missing keys as zero.
    if (c.v[i] == 0.0) continue;
    out << (first ? "\n" : ",\n") << indent << "  \""
        << counter_name(static_cast<Counter>(i)) << "\": " << c.v[i];
    first = false;
  }
  if (!first) out << "\n" << indent;
  out << "}";
}
}  // namespace

void PmuReport::write_json(std::ostream& out, const std::string& name,
                           const std::string& git_sha, const CounterSet* machine_total) const {
  // Round-trip precision: the report joiner re-verifies conservation against
  // machine_total, which 6-significant-digit formatting would defeat.
  const auto old_precision = out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\n"
      << "  \"kind\": \"pmu\",\n"
      << "  \"schema_version\": " << kArtifactSchemaVersion << ",\n"
      << "  \"name\": \"" << name << "\",\n"
      << "  \"git_sha\": \"" << git_sha << "\",\n"
      << "  \"provider\": \"" << provider << "\",\n"
      << "  \"lane_kind\": \"" << lane_kind << "\",\n"
      << "  \"n_lanes\": " << n_lanes << ",\n";
  if (!phase_names.empty()) {
    out << "  \"phase_names\": {";
    bool first = true;
    for (const auto& [tag, pname] : phase_names) {
      out << (first ? "\n" : ",\n") << "    \"" << tag << "\": \"" << pname << "\"";
      first = false;
    }
    out << "\n  },\n";
  }
  out << "  \"phases\": {";
  bool first_phase = true;
  for (const auto& [tag, row] : by_phase_) {
    out << (first_phase ? "\n" : ",\n") << "    \"" << tag << "\": {\n"
        << "      \"lanes\": [";
    first_phase = false;
    for (std::size_t l = 0; l < row.size(); ++l) {
      out << (l == 0 ? "\n        " : ",\n        ");
      write_counter_object(out, row[l], "        ");
    }
    out << "\n      ],\n      \"total\": ";
    write_counter_object(out, phase_total(tag), "      ");
    out << "\n    }";
  }
  out << "\n  },\n  \"total\": ";
  write_counter_object(out, total(), "  ");
  if (machine_total != nullptr) {
    out << ",\n  \"machine_total\": ";
    write_counter_object(out, *machine_total, "  ");
    out << ",\n  \"conservation\": {\n    \"rel_tol\": " << kConservationRelTol
        << ",\n    \"rules\": {";
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      const auto c = static_cast<Counter>(i);
      out << (i == 0 ? "\n" : ",\n") << "      \"" << counter_name(c) << "\": \""
          << conservation_rule_name(conservation_rule(c)) << "\"";
    }
    out << "\n    }\n  }";
  }
  out << "\n}\n";
  out.precision(old_precision);
}

}  // namespace mwx::perf
