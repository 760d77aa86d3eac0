// Application-level performance monitors.
//
// JamonMonitor reproduces the Java Application Monitor's design: named
// start/stop counters whose updates are guarded by one global lock
// ("synchronized sections").  Section IV-A found that these synchronized
// updates *serialized* parallel MW — the first observer effect.  The
// monitor is kept deliberately faithful (one mutex for the whole registry)
// so the effect is measurable; the corrected design — per-lane records
// merged only at read time — is perf::TraceRing (trace_ring.hpp), which
// bench/trace_overhead measures against this monitor.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace mwx::perf {

struct MonitorSnapshot {
  std::string key;
  long long hits = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  [[nodiscard]] double mean_seconds() const {
    return hits > 0 ? total_seconds / static_cast<double>(hits) : 0.0;
  }
};

// Faithful JaMON-style monitor: every add() takes the registry lock.
class JamonMonitor {
 public:
  // Records one interval under `key`.  Thread-safe via a single global
  // mutex, exactly the serializing behaviour the paper measured.
  void add(const std::string& key, double seconds) {
    std::lock_guard lock(mutex_);
    auto& s = stats_[key];
    s.add(seconds);
  }

  [[nodiscard]] std::vector<MonitorSnapshot> snapshot() const {
    std::lock_guard lock(mutex_);
    std::vector<MonitorSnapshot> out;
    out.reserve(stats_.size());
    for (const auto& [key, s] : stats_) {
      out.push_back({key, s.count(), s.sum(), s.min(), s.max()});
    }
    return out;
  }

  [[nodiscard]] long long total_hits() const {
    std::lock_guard lock(mutex_);
    long long n = 0;
    for (const auto& [key, s] : stats_) n += s.count();
    return n;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, RunningStats> stats_;
};

}  // namespace mwx::perf
