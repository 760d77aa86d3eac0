// Allocation tracker — the VisualVM "live allocated objects" stand-in.
//
// Section V-B used VisualVM's live-objects view to discover that "over 50%
// of our live memory was being used by one type of temporary object, a
// simple convenience class that wraps together three floating point values",
// but the view could not attribute allocations to threads.  This tracker
// records per-type *and per-thread* live/total counts, answering exactly the
// question the paper says the tool could not.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/require.hpp"

namespace mwx::perf {

struct TypeReport {
  std::string type_name;
  std::size_t instance_bytes = 0;
  long long live_count = 0;
  long long total_allocated = 0;
  long long peak_live_count = 0;  // high-water mark between collections
  [[nodiscard]] long long live_bytes() const {
    return live_count * static_cast<long long>(instance_bytes);
  }
  [[nodiscard]] long long peak_live_bytes() const {
    return peak_live_count * static_cast<long long>(instance_bytes);
  }
};

class AllocationTracker {
 public:
  // `n_threads` lanes; thread -1 (unknown) maps to lane 0, mirroring the
  // tool limitation only when the caller does not know its worker index.
  explicit AllocationTracker(int n_threads) : n_threads_(n_threads) {
    require(n_threads > 0, "tracker needs at least one thread lane");
  }

  // Registers a tracked type; returns its id.  Not thread-safe (call during
  // setup, before workers run).  `transient_type` marks short-lived objects
  // that a young-generation collection reclaims.
  int register_type(std::string name, std::size_t instance_bytes, bool transient_type = true) {
    types_.push_back({std::move(name), instance_bytes, transient_type});
    counters_.emplace_back(std::make_unique<Lanes>(n_threads_));
    return static_cast<int>(types_.size()) - 1;
  }

  void on_alloc(int type_id, int thread) { on_alloc(type_id, thread, 1); }

  // `count` allocations at once: the same live, total and peak as `count`
  // single calls, for three atomic updates instead of 3 x count.
  void on_alloc(int type_id, int thread, long long count) {
    MWX_ASSERT(count >= 0);
    auto& lane = lane_of(type_id, thread);
    const long long live = lane.live.fetch_add(count, std::memory_order_relaxed) + count;
    lane.total.fetch_add(count, std::memory_order_relaxed);
    long long peak = lane.peak.load(std::memory_order_relaxed);
    while (live > peak &&
           !lane.peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
    }
  }

  void on_free(int type_id, int thread) {
    lane_of(type_id, thread).live.fetch_sub(1, std::memory_order_relaxed);
  }

  // Models a young-generation collection: transient types' live counts drop
  // to zero (the paper's temporaries "live until the next garbage
  // collection"); long-lived types survive.
  void collect_garbage() {
    for (std::size_t t = 0; t < counters_.size(); ++t) {
      if (!types_[t].transient_type) continue;
      for (auto& lane : counters_[t]->lanes) lane.live.store(0, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] int n_types() const { return static_cast<int>(types_.size()); }

  [[nodiscard]] TypeReport report(int type_id) const {
    require(type_id >= 0 && type_id < n_types(), "type id out of range");
    TypeReport r;
    r.type_name = types_[static_cast<std::size_t>(type_id)].name;
    r.instance_bytes = types_[static_cast<std::size_t>(type_id)].bytes;
    for (const auto& lane : counters_[static_cast<std::size_t>(type_id)]->lanes) {
      r.live_count += lane.live.load(std::memory_order_relaxed);
      r.total_allocated += lane.total.load(std::memory_order_relaxed);
      r.peak_live_count += lane.peak.load(std::memory_order_relaxed);
    }
    return r;
  }

  // Live instances of `type_id` allocated by `thread` — the attribution the
  // paper wished VisualVM provided.
  [[nodiscard]] long long live_by_thread(int type_id, int thread) const {
    require(type_id >= 0 && type_id < n_types(), "type id out of range");
    require(thread >= 0 && thread < n_threads_, "thread out of range");
    return counters_[static_cast<std::size_t>(type_id)]
        ->lanes[static_cast<std::size_t>(thread)]
        .live.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::vector<TypeReport> all_reports() const {
    std::vector<TypeReport> out;
    out.reserve(types_.size());
    for (int i = 0; i < n_types(); ++i) out.push_back(report(i));
    return out;
  }

  // Fraction of total live bytes owned by `type_id` (0 when heap is empty).
  [[nodiscard]] double live_bytes_fraction(int type_id) const {
    long long total = 0;
    for (int i = 0; i < n_types(); ++i) total += report(i).live_bytes();
    return total > 0 ? static_cast<double>(report(type_id).live_bytes()) /
                           static_cast<double>(total)
                     : 0.0;
  }

 private:
  struct alignas(64) Lane {
    std::atomic<long long> live{0};
    std::atomic<long long> total{0};
    std::atomic<long long> peak{0};
  };
  struct Lanes {
    explicit Lanes(int n) : lanes(static_cast<std::size_t>(n)) {}
    std::vector<Lane> lanes;
  };
  struct TypeInfo {
    std::string name;
    std::size_t bytes;
    bool transient_type = true;
  };

  Lane& lane_of(int type_id, int thread) {
    MWX_ASSERT(type_id >= 0 && type_id < n_types());
    const int lane = thread >= 0 && thread < n_threads_ ? thread : 0;
    return counters_[static_cast<std::size_t>(type_id)]->lanes[static_cast<std::size_t>(lane)];
  }

  int n_threads_;
  std::vector<TypeInfo> types_;
  std::vector<std::unique_ptr<Lanes>> counters_;
};

}  // namespace mwx::perf
