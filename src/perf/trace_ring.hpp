// TraceRing — the corrected always-on instrumentation layer.
//
// Section IV-A showed both measurement tools distorting the thing they
// measured: JaMON's synchronized monitor updates serialized parallel MW, and
// VisualVM's instrumentation agent stole a core for tool traffic.  TraceRing
// is the design those findings call for:
//
//   * one fixed-capacity ring of trace events per worker lane, written only
//     by that worker — no locks, no shared cache lines on the hot path;
//   * a writer appends with plain (relaxed) stores and publishes with one
//     release store of the lane head; cost is a handful of MOVs;
//   * readers never stop the writers: snapshot() copies each lane, re-reads
//     the head, and discards any slot the writer may have been overwriting
//     mid-copy (merge-at-read, the ShardedMonitor idea applied to events);
//   * bounded memory: when a lane wraps, the oldest events are dropped and
//     *counted* — the layer degrades by forgetting history, never by
//     applying backpressure to the traced code.
//
// Event cells store their fields as relaxed std::atomics so the concurrent
// snapshot copy is race-free by construction (validated under TSan); torn
// values are impossible and stale slots are rejected by the sequence check.
// By convention lane i belongs to worker i and the last lane to the
// master/external thread (phase and step brackets).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "perf/scoped_timer.hpp"

namespace mwx::perf {

enum class TraceKind : std::uint8_t {
  Phase = 0,    // one engine phase: begin = dispatch, end = barrier release
  Task = 1,     // one task executed by a worker
  Steal = 2,    // simulated steal (zero duration; arg = victim lane)
  // 3 is retired (pool quiesce waits); artifacts key on the numbers.
  Step = 4,     // one engine timestep (ring clock, or simulated seconds)
};

[[nodiscard]] const char* trace_kind_name(TraceKind kind);

struct TraceEvent {
  TraceKind kind = TraceKind::Task;
  std::int32_t tag = 0;  // caller label: phase id, step index, ...
  std::int32_t arg = 0;  // kind-specific: steal victim, chain slot, ...
  double begin = 0.0;    // seconds (ring clock or simulated seconds)
  double end = 0.0;
};

// One event with its provenance, as returned by snapshot().
struct MergedTraceEvent {
  TraceEvent event;
  int lane = 0;
  std::uint64_t seq = 0;  // per-lane sequence number (0-based)
};

struct TraceSnapshot {
  std::vector<MergedTraceEvent> events;  // merged, ordered by begin time
  std::uint64_t total_records = 0;       // records ever written (all lanes)
  std::uint64_t dropped = 0;             // overwritten before this snapshot
};

class TraceRing {
 public:
  // `capacity_per_lane` is rounded up to a power of two.  Lane `n_lanes-1`
  // is conventionally the external/master lane (see external_lane()).
  explicit TraceRing(int n_lanes, std::size_t capacity_per_lane = std::size_t{1} << 14);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  [[nodiscard]] int n_lanes() const { return static_cast<int>(lanes_.size()); }
  [[nodiscard]] std::size_t capacity_per_lane() const { return capacity_; }
  [[nodiscard]] int external_lane() const { return n_lanes() - 1; }

  // Seconds since ring construction (steady clock).  Writers that trace
  // simulated time pass their own timestamps instead.
  [[nodiscard]] double now() const { return clock_.elapsed_seconds(); }

  // Appends one event to `lane`.  Lock-free and wait-free; at most one
  // concurrent writer per lane (each worker owns its lane).  Never blocks
  // and never allocates: a full lane overwrites its oldest event.
  void record(int lane, TraceKind kind, int tag, double begin, double end, int arg = 0) {
    MWX_ASSERT(lane >= 0 && lane < n_lanes());
    Lane& l = *lanes_[static_cast<std::size_t>(lane)];
    const std::uint64_t h = l.head.load(std::memory_order_relaxed);
    Cell& c = l.cells[static_cast<std::size_t>(h) & mask_];
    c.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
    c.tag.store(tag, std::memory_order_relaxed);
    c.arg.store(arg, std::memory_order_relaxed);
    c.begin.store(begin, std::memory_order_relaxed);
    c.end.store(end, std::memory_order_relaxed);
    l.head.store(h + 1, std::memory_order_release);
  }

  // Records ever written across all lanes (monotonic; includes overwritten
  // ones).  The self-audit bench divides observed overhead by this.
  [[nodiscard]] std::uint64_t total_records() const;

  // Merge-at-read: copies every lane without stopping writers, drops slots
  // the writer may have been overwriting during the copy, and returns the
  // surviving events ordered by begin time.
  [[nodiscard]] TraceSnapshot snapshot() const;

  // Resets all lanes.  NOT safe against concurrent writers — callers must
  // quiesce the traced pool/engine first.
  void clear();

 private:
  // Fields are individually atomic (relaxed) so a concurrent snapshot copy
  // is data-race-free; validity is decided by the head re-check, not by the
  // values themselves.
  struct Cell {
    std::atomic<std::uint8_t> kind{0};
    std::atomic<std::int32_t> tag{0};
    std::atomic<std::int32_t> arg{0};
    std::atomic<double> begin{0.0};
    std::atomic<double> end{0.0};
  };

  struct alignas(64) Lane {
    explicit Lane(std::size_t cap) : cells(cap) {}
    std::vector<Cell> cells;
    std::atomic<std::uint64_t> head{0};  // next sequence number to write
  };

  std::size_t capacity_;
  std::uint64_t mask_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  StopWatch clock_;
};

// Writes a snapshot in the chrome://tracing (about://tracing, Perfetto)
// JSON object format: one complete "X" event per record, tid = lane.  A
// non-empty `phase_names` table is embedded as a top-level "phase_names" key
// (extra keys are legal in the object format) so consumers can render event
// tags without a hard-coded copy of the engine's phase vocabulary.
void write_chrome_trace(const TraceSnapshot& snapshot, std::ostream& out,
                        const std::map<int, std::string>& phase_names = {});

}  // namespace mwx::perf
