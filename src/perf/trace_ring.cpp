#include "perf/trace_ring.hpp"

#include <algorithm>
#include <ostream>

namespace mwx::perf {

namespace {
std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::Phase: return "phase";
    case TraceKind::Task: return "task";
    case TraceKind::Steal: return "steal";
    case TraceKind::Quiesce: return "quiesce";
    case TraceKind::Step: return "step";
  }
  return "unknown";
}

TraceRing::TraceRing(int n_lanes, std::size_t capacity_per_lane)
    : capacity_(round_up_pow2(std::max<std::size_t>(2, capacity_per_lane))),
      mask_(capacity_ - 1) {
  require(n_lanes > 0, "trace ring needs at least one lane");
  lanes_.reserve(static_cast<std::size_t>(n_lanes));
  for (int i = 0; i < n_lanes; ++i) lanes_.push_back(std::make_unique<Lane>(capacity_));
}

std::uint64_t TraceRing::total_records() const {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) n += lane->head.load(std::memory_order_acquire);
  return n;
}

TraceSnapshot TraceRing::snapshot() const {
  TraceSnapshot snap;
  for (int li = 0; li < n_lanes(); ++li) {
    const Lane& lane = *lanes_[static_cast<std::size_t>(li)];
    const std::uint64_t head = lane.head.load(std::memory_order_acquire);
    // The writer's next store targets slot `head & mask_`, which aliases
    // sequence `head - capacity`; exclude it so a half-written cell can
    // never be copied even before the head advances.
    const std::uint64_t lo = head > mask_ ? head - mask_ : 0;
    std::vector<MergedTraceEvent> copied;
    copied.reserve(static_cast<std::size_t>(head - lo));
    for (std::uint64_t seq = lo; seq < head; ++seq) {
      const Cell& c = lane.cells[static_cast<std::size_t>(seq) & mask_];
      MergedTraceEvent m;
      m.event.kind = static_cast<TraceKind>(c.kind.load(std::memory_order_relaxed));
      m.event.tag = c.tag.load(std::memory_order_relaxed);
      m.event.arg = c.arg.load(std::memory_order_relaxed);
      m.event.begin = c.begin.load(std::memory_order_relaxed);
      m.event.end = c.end.load(std::memory_order_relaxed);
      m.lane = li;
      m.seq = seq;
      copied.push_back(m);
    }
    // Re-read the head: anything the writer lapped during the copy holds a
    // newer event (or a torn mix) and is discarded, not mis-reported.
    const std::uint64_t head2 = lane.head.load(std::memory_order_acquire);
    const std::uint64_t valid_lo = head2 > mask_ ? head2 - mask_ : 0;
    for (auto& m : copied) {
      if (m.seq >= valid_lo) snap.events.push_back(m);
    }
    snap.total_records += head;
    snap.dropped += std::max(lo, valid_lo);
  }
  std::stable_sort(snap.events.begin(), snap.events.end(),
                   [](const MergedTraceEvent& a, const MergedTraceEvent& b) {
                     return a.event.begin < b.event.begin;
                   });
  return snap;
}

void TraceRing::clear() {
  for (auto& lane : lanes_) lane->head.store(0, std::memory_order_release);
}

void write_chrome_trace(const TraceSnapshot& snapshot, std::ostream& out,
                        const std::map<int, std::string>& phase_names) {
  out << "{";
  if (!phase_names.empty()) {
    // Extra top-level keys are legal in the chrome://tracing object format;
    // mwx-report reads this instead of hard-coding the tag vocabulary.
    out << "\"phase_names\":{";
    bool first = true;
    for (const auto& [tag, name] : phase_names) {
      out << (first ? "" : ",") << "\"" << tag << "\":\"" << name << "\"";
      first = false;
    }
    out << "},\n";
  }
  out << "\"traceEvents\":[";
  bool first = true;
  for (const auto& m : snapshot.events) {
    if (!first) out << ",";
    first = false;
    // chrome://tracing wants microseconds; complete ("X") events carry their
    // own duration so no begin/end pairing is needed.
    out << "\n{\"name\":\"" << trace_kind_name(m.event.kind) << "\",\"ph\":\"X\",\"pid\":0"
        << ",\"tid\":" << m.lane << ",\"ts\":" << m.event.begin * 1e6
        << ",\"dur\":" << (m.event.end - m.event.begin) * 1e6
        << ",\"args\":{\"tag\":" << m.event.tag << ",\"arg\":" << m.event.arg
        << ",\"seq\":" << m.seq << "}}";
  }
  out << "\n]}\n";
}

}  // namespace mwx::perf
