// Sampling-profiler model.
//
// Reconstructs what a periodic thread-state sampler (VisualVM ≈ 1 s, VTune ≈
// 5–10 ms) would have reported for an execution whose ground truth is an
// EventLog, including the display artifact Section IV-B describes: the tool
// "sampled the thread state immediately before it changed, but continued to
// display the sampled state until the next sample" — i.e. sample-and-hold.
#pragma once

#include <vector>

#include "perf/event_log.hpp"

namespace mwx::perf {

struct SampledThreadProfile {
  int thread = 0;
  long long samples_total = 0;
  long long samples_busy = 0;
  // Busy time the tool *displays*: one held period per busy sample
  // (sample-and-hold), with the final window clamped to the log span.
  double displayed_busy_seconds = 0.0;
  // Exact busy time from the event log over the same window.
  double true_busy_seconds = 0.0;
};

struct SamplingReport {
  double period_seconds = 0.0;
  std::vector<SampledThreadProfile> threads;

  // max/mean of displayed busy time — the imbalance a user of the tool sees.
  [[nodiscard]] double displayed_imbalance() const;
  // max/mean of true busy time — the imbalance that actually existed.
  [[nodiscard]] double true_imbalance() const;
  // Largest per-thread relative error of displayed vs true busy time.
  [[nodiscard]] double worst_relative_error() const;
};

// Samples thread states at t0 + k*period (phase offset `offset` in [0,period))
// over the log's span.
SamplingReport sample(const EventLog& log, double period_seconds, double offset = 0.0);

// A "false positive" in the paper's sense: a sampling window displayed as
// fully busy/idle although the underlying state changed almost immediately
// after the sample.  Counts windows whose displayed state matches the true
// state for less than `truth_fraction` of the window.
long long count_false_windows(const EventLog& log, int thread, double period_seconds,
                              double truth_fraction = 0.5, double offset = 0.0);

}  // namespace mwx::perf
