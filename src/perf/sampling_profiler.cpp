#include "perf/sampling_profiler.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "common/stats.hpp"

namespace mwx::perf {

double SamplingReport::displayed_imbalance() const {
  std::vector<double> v;
  v.reserve(threads.size());
  for (const auto& t : threads) v.push_back(t.displayed_busy_seconds);
  return v.empty() ? 1.0 : imbalance_ratio(v);
}

double SamplingReport::true_imbalance() const {
  std::vector<double> v;
  v.reserve(threads.size());
  for (const auto& t : threads) v.push_back(t.true_busy_seconds);
  return v.empty() ? 1.0 : imbalance_ratio(v);
}

double SamplingReport::worst_relative_error() const {
  double worst = 0.0;
  for (const auto& t : threads) {
    if (t.true_busy_seconds <= 0.0) continue;
    worst = std::max(worst, std::fabs(t.displayed_busy_seconds - t.true_busy_seconds) /
                                t.true_busy_seconds);
  }
  return worst;
}

SamplingReport sample(const EventLog& log, double period_seconds, double offset) {
  require(period_seconds > 0.0, "sampling period must be positive");
  require(offset >= 0.0 && offset < period_seconds, "offset must be in [0, period)");
  SamplingReport report;
  report.period_seconds = period_seconds;
  const auto [t0, t1] = log.span();
  for (int th = 0; th < log.n_threads(); ++th) {
    SampledThreadProfile p;
    p.thread = th;
    for (double t = t0 + offset; t < t1; t += period_seconds) {
      ++p.samples_total;
      if (log.at(th, t) != nullptr) {
        ++p.samples_busy;
        // Sample-and-hold credits the whole window to the sampled state, but
        // the final window may extend past the log: crediting a full period
        // there displays busy time that cannot exist.  Clamp it to the span.
        p.displayed_busy_seconds += std::min(period_seconds, t1 - t);
      }
    }
    p.true_busy_seconds = log.busy_in(th, t0, t1);
    report.threads.push_back(p);
  }
  return report;
}

long long count_false_windows(const EventLog& log, int thread, double period_seconds,
                              double truth_fraction, double offset) {
  require(period_seconds > 0.0, "sampling period must be positive");
  require(offset >= 0.0 && offset < period_seconds, "offset must be in [0, period)");
  const auto [t0, t1] = log.span();
  long long false_windows = 0;
  for (double t = t0 + offset; t < t1; t += period_seconds) {
    const bool displayed_busy = log.at(thread, t) != nullptr;
    const double window_end = std::min(t + period_seconds, t1);
    const double busy = log.busy_in(thread, t, window_end);
    const double window = window_end - t;
    if (window <= 0.0) break;
    const double agreement = displayed_busy ? busy / window : 1.0 - busy / window;
    if (agreement < truth_fraction) ++false_windows;
  }
  return false_windows;
}

}  // namespace mwx::perf
