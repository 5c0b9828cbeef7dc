// Load generation and service counters of the serving workload
// (gateway_cc.cc).
//
// Open loop: each stream is one client that waits for its reply, but its
// schedule never waits; every request is timed from when it was due, so a
// stalled stream charges every later request it delays.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runtime/executor.h"
#include "service/iteration_service.h"
#include "suite.h"

namespace sfdf {
namespace suite {

/// A fixed-rate open-loop schedule: request i is due at
/// start + (i + offset) / rate, whatever happened to request i - 1.
class Schedule {
 public:
  Schedule(Clock::time_point start, double rate, double offset = 0)
      : start_(start), rate_(rate), offset_(offset) {}

  Clock::time_point Due(int64_t i) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            (static_cast<double>(i) + offset_) / rate_));
  }

 private:
  Clock::time_point start_;
  double rate_;
  double offset_;
};

/// The measured window of an open-loop phase: it opens a few ms from now,
/// so every stream's thread is up before its first request is due.
struct Window {
  Clock::time_point start;
  Clock::time_point end;

  static Window Of(double seconds) {
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(5);
    return {start, start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds))};
  }
};

/// `streams` clients sharing `rate` requests/s. request(stream, i) performs
/// request i of a stream and returns whether it succeeded.
struct Load {
  int streams = 1;
  double rate = 0;
  std::function<bool(int, int64_t)> request;
};

struct LoadSamples {
  std::vector<double> latency_ms;  ///< due time → reply
  std::vector<double> late_ms;     ///< due time → issue
};

/// Runs every load's streams, staggered evenly, over `window`. Returns one
/// sample set per load.
std::vector<LoadSamples> RunOpenLoop(const std::vector<Load>& loads,
                                     const Window& window, OpCount* ops);

/// Length of the open-loop phase: half a traced run, three quarters of an
/// untraced one (the closed loop gets the rest).
inline double OpenLoopSeconds(const Config& config) {
  return config.trace ? config.seconds / 2 : 0.75 * config.seconds;
}

/// Per-layer metrics of the generator itself: tails kept out of the
/// end-to-end set, and how far behind schedule it ran.
void ReportLoadMetrics(const LoadSamples& writes, const LoadSamples& reads,
                       double seconds, Report* report);

/// The end-to-end metrics of a serving workload: writes are the operation,
/// reads the step.
void ReportServingEndToEnd(double setup_s, const LoadSamples& writes,
                           const LoadSamples& reads, double saturated_per_s,
                           double peak_rss_mb, Report* report);

/// Traced against untraced median write latency, in percent.
double OverheadPct(const LoadSamples& untraced, const LoadSamples& traced);

/// The service counters the per-layer metrics read, flattened so the
/// gateway's server process can ship them over a pipe.
using Counters = std::map<std::string, double>;

Counters ServiceCounters(const IterationService& service);

/// Exchange health of the whole resident session, once it stopped.
Counters FinalCounters(const std::optional<ExecutionResult>& exec);

/// Per-layer service and engine metrics over one measured phase; engine
/// counters are per warm round, the serving analogue of a batch job.
void ReportServiceDeltas(const Counters& before, const Counters& after,
                         double wall_ms, double depth_max, Report* report);

void ReportFinalCounters(const Counters& final_counters, Report* report);

}  // namespace suite
}  // namespace sfdf
