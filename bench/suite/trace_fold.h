// Per-layer attribution from the flight recorder (obs/trace.h), measured
// from outside the program: the suite arms tracing, snapshots the per-thread
// rings in windows short enough that they cannot lap unseen, and folds the
// collected spans into self time per span name.
//
//   TraceWindow ──Snapshot() per window──▶ TraceCollector (dedup, laps)
//                                                 │ events
//                                                 ▼
//                                  FoldSelfTime ──▶ per-name totals
//                                  WriteChromeTrace ──▶ Perfetto JSON
//
// Limits: spans nest only by time containment on one thread; a span on
// another thread (the engine task a job waits for) is never its child.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"

namespace sfdf {
namespace suite {

/// Ring capacity of one recorder thread (ThreadBuffer::kCapacity in
/// obs/trace.cc).
inline constexpr size_t kTraceRingCapacity = 8192;

/// One collected event; `name` indexes TraceCollector::names().
struct FoldEvent {
  uint32_t tid = 0;
  uint32_t name = 0;
  int64_t ts_ns = 0;
  int64_t dur_ns = -1;  ///< < 0 = instant
  int64_t arg = 0;

  int64_t end_ns() const { return dur_ns < 0 ? ts_ns : ts_ns + dur_ns; }
};

/// Accumulates successive trace::Snapshot() windows into one duplicate-free
/// event list. Snapshots overlap (each holds everything still resident in
/// the rings), so per thread only events ending after the newest end seen
/// so far are new — a thread emits events in end-time order. A window
/// "lapped" when a thread's ring was full and its oldest resident event is
/// already past that watermark: the events in between were overwritten
/// before any snapshot saw them.
class TraceCollector {
 public:
  explicit TraceCollector(size_t ring_capacity = kTraceRingCapacity)
      : ring_capacity_(ring_capacity) {}

  void AddWindow(const std::vector<trace::TraceEvent>& snapshot);

  int lapped_windows() const { return lapped_windows_; }
  const std::vector<FoldEvent>& events() const { return events_; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  uint32_t Intern(const std::string& name);

  size_t ring_capacity_;
  int lapped_windows_ = 0;
  std::vector<FoldEvent> events_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> name_ids_;
  std::unordered_map<uint32_t, int64_t> watermark_;  ///< tid → newest end
};

/// Totals of one span name.
struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  /// Duration minus the part of the span its direct children cover.
  int64_t self_ns = 0;
  std::vector<int64_t> durations_ns;
};

/// Folds the collected spans per thread: a span's parent is the innermost
/// span on the same thread that contains it in time; a span that only
/// partially overlaps an earlier one is that span's sibling. Self time is
/// the duration minus the union of the direct children's intervals, so
/// overlapping children are not counted twice. Instants are ignored.
std::map<std::string, SpanTotals> FoldSelfTime(const TraceCollector& trace);

/// One span name's totals in milliseconds, with duration quantiles.
struct SpanSummary {
  double count = 0;
  double total_ms = 0;
  double self_ms = 0;
  double p50_ms = 0;
  double p90_ms = 0;
};
using SpanSummaries = std::map<std::string, SpanSummary>;

SpanSummaries Summarize(const std::map<std::string, SpanTotals>& folded);

/// Writes the collected events as Chrome trace-event JSON (loads in
/// Perfetto). Returns false on I/O failure.
bool WriteChromeTrace(const TraceCollector& trace, const std::string& path);

/// Arms the process-wide recorder for its lifetime and snapshots the rings
/// every `period_ms` on a background thread, plus whenever Snapshot() is
/// called (the suite calls it after every job).
class TraceWindow {
 public:
  explicit TraceWindow(int period_ms = 100);
  ~TraceWindow();
  TraceWindow(const TraceWindow&) = delete;
  TraceWindow& operator=(const TraceWindow&) = delete;

  void Snapshot();

  /// Disarms tracing, takes the last snapshot and stops the thread.
  /// Call once.
  TraceCollector Finish();

 private:
  void Loop(int period_ms);
  /// Joins the snapshot thread and disarms tracing.
  void Stop();

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;        // guarded by mutex_
  TraceCollector collector_;     // guarded by mutex_
  std::thread thread_;
};

}  // namespace suite
}  // namespace sfdf
