#include "trace_fold.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <utility>

namespace sfdf {
namespace suite {

uint32_t TraceCollector::Intern(const std::string& name) {
  auto [it, inserted] =
      name_ids_.emplace(name, static_cast<uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

void TraceCollector::AddWindow(
    const std::vector<trace::TraceEvent>& snapshot) {
  struct ThreadWindow {
    size_t resident = 0;
    int64_t oldest_end = INT64_MAX;
    int64_t newest_end = INT64_MIN;
  };
  std::unordered_map<uint32_t, ThreadWindow> threads;
  for (const trace::TraceEvent& event : snapshot) {
    const int64_t end =
        event.dur_ns < 0 ? event.ts_ns : event.ts_ns + event.dur_ns;
    ThreadWindow& window = threads[event.tid];
    ++window.resident;
    window.oldest_end = std::min(window.oldest_end, end);
    window.newest_end = std::max(window.newest_end, end);
    auto seen = watermark_.find(event.tid);
    if (seen != watermark_.end() && end <= seen->second) continue;
    events_.push_back(FoldEvent{event.tid, Intern(event.name), event.ts_ns,
                                event.dur_ns, event.arg});
  }
  // A ring that is full (less the few slots a racing writer may have torn
  // and the snapshot discarded) has overwritten its oldest events.
  const size_t full = ring_capacity_ - ring_capacity_ / 64;
  bool lapped = false;
  for (const auto& [tid, window] : threads) {
    auto seen = watermark_.find(tid);
    const bool unseen_gap =
        seen == watermark_.end() || window.oldest_end > seen->second;
    if (window.resident >= full && unseen_gap) lapped = true;
    int64_t& mark = watermark_.emplace(tid, INT64_MIN).first->second;
    mark = std::max(mark, window.newest_end);
  }
  if (lapped) ++lapped_windows_;
}

std::map<std::string, SpanTotals> FoldSelfTime(const TraceCollector& trace) {
  std::map<uint32_t, std::vector<const FoldEvent*>> per_thread;
  for (const FoldEvent& event : trace.events()) {
    if (event.dur_ns >= 0) per_thread[event.tid].push_back(&event);
  }
  std::vector<SpanTotals> totals(trace.names().size());
  struct Frame {
    const FoldEvent* span;
    int64_t covered_until;
    int64_t covered_ns;
  };
  auto close = [&totals](const Frame& frame) {
    SpanTotals& t = totals[frame.span->name];
    ++t.count;
    t.total_ns += frame.span->dur_ns;
    t.self_ns += frame.span->dur_ns - frame.covered_ns;
    t.durations_ns.push_back(frame.span->dur_ns);
  };
  for (auto& [tid, spans] : per_thread) {
    // Parents before their children: earlier start first, and on a tie the
    // longer span first.
    std::sort(spans.begin(), spans.end(),
              [](const FoldEvent* a, const FoldEvent* b) {
                if (a->ts_ns != b->ts_ns) return a->ts_ns < b->ts_ns;
                return a->end_ns() > b->end_ns();
              });
    std::vector<Frame> stack;
    for (const FoldEvent* span : spans) {
      // Close every open span that cannot contain this one: it ended
      // before this one started, or it ends inside it (partial overlap).
      while (!stack.empty() &&
             (stack.back().span->end_ns() <= span->ts_ns ||
              stack.back().span->end_ns() < span->end_ns())) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) {
        // Children arrive in start order, so the covered part of the
        // parent grows as one union of intervals.
        Frame& parent = stack.back();
        const int64_t from = std::max(span->ts_ns, parent.covered_until);
        if (span->end_ns() > from) {
          parent.covered_ns += span->end_ns() - from;
          parent.covered_until = span->end_ns();
        }
      }
      stack.push_back(Frame{span, span->ts_ns, 0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  std::map<std::string, SpanTotals> by_name;
  for (size_t id = 0; id < totals.size(); ++id) {
    if (totals[id].count > 0) {
      by_name[trace.names()[id]] = std::move(totals[id]);
    }
  }
  return by_name;
}

SpanSummaries Summarize(const std::map<std::string, SpanTotals>& folded) {
  auto quantile_ms = [](std::vector<int64_t> sorted, double q) {
    std::sort(sorted.begin(), sorted.end());
    const size_t index = static_cast<size_t>(q * (sorted.size() - 1));
    return static_cast<double>(sorted[index]) / 1e6;
  };
  SpanSummaries summaries;
  for (const auto& [name, totals] : folded) {
    summaries[name] = SpanSummary{
        static_cast<double>(totals.count),
        static_cast<double>(totals.total_ns) / 1e6,
        static_cast<double>(totals.self_ns) / 1e6,
        quantile_ms(totals.durations_ns, 0.5),
        quantile_ms(totals.durations_ns, 0.9)};
  }
  return summaries;
}

bool WriteChromeTrace(const TraceCollector& trace, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"traceEvents\":[", file);
  bool first = true;
  for (const FoldEvent& event : trace.events()) {
    std::string name;
    for (char c : trace.names()[event.name]) {
      if (c == '"' || c == '\\') name.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) name.push_back(c);
    }
    std::fprintf(file, "%s{\"name\":\"%s\",\"cat\":\"sfdf\"", first ? "" : ",",
                 name.c_str());
    first = false;
    if (event.dur_ns >= 0) {
      std::fprintf(file, ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f",
                   static_cast<double>(event.ts_ns) / 1000.0,
                   static_cast<double>(event.dur_ns) / 1000.0);
    } else {
      std::fprintf(file, ",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f",
                   static_cast<double>(event.ts_ns) / 1000.0);
    }
    std::fprintf(file, ",\"pid\":1,\"tid\":%u,\"args\":{\"v\":%lld}}",
                 event.tid, static_cast<long long>(event.arg));
  }
  std::fputs("]}\n", file);
  return std::fclose(file) == 0;
}

TraceWindow::TraceWindow(int period_ms) {
  trace::SetEnabled(true);
  thread_ = std::thread([this, period_ms] { Loop(period_ms); });
}

TraceWindow::~TraceWindow() { Stop(); }

void TraceWindow::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  trace::SetEnabled(false);
}

void TraceWindow::Snapshot() {
  // Snapshots are taken and added under one lock so windows enter the
  // collector in the order they were taken.
  std::lock_guard<std::mutex> lock(mutex_);
  collector_.AddWindow(trace::Snapshot());
}

void TraceWindow::Loop(int period_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                       [this] { return stopping_; })) {
    collector_.AddWindow(trace::Snapshot());
  }
}

TraceCollector TraceWindow::Finish() {
  Stop();
  std::lock_guard<std::mutex> lock(mutex_);
  collector_.AddWindow(trace::Snapshot());
  return std::move(collector_);
}

}  // namespace suite
}  // namespace sfdf
