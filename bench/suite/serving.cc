#include "serving.h"

#include <mutex>
#include <thread>

namespace sfdf {
namespace suite {

std::vector<LoadSamples> RunOpenLoop(const std::vector<Load>& loads,
                                     const Window& window, OpCount* ops) {
  std::vector<LoadSamples> results(loads.size());
  std::mutex results_mutex;
  std::vector<std::thread> threads;
  for (size_t l = 0; l < loads.size(); ++l) {
    for (int s = 0; s < loads[l].streams; ++s) {
      threads.emplace_back([&, l, s] {
        const Load& load = loads[l];
        const Schedule schedule(window.start, load.rate / load.streams,
                                static_cast<double>(s) / load.streams);
        LoadSamples local;
        for (int64_t i = 0;; ++i) {
          const Clock::time_point due = schedule.Due(i);
          if (due >= window.end) break;
          std::this_thread::sleep_until(due);
          local.late_ms.push_back(Millis(due, Clock::now()));
          const bool ok = load.request(s, i);
          local.latency_ms.push_back(Millis(due, Clock::now()));
          ops->Record(ok);
        }
        std::lock_guard<std::mutex> lock(results_mutex);
        LoadSamples& merged = results[l];
        merged.latency_ms.insert(merged.latency_ms.end(),
                                 local.latency_ms.begin(),
                                 local.latency_ms.end());
        merged.late_ms.insert(merged.late_ms.end(), local.late_ms.begin(),
                              local.late_ms.end());
      });
    }
  }
  for (std::thread& thread : threads) thread.join();
  return results;
}

void ReportLoadMetrics(const LoadSamples& writes, const LoadSamples& reads,
                       double seconds, Report* report) {
  report->Set("bench.ack_ms_p99", Quantile(writes.latency_ms, 0.99), "ms");
  report->Set("bench.query_ms_p99", Quantile(reads.latency_ms, 0.99), "ms");
  std::vector<double> late = writes.late_ms;
  late.insert(late.end(), reads.late_ms.begin(), reads.late_ms.end());
  double late_count = 0;
  for (double ms : late) late_count += ms > 1.0 ? 1 : 0;
  report->Set("bench.late_share",
              late.empty() ? 0.0
                           : late_count / static_cast<double>(late.size()),
              "ratio");
  report->Set("bench.late_ms_p99", Quantile(late, 0.99), "ms");
  report->Set("bench.offered_mut_per_s",
              static_cast<double>(writes.late_ms.size()) / seconds, "1/s");
  report->Set("bench.offered_query_per_s",
              static_cast<double>(reads.late_ms.size()) / seconds, "1/s");
}

void ReportServingEndToEnd(double setup_s, const LoadSamples& writes,
                           const LoadSamples& reads, double saturated_per_s,
                           double peak_rss_mb, Report* report) {
  report->Set("setup_s", setup_s, "s");
  report->Set("op_ms_p50", Quantile(writes.latency_ms, 0.5), "ms");
  report->Set("op_ms_p90", Quantile(writes.latency_ms, 0.9), "ms");
  report->Set("step_ms_p50", Quantile(reads.latency_ms, 0.5), "ms");
  report->Set("step_ms_p90", Quantile(reads.latency_ms, 0.9), "ms");
  report->Set("ops_per_s", saturated_per_s, "1/s");
  report->Set("peak_rss_mb", peak_rss_mb, "MB");
}

double OverheadPct(const LoadSamples& untraced, const LoadSamples& traced) {
  const double base = Quantile(untraced.latency_ms, 0.5);
  return base > 0 ? 100.0 * (Quantile(traced.latency_ms, 0.5) - base) / base
                  : 0.0;
}

// ---------------------------------------------------------------------------
// Service counters
// ---------------------------------------------------------------------------

Counters ServiceCounters(const IterationService& service) {
  const ServiceStats s = service.stats();
  const LatencyHistogram rounds = service.round_latency_histogram();
  return Counters{
      {"rounds", static_cast<double>(s.rounds)},
      {"applied", static_cast<double>(s.mutations_applied)},
      {"rejected", static_cast<double>(s.mutations_rejected)},
      {"supersteps", static_cast<double>(s.total_supersteps)},
      {"round_ms", s.total_round_millis},
      {"tasks", static_cast<double>(s.engine_tasks)},
      {"queue_wait_ms", s.engine_queue_wait_total_ms},
      {"queue_wait_max_ms", s.engine_queue_wait_max_ms},
      {"parks", static_cast<double>(s.engine_parks)},
      {"wakes", static_cast<double>(s.engine_wakes)},
      {"async_rounds", static_cast<double>(s.async_local_rounds)},
      {"async_revocations", static_cast<double>(s.async_vote_revocations)},
      {"async_staleness", static_cast<double>(s.async_max_staleness)},
      {"round_p50_ms", rounds.Quantile(0.5)},
      {"round_p90_ms", rounds.Quantile(0.9)},
  };
}

Counters FinalCounters(const std::optional<ExecutionResult>& exec) {
  if (!exec) return {};
  const double pool =
      static_cast<double>(exec->batch_pool_hits + exec->batch_pool_misses);
  return Counters{
      {"pool_hit_ratio",
       pool > 0 ? static_cast<double>(exec->batch_pool_hits) / pool : 0.0},
      {"queue_depth_hw", static_cast<double>(exec->queue_depth_high_water)},
  };
}

void ReportServiceDeltas(const Counters& before, const Counters& after,
                         double wall_ms, double depth_max, Report* report) {
  auto delta = [&](const char* key) {
    return after.at(key) - before.at(key);
  };
  auto per = [](double value, double base) {
    return base > 0 ? value / base : 0.0;
  };
  const double rounds = delta("rounds");
  report->Set("service.rounds", rounds, "count");
  report->Set("service.mutations_per_round", per(delta("applied"), rounds),
              "count");
  report->Set("service.round_ms_p50", after.at("round_p50_ms"), "ms");
  report->Set("service.round_ms_p90", after.at("round_p90_ms"), "ms");
  report->Set("service.supersteps_per_round",
              per(delta("supersteps"), rounds), "count");
  report->Set("service.round_duty", per(delta("round_ms"), wall_ms), "ratio");
  report->Set("service.admission_depth_max", depth_max, "count");
  report->Set("service.rejected", delta("rejected"), "count");
  report->Set("runtime.engine_tasks", per(delta("tasks"), rounds), "count");
  report->Set("runtime.engine_tasks_per_superstep",
              per(delta("tasks"), delta("supersteps")), "count");
  report->Set("runtime.engine_queue_wait_ms",
              per(delta("queue_wait_ms"), rounds), "ms");
  report->Set("runtime.engine_queue_wait_max_ms",
              after.at("queue_wait_max_ms"), "ms");
  report->Set("runtime.engine_parks", per(delta("parks"), rounds), "count");
  report->Set("runtime.engine_wakes", per(delta("wakes"), rounds), "count");
  report->Set("runtime.async_local_rounds",
              per(delta("async_rounds"), rounds), "count");
  report->Set("runtime.async_vote_revocations",
              per(delta("async_revocations"), rounds), "count");
  report->Set("runtime.async_max_staleness", after.at("async_staleness"),
              "count");
}

void ReportFinalCounters(const Counters& final_counters, Report* report) {
  if (final_counters.empty()) return;
  report->Set("runtime.pool_hit_ratio", final_counters.at("pool_hit_ratio"),
              "ratio");
  report->Set("runtime.queue_depth_hw", final_counters.at("queue_depth_hw"),
              "count");
}

}  // namespace suite
}  // namespace sfdf
