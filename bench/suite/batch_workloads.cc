// The batch workloads: bulk PageRank on the wikipedia stand-in and
// incremental Connected Components on the webbase stand-in, superstep and
// barrier-free. A run builds the graph kSetups times, runs warm-up jobs for
// a second, then times back-to-back jobs for the measured phase; every
// job's output is checked against the sequential reference.
#include <cmath>
#include <cstdio>
#include <functional>

#include "algos/connected_components.h"
#include "algos/pagerank.h"
#include "baselines/giraph/giraph.h"
#include "baselines/spark/spark.h"
#include "graph/union_find.h"
#include "suite.h"

namespace sfdf {
namespace suite {
namespace {

/// One timed Run* call: its wall time and the counters it returned.
struct Job {
  double wall_ms = 0;
  ExecutionResult exec;
};

/// Runs one job; false when it errored or disagreed with its oracle.
using JobFn = std::function<bool(Job*)>;

/// The job's loop report: PageRank's bulk iteration or CC's workset one.
const IterationReport& LoopReport(const ExecutionResult& exec) {
  return exec.bulk_reports.empty() ? exec.workset_reports.at(0)
                                   : exec.bulk_reports.at(0);
}

/// Runs jobs back to back for `seconds` (at least three), recording each
/// as an operation. With a trace window, each job is a bench.job span and
/// the rings are snapshotted after it.
std::vector<Job> RunJobs(const JobFn& run, double seconds, Report* report,
                         TraceWindow* window = nullptr) {
  static const uint16_t kJobSpan = trace::RegisterName("bench.job");
  std::vector<Job> jobs;
  const Clock::time_point start = Clock::now();
  while (jobs.size() < 3 ||
         Millis(start, Clock::now()) < seconds * 1000.0) {
    Job job;
    bool ok;
    {
      trace::Span span(kJobSpan);
      ok = run(&job);
    }
    if (window != nullptr) window->Snapshot();
    report->ops.Record(ok);
    if (!ok) break;  // a failed job leaves nothing to measure
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Per-step times of one job: each superstep, or for a barrier-free job
/// (no global supersteps) its mean local round.
std::vector<double> StepMillis(const Job& job, bool async) {
  const IterationReport& loop = LoopReport(job.exec);
  if (async) {
    return {loop.iterations > 0 ? job.exec.total_millis / loop.iterations
                                : job.exec.total_millis};
  }
  std::vector<double> steps;
  for (const SuperstepStats& stats : loop.supersteps) {
    steps.push_back(stats.millis);
  }
  return steps;
}

double OpMillisP50(const std::vector<Job>& jobs) {
  std::vector<double> walls;
  for (const Job& job : jobs) walls.push_back(job.wall_ms);
  return Median(walls);
}

void ReportEndToEnd(const std::vector<Job>& jobs, bool async,
                    Report* report) {
  std::vector<double> walls;
  std::vector<double> steps;
  double total_ms = 0;
  for (const Job& job : jobs) {
    walls.push_back(job.wall_ms);
    total_ms += job.wall_ms;
    for (double step : StepMillis(job, async)) steps.push_back(step);
  }
  report->Set("op_ms_p50", Quantile(walls, 0.5), "ms");
  report->Set("op_ms_p90", Quantile(walls, 0.9), "ms");
  report->Set("step_ms_p50", Quantile(steps, 0.5), "ms");
  report->Set("step_ms_p90", Quantile(steps, 0.9), "ms");
  report->Set("ops_per_s",
              1000.0 * static_cast<double>(jobs.size()) / total_ms, "1/s");
}

/// Per-layer counters of the untraced jobs, as medians over jobs.
void ReportJobCounters(const std::vector<Job>& jobs, bool async,
                       Report* report) {
  struct Series {
    const char* unit;
    std::vector<double> values;
  };
  std::map<std::string, Series> per_job;
  auto add = [&per_job](const char* name, double value, const char* unit) {
    Series& series = per_job.try_emplace(name, Series{unit, {}}).first->second;
    series.values.push_back(value);
  };
  auto ratio = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  std::vector<double> steps;
  std::vector<double> first_steps;
  double applied = 0;
  double discarded = 0;
  for (const Job& job : jobs) {
    const ExecutionResult& e = job.exec;
    const IterationReport& loop = LoopReport(e);
    double workset = 0;
    double lookups = 0;
    for (const SuperstepStats& stats : loop.supersteps) {
      workset += static_cast<double>(stats.workset_size);
      lookups += static_cast<double>(stats.solution_lookups);
      applied += static_cast<double>(stats.delta_applied);
      discarded += static_cast<double>(stats.delta_discarded);
    }
    double local_rounds = 0;
    for (int64_t rounds : e.async_local_rounds) {
      local_rounds += static_cast<double>(rounds);
    }
    add("algos.plan_ms", job.wall_ms - e.total_millis, "ms");
    add("runtime.exec_ms", e.total_millis, "ms");
    add("runtime.supersteps", loop.iterations, "count");
    add("runtime.records_shipped", static_cast<double>(e.records_shipped),
        "count");
    add("runtime.records_remote", static_cast<double>(e.records_remote),
        "count");
    add("runtime.records_combined", static_cast<double>(e.records_combined),
        "count");
    add("runtime.bytes_per_record",
        ratio(static_cast<double>(e.bytes_shipped),
              static_cast<double>(e.records_shipped)),
        "B");
    add("runtime.pool_hit_ratio",
        ratio(static_cast<double>(e.batch_pool_hits),
              static_cast<double>(e.batch_pool_hits + e.batch_pool_misses)),
        "ratio");
    add("runtime.queue_depth_hw", static_cast<double>(e.queue_depth_high_water),
        "count");
    add("runtime.engine_tasks", static_cast<double>(e.engine_tasks), "count");
    add("runtime.engine_tasks_per_superstep",
        ratio(static_cast<double>(e.engine_tasks), loop.iterations), "count");
    add("runtime.engine_queue_wait_ms",
        static_cast<double>(e.engine_queue_wait_ns_total) / 1e6, "ms");
    add("runtime.engine_queue_wait_max_ms",
        static_cast<double>(e.engine_queue_wait_ns_max) / 1e6, "ms");
    add("runtime.engine_parks", static_cast<double>(e.engine_parks), "count");
    add("runtime.engine_wakes", static_cast<double>(e.engine_wakes), "count");
    add("runtime.async_local_rounds", local_rounds, "count");
    add("runtime.async_vote_revocations",
        static_cast<double>(e.async_vote_revocations), "count");
    add("runtime.async_max_staleness",
        static_cast<double>(e.async_max_staleness), "count");
    add("core.workset_records", workset, "count");
    add("core.solution_lookups", lookups, "count");
    for (double step : StepMillis(job, async)) steps.push_back(step);
    if (!async && !loop.supersteps.empty()) {
      first_steps.push_back(loop.supersteps.front().millis);
    }
  }
  for (auto& [name, series] : per_job) {
    report->Set(name, Median(series.values), series.unit);
  }
  report->Set("runtime.superstep_ms_p50", Median(steps), "ms");
  report->Set("runtime.iter1_ms", Median(first_steps), "ms");
  report->Set("core.delta_useful_ratio", ratio(applied, applied + discarded),
              "ratio");
}

/// The shared shape of a batch workload run, after set-up. Returns the
/// untraced jobs.
std::vector<Job> RunBatch(const Config& config, const JobFn& run, bool async,
                          Report* report) {
  const Clock::time_point warmup_start = Clock::now();
  do {
    Job warmup;
    report->ops.Record(run(&warmup));
  } while (Millis(warmup_start, Clock::now()) <
           config.warmup_seconds() * 1000.0);
  std::vector<Job> untraced = RunJobs(run, config.untraced_seconds(), report);
  if (untraced.empty()) return untraced;
  if (!config.trace) {
    ReportEndToEnd(untraced, async, report);
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return untraced;
  }
  ReportJobCounters(untraced, async, report);
  TraceWindow window;
  const std::vector<Job> traced =
      RunJobs(run, config.seconds - config.untraced_seconds(), report, &window);
  const TraceCollector collected = window.Finish();
  double traced_wall_ms = 0;
  for (const Job& job : traced) traced_wall_ms += job.wall_ms;
  ReportTraceMetrics(Summarize(FoldSelfTime(collected)),
                     static_cast<double>(traced.size()), traced_wall_ms,
                     kPartitions, report);
  const double untraced_p50 = OpMillisP50(untraced);
  report->Set("obs.trace_overhead_pct",
              untraced_p50 > 0
                  ? 100.0 * (OpMillisP50(traced) - untraced_p50) / untraced_p50
                  : 0.0,
              "%");
  report->Set("obs.trace_lapped_windows", collected.lapped_windows(), "count");
  const std::string path = TracePath(config, "");
  if (!path.empty() && !WriteChromeTrace(collected, path)) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
  return untraced;
}

template <typename Fn>
double TimeMillis(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return Millis(start, Clock::now());
}

/// Builds the graph kSetups times and reports the median as setup_s.
Graph SetUp(const EdgeList& edges, const Config& config, Report* report) {
  Graph graph;
  std::vector<double> seconds;
  for (int i = 0; i < kSetups; ++i) {
    seconds.push_back(TimeMillis([&] { graph = BuildGraph(edges); }) / 1000.0);
  }
  if (config.trace) {
    report->Set("graph.build_ms", Median(seconds) * 1000.0, "ms");
  } else {
    report->Set("setup_s", Median(seconds), "s");
  }
  return graph;
}

void ReportFailure(const char* workload, const std::string& what) {
  std::fprintf(stderr, "%s: %s\n", workload, what.c_str());
}

}  // namespace

void RunPageRankWiki(const Config& config, Report* report) {
  constexpr int kIterations = 20;
  constexpr double kDamping = 0.85;
  const Graph graph =
      SetUp(WikipediaEdges(config.seed, config.scale()), config, report);
  std::vector<double> reference;
  const double sequential_ms = TimeMillis(
      [&] { reference = ReferencePageRank(graph, kIterations, kDamping); });

  PageRankOptions options;
  options.iterations = kIterations;
  options.damping = kDamping;
  options.plan = PageRankPlan::kPartition;
  options.parallelism = kPartitions;
  const JobFn run = [&](Job* job) {
    Result<PageRankResult> result = Status::Internal("not run");
    job->wall_ms = TimeMillis([&] { result = RunPageRank(graph, options); });
    if (!result.ok()) {
      ReportFailure("pagerank-wiki", result.status().ToString());
      return false;
    }
    job->exec = std::move(result->exec);
    if (result->ranks.empty()) {
      ReportFailure("pagerank-wiki", "oracle mismatch: no ranks");
      return false;
    }
    for (const auto& [pid, rank] : result->ranks) {
      if (!(std::fabs(rank - reference[pid]) <= 1e-9)) {
        ReportFailure("pagerank-wiki", "oracle mismatch: rank of vertex " +
                                           std::to_string(pid));
        return false;
      }
    }
    return true;
  };
  const std::vector<Job> untraced =
      RunBatch(config, run, /*async=*/false, report);
  if (!config.trace) return;

  // Host calibration: the in-repo baselines on the same graph, same run.
  report->Set("baselines.sequential_ms", sequential_ms, "ms");
  spark::SparkOptions spark_options;
  spark_options.parallelism = kPartitions;
  auto spark_run = spark::PageRank(graph, kIterations, kDamping, spark_options);
  giraph::GiraphOptions giraph_options;
  giraph_options.parallelism = kPartitions;
  auto giraph_run =
      giraph::PageRank(graph, kIterations, kDamping, giraph_options);
  report->ops.Record(spark_run.ok());
  report->ops.Record(giraph_run.ok());
  std::vector<double> spark_steps;
  std::vector<double> giraph_steps;
  if (spark_run.ok()) {
    for (const auto& it : spark_run->stats.iterations) {
      spark_steps.push_back(it.millis);
    }
  }
  if (giraph_run.ok()) {
    for (const auto& step : giraph_run->stats.supersteps) {
      giraph_steps.push_back(step.millis);
    }
  }
  std::vector<double> strato_steps;
  for (const Job& job : untraced) {
    for (double step : StepMillis(job, /*async=*/false)) {
      strato_steps.push_back(step);
    }
  }
  const double spark_p50 = Median(spark_steps);
  report->Set("baselines.spark_iter_ms_p50", spark_p50, "ms");
  report->Set("baselines.giraph_iter_ms_p50", Median(giraph_steps), "ms");
  report->Set("baselines.strato_over_spark",
              spark_p50 > 0 ? Median(strato_steps) / spark_p50 : 0.0, "ratio");
}

void RunCcWebbase(const Config& config, Report* report, bool async) {
  const char* name = async ? "cc-webbase-async" : "cc-webbase";
  const Graph graph =
      SetUp(WebbaseEdges(config.seed, config.scale()), config, report);
  std::vector<VertexId> reference;
  const double sequential_ms =
      TimeMillis([&] { reference = ReferenceComponents(graph); });

  CcOptions options;
  options.variant = CcVariant::kIncrementalCoGroup;
  options.parallelism = kPartitions;
  options.max_iterations = 100000;
  options.sync_mode = async ? SyncMode::kAsync : SyncMode::kSuperstep;
  const JobFn run = [&](Job* job) {
    Result<CcResult> result = Status::Internal("not run");
    job->wall_ms =
        TimeMillis([&] { result = RunConnectedComponents(graph, options); });
    if (!result.ok()) {
      ReportFailure(name, result.status().ToString());
      return false;
    }
    job->exec = std::move(result->exec);
    if (!result->converged) {
      ReportFailure(name, "oracle mismatch: did not converge");
      return false;
    }
    if (result->labels != reference) {
      ReportFailure(name, "oracle mismatch: labels differ from union-find");
      return false;
    }
    return true;
  };
  RunBatch(config, run, async, report);
  if (config.trace) report->Set("baselines.sequential_ms", sequential_ms, "ms");
}

}  // namespace suite
}  // namespace sfdf
