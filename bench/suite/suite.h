// Shared pieces of the benchmark suite binary: run configuration, the
// metric report every workload fills, order statistics and the seeded
// inputs.
//
// The suite only measures from outside: it times calls into the public
// entry points (RunPageRank, RunConnectedComponents, ServingCc,
// RpcGateway, RpcClient, GraphBuilder, src/baselines) and reads
// the counters they return. It never reaches into src/ internals.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "trace_fold.h"

namespace sfdf {
namespace suite {

using Clock = std::chrono::steady_clock;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase. In a traced run the first half is
  /// measured untraced (counters, overhead baseline), the second traced.
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs for a fast end-to-end check of every code path.
  bool smoke = false;
  /// Directory for Perfetto traces of a traced run; empty = none.
  std::string out_dir;

  /// Scale of the batch graphs against the Table 2 stand-ins: a quarter,
  /// so a run times a hundred jobs or more; 0.05 in smoke mode.
  double scale() const { return smoke ? 0.05 : 0.25; }
  /// Warm-up before anything is timed.
  double warmup_seconds() const { return seconds < 5 ? seconds / 5 : 1.0; }
  /// Untraced measured phase; the traced phase gets the rest.
  double untraced_seconds() const { return trace ? seconds / 2 : seconds; }
};

/// Partitions of every plan and workers of the process-wide engine.
inline constexpr int kPartitions = 4;

/// Operations attempted and failed. An operation is a job, a mutation, a
/// read or a final-state oracle check; it fails when it errors, is
/// refused, or disagrees with its oracle.
struct OpCount {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};

  void Record(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Everything one workload run reports.
class Report {
 public:
  void Set(const std::string& name, double value, const char* unit);

  OpCount ops;

  /// Prints every metric as `name value unit`, then the result object as
  /// the last line of standard output.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set of this process in MB.
double PeakRssMb();

/// Milliseconds between two clock readings.
inline double Millis(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// An undirected edge list and its vertex count: the input a workload
/// hands to GraphBuilder.
struct EdgeList {
  int64_t num_vertices = 0;
  std::vector<std::pair<VertexId, VertexId>> edges;
};

/// The Table 2 wikipedia / webbase stand-ins (graph/datasets.cc recipes)
/// with their R-MAT seeds derived from `seed`; seed 1 gives 1001 / 1002,
/// the seeds of the committed figure graphs.
EdgeList WikipediaEdges(uint64_t seed, double scale);
EdgeList WebbaseEdges(uint64_t seed, double scale);

/// The timed set-up of a batch workload: GraphBuilder over the edge list.
Graph BuildGraph(const EdgeList& edges);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

/// Sets the traced per-layer metrics from the folded spans: busy and self
/// times are per operation of the traced phase (`ops` jobs or committed
/// mutations over `wall_ms`, on an engine of `workers` workers).
void ReportTraceMetrics(const SpanSummaries& spans, double ops,
                        double wall_ms, int workers, Report* report);

/// Path of a Perfetto trace under config.out_dir, or "" when none is
/// wanted.
std::string TracePath(const Config& config, const char* suffix);

void RunPageRankWiki(const Config& config, Report* report);
void RunCcWebbase(const Config& config, Report* report, bool async);
void RunGatewayCc(const Config& config, Report* report);

}  // namespace suite
}  // namespace sfdf
