#include "suite.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "graph/generators.h"

namespace sfdf {
namespace suite {

void Report::Set(const std::string& name, double value, const char* unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Print() const {
  for (const Metric& metric : metrics_) {
    std::printf("%s %.17g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const int64_t attempted = ops.attempted.load();
  const int64_t failed = ops.failed.load();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              failed == 0 && attempted > 0 ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& metric = metrics_[i];
    // JSON has no NaN or infinity; a metric without samples reads 0.
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metric.name.c_str(), value,
                metric.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

int64_t CeilPow2(int64_t v) {
  int64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// graph/datasets.cc MakeCoreWithTail, stopping at the edge list: an R-MAT
/// core plus a path of `tail_length` vertices hanging off vertex 0.
EdgeList CoreWithTail(const RmatOptions& core, int64_t tail_length) {
  EdgeList list;
  const int64_t core_n = CeilPow2(std::max<int64_t>(2, core.num_vertices));
  list.num_vertices = core_n + tail_length;
  list.edges.reserve(static_cast<size_t>(core.num_edges + tail_length));
  GenerateRmatEdges(core, [&list](VertexId u, VertexId v) {
    list.edges.emplace_back(u, v);
  });
  VertexId previous = 0;
  for (int64_t i = 0; i < tail_length; ++i) {
    list.edges.emplace_back(previous, core_n + i);
    previous = core_n + i;
  }
  return list;
}

}  // namespace

EdgeList WikipediaEdges(uint64_t seed, double scale) {
  RmatOptions options;
  options.num_vertices = static_cast<int64_t>(65536 * scale);
  options.num_edges = static_cast<int64_t>(430000 * scale);
  options.seed = 1000 * seed + 1;
  return CoreWithTail(options, 11);
}

EdgeList WebbaseEdges(uint64_t seed, double scale) {
  RmatOptions options;
  options.num_vertices = static_cast<int64_t>(65536 * scale);
  options.num_edges = static_cast<int64_t>(1150000 * scale);
  options.seed = 1000 * seed + 2;
  const int64_t tail =
      std::max<int64_t>(32, static_cast<int64_t>(720 * std::sqrt(scale)));
  return CoreWithTail(options, tail);
}

Graph BuildGraph(const EdgeList& edges) {
  GraphBuilder builder(edges.num_vertices);
  for (const auto& [u, v] : edges.edges) builder.AddEdge(u, v);
  return builder.Build(/*symmetrize=*/true);
}

void ReportTraceMetrics(const SpanSummaries& spans, double ops,
                        double wall_ms, int workers, Report* report) {
  auto span = [&spans](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? SpanSummary{} : it->second;
  };
  const double per_op = ops > 0 ? 1.0 / ops : 0.0;
  // A worker's engine.task span is the outermost span on its thread, so
  // its total duration is the worker's busy time.
  const double busy_ms = span("engine.task").total_ms;
  report->Set("runtime.engine_busy_ms", busy_ms * per_op, "ms");
  report->Set("runtime.engine_utilization",
              wall_ms > 0 ? busy_ms / (wall_ms * workers) : 0.0, "ratio");
  report->Set("runtime.gate_decide_ms",
              span("superstep.decide").self_ms * per_op, "ms");
  report->Set("runtime.wave_ms_p50", span("superstep.wave").p50_ms, "ms");
  report->Set("runtime.async_round_ms", span("async.round").self_ms * per_op,
              "ms");
  report->Set("net.request_ms_p50", span("gateway.request").p50_ms, "ms");
  report->Set("net.request_ms_p90", span("gateway.request").p90_ms, "ms");
}

std::string TracePath(const Config& config, const char* suffix) {
  if (config.out_dir.empty()) return "";
  return config.out_dir + "/" + config.workload + "-seed" +
         std::to_string(config.seed) + suffix + ".trace.json";
}

}  // namespace suite
}  // namespace sfdf
