#include "algos/sssp.h"

#include <gtest/gtest.h>
#include <cmath>

#include "graph/generators.h"

namespace sfdf {
namespace {

void ExpectDistancesMatch(const Graph& graph, const SsspResult& result,
                          VertexId source, int max_weight) {
  std::vector<double> reference = ReferenceSssp(graph, source, max_weight);
  ASSERT_EQ(result.distances.size(), reference.size());
  for (size_t v = 0; v < reference.size(); ++v) {
    if (std::isinf(reference[v])) {
      EXPECT_TRUE(std::isinf(result.distances[v])) << "vertex " << v;
    } else {
      EXPECT_NEAR(result.distances[v], reference[v], 1e-9) << "vertex " << v;
    }
  }
}

TEST(SsspTest, HopCountsOnRmat) {
  RmatOptions opt;
  opt.num_vertices = 1024;
  opt.num_edges = 4096;
  Graph graph = GenerateRmat(opt);
  SsspOptions options;
  options.source = 0;
  options.parallelism = 2;
  auto result = RunSssp(graph, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->converged);
  ExpectDistancesMatch(graph, *result, 0, 1);
}

TEST(SsspTest, WeightedDistancesAtOddAndEvenParallelism) {
  // `expand` receives D over a forward edge: D must stay partitioned like
  // S at a non-power-of-two partition count too.
  ErdosRenyiOptions opt;
  opt.num_vertices = 512;
  opt.num_edges = 2048;
  Graph graph = GenerateErdosRenyi(opt);
  for (int parallelism : {3, 4}) {
    SCOPED_TRACE(parallelism);
    SsspOptions options;
    options.source = 3;
    options.max_weight = 10;
    options.parallelism = parallelism;
    auto result = RunSssp(graph, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->converged);
    ExpectDistancesMatch(graph, *result, 3, 10);
  }
}

TEST(SsspTest, WeightedDistances) {
  ErdosRenyiOptions opt;
  opt.num_vertices = 512;
  opt.num_edges = 2048;
  Graph graph = GenerateErdosRenyi(opt);
  SsspOptions options;
  options.source = 3;
  options.max_weight = 10;
  options.parallelism = 2;
  auto result = RunSssp(graph, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectDistancesMatch(graph, *result, 3, 10);
}

TEST(SsspTest, AsyncMicrostepsAgree) {
  RmatOptions opt;
  opt.num_vertices = 512;
  opt.num_edges = 2048;
  Graph graph = GenerateRmat(opt);
  SsspOptions options;
  options.source = 0;
  options.max_weight = 5;
  options.async_microsteps = true;
  options.parallelism = 2;
  auto result = RunSssp(graph, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectDistancesMatch(graph, *result, 0, 5);
  EXPECT_TRUE(result->exec.workset_reports[0].ran_microsteps);
  // Parked/ready accounting (runtime v3): every park was matched by
  // exactly one wake by the time the run drained. (Whether any unit idled
  // at all is schedule-dependent; iteration_semantics_test pins a run that
  // must park.)
  EXPECT_EQ(result->exec.engine_parks, result->exec.engine_wakes);
}

TEST(SsspTest, UnreachableVerticesStayInfinite) {
  GraphBuilder builder(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(4, 5);  // disconnected from source 0
  Graph graph = builder.Build(true);
  SsspOptions options;
  options.source = 0;
  options.parallelism = 2;
  auto result = RunSssp(graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->distances[0], 0.0);
  EXPECT_DOUBLE_EQ(result->distances[2], 2.0);
  EXPECT_TRUE(std::isinf(result->distances[4]));
  EXPECT_TRUE(std::isinf(result->distances[5]));
}

TEST(SsspTest, EdgeWeightsSymmetricAndBounded) {
  for (int w : {1, 5, 100}) {
    for (VertexId u = 0; u < 50; ++u) {
      for (VertexId v = u + 1; v < 50; v += 7) {
        double weight = EdgeWeightOf(u, v, w);
        EXPECT_EQ(weight, EdgeWeightOf(v, u, w));
        EXPECT_GE(weight, 1.0);
        EXPECT_LE(weight, static_cast<double>(w));
      }
    }
  }
}

}  // namespace
}  // namespace sfdf
