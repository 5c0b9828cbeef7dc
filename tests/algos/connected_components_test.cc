#include "algos/connected_components.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/union_find.h"

namespace sfdf {
namespace {

/// All variants, parameterized: every variant must agree with union-find on
/// every graph shape (property-style sweep).
struct VariantParam {
  CcVariant variant;
  const char* name;
};

class CcVariantTest : public testing::TestWithParam<VariantParam> {};

TEST_P(CcVariantTest, CorrectOnRmat) {
  RmatOptions opt;
  opt.num_vertices = 1024;
  opt.num_edges = 3000;
  opt.seed = 5;
  Graph graph = GenerateRmat(opt);
  CcOptions options;
  options.variant = GetParam().variant;
  options.parallelism = 2;
  auto result = RunConnectedComponents(graph, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->labels, ReferenceComponents(graph));
  EXPECT_TRUE(result->converged);
}

TEST_P(CcVariantTest, CorrectOnRmatAtEveryParallelism) {
  // The solution join hands D to `neighbors` over a forward edge, so D must
  // stay partitioned like S at any partition count, including odd ones.
  RmatOptions opt;
  opt.num_vertices = 1024;
  opt.num_edges = 3000;
  opt.seed = 5;
  Graph graph = GenerateRmat(opt);
  const auto reference = ReferenceComponents(graph);
  for (int parallelism : {1, 3, 4, 8}) {
    SCOPED_TRACE(parallelism);
    CcOptions options;
    options.variant = GetParam().variant;
    options.parallelism = parallelism;
    auto result = RunConnectedComponents(graph, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->labels, reference);
    EXPECT_TRUE(result->converged);
  }
}

TEST_P(CcVariantTest, CorrectOnDisconnectedClusters) {
  // Many small components: exercises per-component convergence.
  GraphBuilder builder(300);
  for (int c = 0; c < 30; ++c) {
    int base = c * 10;
    for (int i = 1; i < 10; ++i) builder.AddEdge(base, base + i);
  }
  Graph graph = builder.Build(true);
  CcOptions options;
  options.variant = GetParam().variant;
  options.parallelism = 2;
  auto result = RunConnectedComponents(graph, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->labels, ReferenceComponents(graph));
  EXPECT_EQ(CountComponents(result->labels), 30);
}

TEST_P(CcVariantTest, CorrectOnLongChain) {
  // A path graph: worst case for iteration count (diameter = n-1).
  const int n = 64;
  GraphBuilder builder(n);
  for (int v = 1; v < n; ++v) builder.AddEdge(v - 1, v);
  Graph graph = builder.Build(true);
  CcOptions options;
  options.variant = GetParam().variant;
  options.parallelism = 2;
  auto result = RunConnectedComponents(graph, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(CountComponents(result->labels), 1);
  for (VertexId v = 0; v < n; ++v) EXPECT_EQ(result->labels[v], 0);
}

TEST_P(CcVariantTest, CorrectOnErdosRenyi) {
  ErdosRenyiOptions opt;
  opt.num_vertices = 2000;
  opt.num_edges = 1500;  // sub-critical: many components
  opt.seed = 11;
  Graph graph = GenerateErdosRenyi(opt);
  CcOptions options;
  options.variant = GetParam().variant;
  options.parallelism = 2;
  auto result = RunConnectedComponents(graph, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->labels, ReferenceComponents(graph));
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, CcVariantTest,
    testing::Values(
        VariantParam{CcVariant::kBulk, "bulk"},
        VariantParam{CcVariant::kIncrementalCoGroup, "cogroup"},
        VariantParam{CcVariant::kIncrementalMatch, "match"},
        VariantParam{CcVariant::kAsyncMicrostep, "async"}),
    [](const testing::TestParamInfo<VariantParam>& info) {
      return info.param.name;
    });

TEST(CcTest, BulkUsesTerminationCriterion) {
  RmatOptions opt;
  opt.num_vertices = 512;
  opt.num_edges = 2048;
  Graph graph = GenerateRmat(opt);
  CcOptions options;
  options.variant = CcVariant::kBulk;
  options.max_iterations = 500;
  options.parallelism = 2;
  auto result = RunConnectedComponents(graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_LT(result->iterations, 60);
}

TEST(CcTest, IncrementalWorksetShrinks) {
  // Figure 2's core observation: the workset shrinks as parts converge.
  RmatOptions opt;
  opt.num_vertices = 2048;
  opt.num_edges = 8192;
  Graph graph = GenerateRmat(opt);
  CcOptions options;
  options.variant = CcVariant::kIncrementalCoGroup;
  options.parallelism = 2;
  auto result = RunConnectedComponents(graph, options);
  ASSERT_TRUE(result.ok());
  const auto& steps = result->exec.workset_reports[0].supersteps;
  ASSERT_GE(steps.size(), 3u);
  EXPECT_GT(steps.front().workset_size, steps[steps.size() - 2].workset_size);
  // The final superstep produced an empty next workset (convergence).
  EXPECT_EQ(steps.back().next_workset_size, 0);
}

TEST(CcTest, SolutionIndexAblationAgrees) {
  RmatOptions opt;
  opt.num_vertices = 512;
  opt.num_edges = 2048;
  Graph graph = GenerateRmat(opt);
  for (int force : {1, 2}) {  // 1 = hash, 2 = B+-tree
    CcOptions options;
    options.variant = CcVariant::kIncrementalCoGroup;
    options.force_solution_index = force;
    options.parallelism = 2;
    auto result = RunConnectedComponents(graph, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->labels, ReferenceComponents(graph)) << "index " << force;
  }
}

TEST(CcTest, MatchVariantCountsMoreSolutionWork) {
  // The CoGroup variant groups candidates and touches each solution entry
  // once per superstep; the Match variant probes once per candidate. On a
  // denser graph the Match variant must therefore perform at least as many
  // lookups (Section 6.2's Hollywood discussion).
  PreferentialAttachmentOptions opt;
  opt.num_vertices = 512;
  opt.edges_per_vertex = 8;
  Graph graph = GeneratePreferentialAttachment(opt);

  CcOptions options;
  options.parallelism = 2;
  options.variant = CcVariant::kIncrementalCoGroup;
  auto cogroup = RunConnectedComponents(graph, options);
  options.variant = CcVariant::kIncrementalMatch;
  auto match = RunConnectedComponents(graph, options);
  ASSERT_TRUE(cogroup.ok());
  ASSERT_TRUE(match.ok());

  auto total_lookups = [](const CcResult& result) {
    int64_t total = 0;
    for (const auto& s : result.exec.workset_reports[0].supersteps) {
      total += s.solution_lookups;
    }
    return total;
  };
  EXPECT_GE(total_lookups(*match), total_lookups(*cogroup));
}

}  // namespace
}  // namespace sfdf
