// Barrier-free execution of workset loops (ExecutionOptions::sync_mode):
// the asynchronous and bounded-staleness modes must reach the SAME fixpoint
// as superstep execution — the paper's §5.1 argument that a CPO iteration's
// fixpoint is independent of update order — plus the validation gate that
// rejects plans whose ∪̇ is not safe to apply out of order.
#include <gtest/gtest.h>

#include <vector>

#include "algos/connected_components.h"
#include "algos/incremental_pagerank.h"
#include "dataflow/plan_builder.h"
#include "graph/generators.h"
#include "optimizer/optimizer.h"
#include "record/comparator.h"
#include "runtime/executor.h"

namespace sfdf {
namespace {

Graph TestGraph() {
  RmatOptions opt;
  opt.num_vertices = 512;
  opt.num_edges = 2048;
  opt.seed = 33;
  return GenerateRmat(opt);
}

IncrementalPageRankResult RunPr(const Graph& graph, SyncMode mode,
                                int staleness = 1) {
  IncrementalPageRankOptions options;
  options.epsilon = 1e-12;
  options.parallelism = 4;
  options.sync_mode = mode;
  options.staleness_bound = staleness;
  auto result = RunIncrementalPageRank(graph, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(AsyncModeTest, AsyncPageRankMatchesSuperstepFixpoint) {
  Graph graph = TestGraph();
  IncrementalPageRankResult sync = RunPr(graph, SyncMode::kSuperstep);
  IncrementalPageRankResult async = RunPr(graph, SyncMode::kAsync);
  EXPECT_TRUE(sync.converged);
  EXPECT_TRUE(async.converged);
  EXPECT_FALSE(sync.exec.workset_reports[0].ran_async);
  EXPECT_TRUE(async.exec.workset_reports[0].ran_async);
  ASSERT_EQ(sync.ranks.size(), async.ranks.size());
  // Residual pushes are additive and merged through immediate apply, so
  // the update ORDER cannot change the sum each page absorbs: the async
  // fixpoint equals the superstep fixpoint up to the ε cutoff.
  for (size_t i = 0; i < sync.ranks.size(); ++i) {
    EXPECT_EQ(sync.ranks[i].first, async.ranks[i].first);
    EXPECT_NEAR(sync.ranks[i].second, async.ranks[i].second, 1e-8)
        << "vertex " << sync.ranks[i].first;
  }
}

TEST(AsyncModeTest, BoundedStalePageRankMatchesAcrossWindows) {
  Graph graph = TestGraph();
  IncrementalPageRankResult sync = RunPr(graph, SyncMode::kSuperstep);
  for (int k : {1, 2, 4, 8}) {
    IncrementalPageRankResult stale =
        RunPr(graph, SyncMode::kBoundedStale, k);
    EXPECT_TRUE(stale.converged) << "k=" << k;
    EXPECT_TRUE(stale.exec.workset_reports[0].ran_async);
    // The observed lead can never exceed the configured window.
    EXPECT_LE(stale.exec.async_max_staleness, k) << "k=" << k;
    ASSERT_EQ(sync.ranks.size(), stale.ranks.size());
    for (size_t i = 0; i < sync.ranks.size(); ++i) {
      EXPECT_NEAR(sync.ranks[i].second, stale.ranks[i].second, 1e-8)
          << "k=" << k << " vertex " << sync.ranks[i].first;
    }
  }
}

TEST(AsyncModeTest, AsyncCcMatchesSuperstepLabels) {
  Graph graph = TestGraph();
  CcOptions base;
  base.variant = CcVariant::kIncrementalCoGroup;
  base.parallelism = 4;
  auto sync = RunConnectedComponents(graph, base);
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();

  for (SyncMode mode : {SyncMode::kAsync, SyncMode::kBoundedStale}) {
    CcOptions opt = base;
    opt.sync_mode = mode;
    opt.staleness_bound = 2;
    auto result = RunConnectedComponents(graph, opt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->converged);
    // Min-label propagation is monotone under the "smaller cid wins" ∪̇
    // comparator: the barrier-free label assignment is EXACTLY the
    // superstep one, not merely close.
    EXPECT_EQ(sync->labels, result->labels);
  }
}

TEST(AsyncModeTest, AsyncReportsObservability) {
  Graph graph = TestGraph();
  IncrementalPageRankResult async = RunPr(graph, SyncMode::kAsync);
  const ExecutionResult& exec = async.exec;
  EXPECT_TRUE(exec.workset_reports[0].ran_async);
  // One local-round counter per partition, and somebody did work.
  ASSERT_EQ(exec.async_local_rounds.size(), 4u);
  int64_t total = 0;
  for (int64_t rounds : exec.async_local_rounds) {
    EXPECT_GE(rounds, 0);
    total += rounds;
  }
  EXPECT_GT(total, 0);
  EXPECT_GE(exec.async_vote_revocations, 0);
  EXPECT_GE(exec.async_max_staleness, 0);
  // The report's iteration count is the fastest partition's local rounds.
  int64_t max_rounds = 0;
  for (int64_t rounds : exec.async_local_rounds) {
    if (rounds > max_rounds) max_rounds = rounds;
  }
  EXPECT_EQ(exec.workset_reports[0].iterations, max_rounds);
}

TEST(AsyncModeTest, AsyncIterationCapReportsNotConverged) {
  // A self-perpetuating workset: every local round reproduces a lower
  // candidate, so only the per-partition round cap can stop the loop.
  std::vector<Record> out;
  PlanBuilder pb;
  auto s0 = pb.Source("S0", {Record::OfInts(1, 1000000)});
  auto w0 = pb.Source("W0", {Record::OfInts(1, 999999)});
  auto it = pb.BeginWorksetIteration("it", s0, w0, {0},
                                     OrderByIntFieldDesc(1),
                                     IterationMode::kAuto,
                                     /*max_iterations=*/5);
  auto delta = pb.Match("update", it.Workset(), it.SolutionSet(), {0}, {0},
                        [](const Record& cand, const Record&, Collector* c) {
                          c->Emit(Record::OfInts(cand.GetInt(0),
                                                 cand.GetInt(1) - 1));
                        });
  pb.DeclarePreserved(delta, 1, 0, 0);
  pb.Sink("out", it.Close(delta, delta), &out);
  Plan plan = std::move(pb).Finish();

  Optimizer optimizer(OptimizerOptions{.parallelism = 2});
  auto physical = optimizer.Optimize(plan);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  ExecutionOptions eopt;
  eopt.parallelism = 2;
  eopt.sync_mode = SyncMode::kAsync;
  Executor executor(eopt);
  auto result = executor.Run(*physical);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->workset_reports[0].ran_async);
  EXPECT_FALSE(result->workset_reports[0].converged);
  EXPECT_EQ(result->workset_reports[0].iterations, 5);
}

TEST(AsyncModeTest, MicrostepIterationCapReportsNotConverged) {
  // The microstep counterpart: a microstep loop runs barrier-free local
  // rounds, so max_iterations caps them exactly as it caps an async loop's.
  // The decrement chain needs 1000 microsteps to drain, one per local
  // round; with a cap of 5 only the cap stops it.
  std::vector<Record> out;
  PlanBuilder pb;
  auto s0 = pb.Source("S0", {Record::OfInts(1, 1000000)});
  auto w0 = pb.Source("W0", {Record::OfInts(1, 1000)});
  auto it = pb.BeginWorksetIteration("it", s0, w0, {0},
                                     OrderByIntFieldDesc(1),
                                     IterationMode::kMicrostep,
                                     /*max_iterations=*/5);
  auto delta = pb.Match("update", it.Workset(), it.SolutionSet(), {0}, {0},
                        [](const Record& cand, const Record& cur,
                           Collector* c) {
                          if (cand.GetInt(1) < cur.GetInt(1)) c->Emit(cand);
                        });
  pb.DeclarePreserved(delta, 1, 0, 0);
  auto next = pb.Map("decrement", delta, [](const Record& rec, Collector* c) {
    if (rec.GetInt(1) > 0) {
      c->Emit(Record::OfInts(rec.GetInt(0), rec.GetInt(1) - 1));
    }
  });
  pb.DeclarePreserved(next, 0, 0, 0);
  pb.Sink("out", it.Close(delta, next), &out);
  Plan plan = std::move(pb).Finish();

  Optimizer optimizer(OptimizerOptions{.parallelism = 2});
  auto physical = optimizer.Optimize(plan);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  Executor executor(ExecutionOptions{.parallelism = 2});
  auto result = executor.Run(*physical);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const IterationReport& report = result->workset_reports[0];
  EXPECT_TRUE(report.ran_microsteps);
  EXPECT_FALSE(report.ran_async);
  EXPECT_FALSE(report.converged);
  EXPECT_EQ(report.iterations, 5);
}

// --- mode matrix on a one-worker pool ---------------------------------------

struct PathCc {
  PhysicalPlan physical;
  std::vector<Record> labels;
};

/// Min-label CC over the path 0–1–2–3: Sources feed the loop, a Sink reads
/// its converged solution, so a pipelined run streams both ends.
std::unique_ptr<PathCc> BuildPathCc(IterationMode mode) {
  auto built = std::make_unique<PathCc>();
  std::vector<Record> vertices;
  std::vector<Record> workset0;
  std::vector<Record> edges;
  for (int64_t v = 0; v < 4; ++v) vertices.push_back(Record::OfInts(v, v));
  for (int64_t u = 0; u < 3; ++u) {
    edges.push_back(Record::OfInts(u, u + 1));
    edges.push_back(Record::OfInts(u + 1, u));
    workset0.push_back(Record::OfInts(u + 1, u));
    workset0.push_back(Record::OfInts(u, u + 1));
  }
  PlanBuilder pb;
  auto v_src = pb.Source("V", std::move(vertices));
  auto w_src = pb.Source("W0", std::move(workset0));
  auto e_src = pb.Source("N", std::move(edges));
  auto it = pb.BeginWorksetIteration("cc", v_src, w_src, {0},
                                     OrderByIntFieldDesc(1), mode, 1000);
  auto delta = pb.Match("update", it.Workset(), it.SolutionSet(), {0}, {0},
                        [](const Record& cand, const Record& cur,
                           Collector* c) {
                          if (cand.GetInt(1) < cur.GetInt(1)) c->Emit(cand);
                        });
  pb.DeclarePreserved(delta, 1, 0, 0);
  auto next = pb.Match("neighbors", delta, e_src, {0}, {0},
                       [](const Record& changed, const Record& edge,
                          Collector* c) {
                         c->Emit(Record::OfInts(edge.GetInt(1),
                                                changed.GetInt(1)));
                       });
  pb.DeclarePreserved(next, 1, 1, 0);
  pb.Sink("labels", it.Close(delta, next), &built->labels);
  Plan plan = std::move(pb).Finish();
  Optimizer optimizer(OptimizerOptions{});
  auto physical = optimizer.Optimize(plan);
  EXPECT_TRUE(physical.ok()) << physical.status().ToString();
  if (physical.ok()) built->physical = std::move(*physical);
  return built;
}

/// Runs one matrix cell on a single engine worker, so every poll unit that
/// parks depends on a peer's or producer's wake to run again. Checks exact
/// labels and that every park was matched by a wake.
void ExpectPathCcCell(IterationMode mode, SyncMode sync, RegionMode region,
                      int parallelism) {
  auto built = BuildPathCc(mode);
  ExecutionOptions options;
  options.parallelism = parallelism;
  options.worker_threads = 1;
  options.sync_mode = sync;
  options.staleness_bound = 1;
  options.region_mode = region;
  options.pipeline_lane_capacity = 1;
  Executor executor(options);
  auto result = executor.Run(built->physical);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const IterationReport& report = result->workset_reports[0];
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.ran_microsteps, mode == IterationMode::kMicrostep);
  EXPECT_EQ(report.ran_async, sync != SyncMode::kSuperstep);
  std::vector<int64_t> labels(4, -1);
  for (const Record& rec : built->labels) {
    labels.at(static_cast<size_t>(rec.GetInt(0))) = rec.GetInt(1);
  }
  EXPECT_EQ(labels, (std::vector<int64_t>{0, 0, 0, 0}));
  EXPECT_EQ(result->engine_parks, result->engine_wakes);
}

TEST(AsyncModeTest, ModeMatrixOnOneWorkerReachesExactLabels) {
  for (SyncMode sync :
       {SyncMode::kSuperstep, SyncMode::kAsync, SyncMode::kBoundedStale}) {
    for (RegionMode region :
         {RegionMode::kMaterialize, RegionMode::kPipelined}) {
      for (int parallelism : {1, 4}) {
        SCOPED_TRACE(testing::Message()
                     << "sync=" << static_cast<int>(sync) << " region="
                     << static_cast<int>(region) << " P=" << parallelism);
        ExpectPathCcCell(IterationMode::kSuperstep, sync, region, parallelism);
      }
    }
  }
}

TEST(AsyncModeTest, MicrostepMatrixOnOneWorkerReachesExactLabels) {
  for (RegionMode region :
       {RegionMode::kMaterialize, RegionMode::kPipelined}) {
    for (int parallelism : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "region=" << static_cast<int>(region)
                                      << " P=" << parallelism);
      ExpectPathCcCell(IterationMode::kMicrostep, SyncMode::kSuperstep, region,
                       parallelism);
    }
  }
}

// --- validation gate ------------------------------------------------------

TEST(AsyncModeTest, RejectsBoundedStaleWithNonPositiveWindow) {
  Graph graph = TestGraph();
  IncrementalPageRankOptions options;
  options.parallelism = 2;
  options.sync_mode = SyncMode::kBoundedStale;
  options.staleness_bound = 0;
  auto result = RunIncrementalPageRank(graph, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(AsyncModeTest, RejectsAsyncForMicrostepPlans) {
  // Microstep loops already have their own asynchronous execution (§5.2);
  // layering barrier-free rounds on top is rejected, not silently ignored.
  Graph graph = TestGraph();
  CcOptions options;
  options.variant = CcVariant::kAsyncMicrostep;
  options.parallelism = 2;
  options.sync_mode = SyncMode::kAsync;
  auto result = RunConnectedComponents(graph, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

TEST(AsyncModeTest, RejectsAsyncForBulkPlans) {
  // A bulk iteration consumes its ENTIRE partial solution every superstep —
  // there is no record-level ∪̇ merge to reorder, so barrier-free execution
  // is meaningless for it.
  Graph graph = TestGraph();
  CcOptions options;
  options.variant = CcVariant::kBulk;
  options.parallelism = 2;
  options.sync_mode = SyncMode::kAsync;
  auto result = RunConnectedComponents(graph, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

TEST(AsyncModeTest, RejectsAsyncWithoutMergeSafety) {
  // No comparator and no immediate apply: the superstep-buffered ∪̇ applies
  // "last write wins" in arrival order, which barrier-free reordering would
  // turn into a race. The gate must refuse.
  std::vector<Record> out;
  PlanBuilder pb;
  auto s0 = pb.Source("S0", {Record::OfInts(1, 10), Record::OfInts(2, 20)});
  auto w0 = pb.Source("W0", {Record::OfInts(1, 5)});
  auto it = pb.BeginWorksetIteration("it", s0, w0, {0});
  auto delta = pb.Match("update", it.Workset(), it.SolutionSet(), {0}, {0},
                        [](const Record& cand, const Record& cur,
                           Collector* c) {
                          if (cand.GetInt(1) < cur.GetInt(1)) c->Emit(cand);
                        });
  // Deliberately NO DeclarePreserved: without the preservation hints the
  // optimizer cannot prove local updates, so immediate apply stays off.
  pb.Sink("out", it.Close(delta, delta), &out);
  Plan plan = std::move(pb).Finish();

  Optimizer optimizer(OptimizerOptions{.parallelism = 2});
  auto physical = optimizer.Optimize(plan);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  ASSERT_FALSE(physical->workset_iterations[0].immediate_apply);
  ExecutionOptions eopt;
  eopt.parallelism = 2;
  eopt.sync_mode = SyncMode::kAsync;
  Executor executor(eopt);
  auto result = executor.Run(*physical);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

TEST(AsyncModeTest, RejectsAsyncWithCheckpointing) {
  // Checkpoints are superstep-aligned cuts; a barrier-free run has no
  // superstep to align them to.
  Graph graph = TestGraph();
  CcOptions base;
  base.variant = CcVariant::kIncrementalCoGroup;
  base.parallelism = 2;
  std::vector<Record> out;
  PlanBuilder pb;
  auto s0 = pb.Source("S0", {Record::OfInts(1, 10)});
  auto w0 = pb.Source("W0", {Record::OfInts(1, 5)});
  auto it = pb.BeginWorksetIteration("it", s0, w0, {0},
                                     OrderByIntFieldDesc(1));
  auto delta = pb.Match("update", it.Workset(), it.SolutionSet(), {0}, {0},
                        [](const Record& cand, const Record& cur,
                           Collector* c) {
                          if (cand.GetInt(1) < cur.GetInt(1)) c->Emit(cand);
                        });
  pb.DeclarePreserved(delta, 1, 0, 0);
  pb.Sink("out", it.Close(delta, delta), &out);
  Plan plan = std::move(pb).Finish();
  Optimizer optimizer(OptimizerOptions{.parallelism = 2});
  auto physical = optimizer.Optimize(plan);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();

  ExecutionOptions eopt;
  eopt.parallelism = 2;
  eopt.sync_mode = SyncMode::kAsync;
  eopt.checkpoint_superstep = 2;
  eopt.checkpoint_path = "/tmp/sfdf_async_ckpt_test";
  Executor executor(eopt);
  auto result = executor.Run(*physical);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sfdf
