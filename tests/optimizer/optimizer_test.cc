// Optimizer behaviour tests: plan choice (Figure 4), interesting-property
// propagation, constant-path caching, combiner placement, and the
// iteration-weighted cost model.
#include "optimizer/optimizer.h"

#include <gtest/gtest.h>

#include "algos/pagerank.h"
#include "dataflow/plan_builder.h"
#include "graph/generators.h"
#include "record/comparator.h"

namespace sfdf {
namespace {

/// Builds the PageRank plan of Figure 3 over synthetic sizes: `n_pages`
/// rank tuples joined with `n_entries` matrix tuples.
Plan BuildPageRankLikePlan(int64_t n_pages, int64_t n_entries,
                           std::vector<Record>* out) {
  std::vector<Record> ranks;
  for (int64_t i = 0; i < n_pages; ++i) {
    ranks.push_back(Record::OfIntDouble(i, 1.0 / n_pages));
  }
  std::vector<Record> matrix;
  for (int64_t i = 0; i < n_entries; ++i) {
    matrix.push_back(Record::OfIntIntDouble(i % n_pages, (i * 7) % n_pages,
                                            0.1));
  }
  PlanBuilder pb;
  auto p = pb.Source("p", std::move(ranks));
  auto a = pb.Source("A", std::move(matrix));
  auto it = pb.BeginBulkIteration("pr", p, 20, {0});
  auto joined = pb.Match("joinPA", it.PartialSolution(), a, {0}, {1},
                         [](const Record& pr, const Record& ar, Collector* c) {
                           c->Emit(Record::OfIntDouble(
                               ar.GetInt(0), pr.GetDouble(1) * ar.GetDouble(2)));
                         });
  pb.DeclarePreserved(joined, 1, 0, 0);
  auto next = pb.Reduce(
      "sum", joined, {0},
      [](const std::vector<Record>& group, Collector* c) {
        c->Emit(group.front());
      },
      [](const Record& x, const Record& y) {
        return Record::OfIntDouble(x.GetInt(0),
                                   x.GetDouble(1) + y.GetDouble(1));
      });
  pb.DeclarePreserved(next, 0, 0, 0);
  auto result = it.Close(next);
  pb.Sink("ranks", result, out);
  return std::move(pb).Finish();
}

const PhysicalTask& TaskNamed(const PhysicalPlan& plan,
                              const std::string& name) {
  for (const PhysicalTask& task : plan.tasks) {
    if (task.name == name) return task;
  }
  ADD_FAILURE() << "no task named " << name;
  static PhysicalTask dummy;
  return dummy;
}

TEST(OptimizerTest, SmallRankVectorChoosesBroadcastPlan) {
  // Figure 4 left: with a small rank vector and few workers, broadcasting
  // p and caching A (partitioned/sorted by tid) is cheapest.
  std::vector<Record> out;
  Plan plan = BuildPageRankLikePlan(/*n_pages=*/100, /*n_entries=*/5000, &out);
  Optimizer optimizer(OptimizerOptions{.parallelism = 4});
  auto physical = optimizer.Optimize(plan);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  const PhysicalTask& join = TaskNamed(*physical, "joinPA");
  bool p_broadcast = false;
  for (const PhysicalInput& input : join.inputs) {
    if (input.ship == ShipStrategy::kBroadcast) p_broadcast = true;
  }
  EXPECT_TRUE(p_broadcast) << physical->ToString();
  // The Reduce should receive forwarded (not reshuffled) data.
  const PhysicalTask& reduce = TaskNamed(*physical, "sum");
  EXPECT_EQ(reduce.inputs[0].ship, ShipStrategy::kForward)
      << physical->ToString();
}

TEST(OptimizerTest, ManyWorkersChoosePartitionPlan) {
  // Broadcast cost grows with the worker count: at high DOP the partition
  // plan (Figure 4 right) wins.
  std::vector<Record> out;
  Plan plan = BuildPageRankLikePlan(/*n_pages=*/5000, /*n_entries=*/20000,
                                    &out);
  Optimizer optimizer(OptimizerOptions{.parallelism = 64});
  auto physical = optimizer.Optimize(plan);
  ASSERT_TRUE(physical.ok());
  const PhysicalTask& join = TaskNamed(*physical, "joinPA");
  for (const PhysicalInput& input : join.inputs) {
    EXPECT_NE(input.ship, ShipStrategy::kBroadcast) << physical->ToString();
  }
}

TEST(OptimizerTest, BroadcastCostFactorForcesPlans) {
  std::vector<Record> out;
  Plan plan = BuildPageRankLikePlan(1000, 10000, &out);
  OptimizerOptions force_bc;
  force_bc.parallelism = 4;
  force_bc.broadcast_cost_factor = 1e-9;
  auto bc = Optimizer(force_bc).Optimize(plan);
  ASSERT_TRUE(bc.ok());
  bool saw_broadcast = false;
  for (const PhysicalInput& input : TaskNamed(*bc, "joinPA").inputs) {
    saw_broadcast |= input.ship == ShipStrategy::kBroadcast;
  }
  EXPECT_TRUE(saw_broadcast);

  OptimizerOptions force_part;
  force_part.parallelism = 4;
  force_part.broadcast_cost_factor = 1e9;
  auto part = Optimizer(force_part).Optimize(plan);
  ASSERT_TRUE(part.ok());
  for (const PhysicalInput& input : TaskNamed(*part, "joinPA").inputs) {
    EXPECT_NE(input.ship, ShipStrategy::kBroadcast);
  }
}

TEST(OptimizerTest, ConstantPathInputsAreCached) {
  std::vector<Record> out;
  Plan plan = BuildPageRankLikePlan(100, 5000, &out);
  Optimizer optimizer(OptimizerOptions{.parallelism = 2});
  auto physical = optimizer.Optimize(plan);
  ASSERT_TRUE(physical.ok());
  const PhysicalTask& join = TaskNamed(*physical, "joinPA");
  // The matrix side (input 1) is loop-invariant: constant path + cached.
  EXPECT_TRUE(join.inputs[1].constant_path);
  EXPECT_TRUE(join.inputs[1].cached);
  EXPECT_FALSE(join.inputs[0].constant_path);  // the rank vector iterates
  EXPECT_TRUE(join.on_dynamic_path);
}

TEST(OptimizerTest, CachingCanBeDisabled) {
  std::vector<Record> out;
  Plan plan = BuildPageRankLikePlan(100, 5000, &out);
  OptimizerOptions options;
  options.parallelism = 2;
  options.enable_caching = false;
  auto physical = Optimizer(options).Optimize(plan);
  ASSERT_TRUE(physical.ok());
  EXPECT_FALSE(TaskNamed(*physical, "joinPA").inputs[1].cached);
}

TEST(OptimizerTest, CombinerAttachedToShuffledReduceInput) {
  std::vector<Record> out;
  Plan plan = BuildPageRankLikePlan(5000, 20000, &out);
  OptimizerOptions options;
  options.parallelism = 8;
  options.broadcast_cost_factor = 1e9;  // force the partition plan
  auto physical = Optimizer(options).Optimize(plan);
  ASSERT_TRUE(physical.ok());
  const PhysicalTask& reduce = TaskNamed(*physical, "sum");
  ASSERT_EQ(reduce.inputs[0].ship, ShipStrategy::kHashPartition);
  EXPECT_TRUE(static_cast<bool>(reduce.inputs[0].combiner));
}

TEST(OptimizerTest, IterationExpansionCreatesRoles) {
  std::vector<Record> out;
  Plan plan = BuildPageRankLikePlan(100, 1000, &out);
  Optimizer optimizer(OptimizerOptions{.parallelism = 2});
  auto physical = optimizer.Optimize(plan);
  ASSERT_TRUE(physical.ok());
  int heads = 0;
  int tails = 0;
  for (const PhysicalTask& task : physical->tasks) {
    if (task.role == TaskRole::kBulkHead) ++heads;
    if (task.role == TaskRole::kBulkTail) ++tails;
  }
  EXPECT_EQ(heads, 1);
  EXPECT_EQ(tails, 1);
  ASSERT_EQ(physical->bulk_iterations.size(), 1u);
  EXPECT_EQ(physical->bulk_iterations[0].max_iterations, 20);
}

TEST(OptimizerTest, WorksetExpansionDerivesIndexFromJoinKind) {
  auto build = [](bool cogroup, std::vector<Record>* out) {
    PlanBuilder pb;
    auto s0 = pb.Source("s0", {Record::OfInts(0, 0)});
    auto w0 = pb.Source("w0", {Record::OfInts(0, 0)});
    auto it = pb.BeginWorksetIteration("ws", s0, w0, {0});
    DataSet delta;
    if (cogroup) {
      delta = pb.InnerCoGroup("update", it.Workset(), it.SolutionSet(), {0},
                              {0},
                              [](const std::vector<Record>& l,
                                 const std::vector<Record>&, Collector* c) {
                                c->Emit(l.front());
                              });
    } else {
      delta = pb.Match("update", it.Workset(), it.SolutionSet(), {0}, {0},
                       [](const Record& l, const Record&, Collector* c) {
                         c->Emit(l);
                       });
    }
    pb.DeclarePreserved(delta, 1, 0, 0);
    auto result = it.Close(delta, delta);
    pb.Sink("out", result, out);
    return std::move(pb).Finish();
  };

  std::vector<Record> out;
  Optimizer optimizer(OptimizerOptions{.parallelism = 2});
  auto hash_plan = optimizer.Optimize(build(false, &out));
  ASSERT_TRUE(hash_plan.ok());
  // Match ⇒ hash strategy ⇒ updateable hash table (§5.3).
  EXPECT_FALSE(hash_plan->workset_iterations[0].use_btree_index);
  EXPECT_TRUE(hash_plan->workset_iterations[0].immediate_apply);

  auto btree_plan = optimizer.Optimize(build(true, &out));
  ASSERT_TRUE(btree_plan.ok());
  // CoGroup ⇒ sort strategy ⇒ B+-tree index (§5.3).
  EXPECT_TRUE(btree_plan->workset_iterations[0].use_btree_index);
}

/// The Figure 5 workset plan over synthetic sizes: the solution join
/// `update` (InnerCoGroup or Match of the workset with S, preserving S's
/// key) feeds `next` (a Match of D with the loop-invariant edge set). The
/// CC shape starts from one candidate per edge, as CC's W0 does; the SSSP
/// shape has weighted edges and starts from the source's edges only.
Plan BuildWorksetJoinPlan(bool cogroup, bool sssp, const char* next_name,
                          std::vector<Record>* out) {
  std::vector<Record> vertices;
  std::vector<Record> edges;
  std::vector<Record> workset;
  for (int64_t v = 0; v < 1000; ++v) {
    vertices.push_back(Record::OfInts(v, v));
    for (int64_t k = 1; k <= 8; ++k) {
      const int64_t dst = (v * 7 + k) % 1000;
      edges.push_back(sssp ? Record::OfIntIntDouble(v, dst, 1.0)
                           : Record::OfInts(v, dst));
      if (!sssp || v == 0) workset.push_back(Record::OfInts(dst, v));
    }
  }
  PlanBuilder pb;
  auto s0 = pb.Source("S0", std::move(vertices));
  auto w0 = pb.Source("W0", std::move(workset));
  auto e = pb.Source("E", std::move(edges));
  auto it = pb.BeginWorksetIteration("ws", s0, w0, {0},
                                     OrderByIntFieldDesc(1));
  DataSet delta;
  if (cogroup) {
    delta = pb.InnerCoGroup("update", it.Workset(), it.SolutionSet(), {0}, {0},
                            [](const std::vector<Record>&,
                               const std::vector<Record>& s, Collector* c) {
                              c->Emit(s.front());
                            });
  } else {
    delta = pb.Match("update", it.Workset(), it.SolutionSet(), {0}, {0},
                     [](const Record&, const Record& s, Collector* c) {
                       c->Emit(s);
                     });
  }
  pb.DeclarePreserved(delta, 1, 0, 0);
  auto next = pb.Match(next_name, delta, e, {0}, {0},
                       [](const Record& d, const Record& edge, Collector* c) {
                         c->Emit(Record::OfInts(edge.GetInt(1), d.GetInt(1)));
                       });
  pb.DeclarePreserved(next, 1, 1, 0);
  auto result = it.Close(delta, next);
  pb.Sink("out", result, out);
  return std::move(pb).Finish();
}

TEST(OptimizerTest, SolutionJoinOutputStaysPartitionedLikeS) {
  // Figure 5: D leaves the solution join partitioned like S, so the join
  // with the loop-invariant edges forwards D and hash-partitions the edges
  // once into the §4.3 cache instead of broadcasting them.
  struct Shape {
    const char* name;
    bool cogroup;
    bool sssp;
    const char* next;
  };
  const Shape shapes[] = {{"incr-cc cogroup", true, false, "neighbors"},
                          {"incr-cc match", false, false, "neighbors"},
                          {"sssp", false, true, "expand"}};
  Optimizer optimizer(OptimizerOptions{.parallelism = 4});
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    std::vector<Record> out;
    Plan plan =
        BuildWorksetJoinPlan(shape.cogroup, shape.sssp, shape.next, &out);
    auto physical = optimizer.Optimize(plan);
    ASSERT_TRUE(physical.ok()) << physical.status().ToString();
    const PhysicalTask& update = TaskNamed(*physical, "update");
    EXPECT_TRUE(update.output_props.IsPartitionedBy({0}))
        << physical->ToString();
    const PhysicalTask& next = TaskNamed(*physical, shape.next);
    ASSERT_EQ(next.inputs.size(), 2u);
    EXPECT_EQ(next.inputs[0].ship, ShipStrategy::kForward)
        << physical->ToString();
    EXPECT_EQ(next.inputs[1].ship, ShipStrategy::kHashPartition)
        << physical->ToString();
    EXPECT_EQ(next.inputs[1].ship_key, KeySpec({0}));
    EXPECT_TRUE(next.inputs[1].constant_path);
    EXPECT_TRUE(next.inputs[1].cached);
    for (const PhysicalTask& task : physical->tasks) {
      for (const PhysicalInput& input : task.inputs) {
        EXPECT_NE(input.ship, ShipStrategy::kBroadcast)
            << task.name << "\n" << physical->ToString();
      }
    }
  }
}

TEST(OptimizerTest, MicrostepRequestRejectedWhenNotCapable) {
  PlanBuilder pb;
  auto s0 = pb.Source("s0", {Record::OfInts(0, 0)});
  auto w0 = pb.Source("w0", {Record::OfInts(0, 0)});
  auto it = pb.BeginWorksetIteration("ws", s0, w0, {0}, nullptr,
                                     IterationMode::kMicrostep);
  auto delta = pb.InnerCoGroup("update", it.Workset(), it.SolutionSet(), {0},
                               {0},
                               [](const std::vector<Record>& l,
                                  const std::vector<Record>&, Collector* c) {
                                 c->Emit(l.front());
                               });
  pb.DeclarePreserved(delta, 1, 0, 0);
  std::vector<Record> out;
  auto result = it.Close(delta, delta);
  pb.Sink("out", result, &out);
  Plan plan = std::move(pb).Finish();
  auto physical = Optimizer().Optimize(plan);
  EXPECT_FALSE(physical.ok());
  EXPECT_EQ(physical.status().code(), StatusCode::kUnsupported);
}

TEST(OptimizerTest, ExplainRendersStrategies) {
  std::vector<Record> out;
  Plan plan = BuildPageRankLikePlan(100, 5000, &out);
  Optimizer optimizer(OptimizerOptions{.parallelism = 2});
  auto text = optimizer.Explain(plan);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("joinPA"), std::string::npos);
  EXPECT_NE(text->find("BulkHead"), std::string::npos);
  EXPECT_NE(text->find("cache"), std::string::npos);
}

}  // namespace
}  // namespace sfdf
