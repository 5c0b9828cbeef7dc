// Session mode: the executor keeps a workset iteration resident, re-enters
// it warm per round, and tears it down on Finish. Exercised here with a
// hand-built INCR-CC plan whose neighborhood input N is a constant-path
// cache — warm rounds must reuse it (it is only shipped at superstep 0).
#include "runtime/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dataflow/plan_builder.h"
#include "optimizer/optimizer.h"
#include "record/comparator.h"

namespace sfdf {
namespace {

struct CcSessionPlan {
  PhysicalPlan physical;
  std::vector<Record> output;
  std::vector<Record> side_output;  ///< sink of an optional side branch
};

/// INCR-CC over a 4-vertex graph with the given symmetric edges. Solution
/// records are (vid, cid); workset candidates are (vid, cid). `add_branch`
/// may wire more operators into the same plan.
std::unique_ptr<CcSessionPlan> BuildCcPlan(
    const std::vector<std::pair<int64_t, int64_t>>& edge_list,
    int max_iterations,
    const std::function<void(PlanBuilder*, CcSessionPlan*)>& add_branch =
        nullptr) {
  auto built = std::make_unique<CcSessionPlan>();

  std::vector<Record> labels;
  std::vector<Record> workset0;
  std::vector<Record> edges;
  for (int64_t v = 0; v < 4; ++v) labels.push_back(Record::OfInts(v, v));
  for (auto [u, v] : edge_list) {
    edges.push_back(Record::OfInts(u, v));
    edges.push_back(Record::OfInts(v, u));
    workset0.push_back(Record::OfInts(v, u));
    workset0.push_back(Record::OfInts(u, v));
  }

  PlanBuilder pb;
  auto labels_src = pb.Source("V", std::move(labels));
  auto workset_src = pb.Source("W0", std::move(workset0));
  auto edges_src = pb.Source("N", std::move(edges));
  auto it = pb.BeginWorksetIteration("cc", labels_src, workset_src,
                                     /*solution_key=*/{0},
                                     OrderByIntFieldDesc(1),
                                     IterationMode::kSuperstep,
                                     max_iterations);
  auto delta = pb.Match("update", it.Workset(), it.SolutionSet(), {0}, {0},
                        [](const Record& cand, const Record& current,
                           Collector* out) {
                          if (cand.GetInt(1) < current.GetInt(1)) {
                            out->Emit(Record::OfInts(cand.GetInt(0),
                                                     cand.GetInt(1)));
                          }
                        });
  pb.DeclarePreserved(delta, 1, 0, 0);
  auto next = pb.Match("neighbors", delta, edges_src, {0}, {0},
                       [](const Record& changed, const Record& edge,
                          Collector* out) {
                         out->Emit(Record::OfInts(edge.GetInt(1),
                                                  changed.GetInt(1)));
                       });
  pb.DeclarePreserved(next, 1, 1, 0);
  auto result = it.Close(delta, next);
  pb.Sink("labels", result, &built->output);
  if (add_branch) add_branch(&pb, built.get());
  Plan plan = std::move(pb).Finish();

  Optimizer optimizer(OptimizerOptions{});
  auto physical = optimizer.Optimize(plan);
  EXPECT_TRUE(physical.ok()) << physical.status().ToString();
  built->physical = std::move(*physical);
  return built;
}

/// The two disconnected components 0–1 and 2–3.
std::unique_ptr<CcSessionPlan> BuildTwoComponentPlan() {
  return BuildCcPlan({{0, 1}, {2, 3}}, 1000);
}

std::map<int64_t, int64_t> SolutionLabels(ExecutionSession& session) {
  std::map<int64_t, int64_t> labels;
  session.ForEachSolution(
      [&](const Record& rec) { labels[rec.GetInt(0)] = rec.GetInt(1); });
  return labels;
}

TEST(ExecutorSessionTest, ColdFixpointThenWarmRounds) {
  auto built = BuildTwoComponentPlan();
  Executor executor(ExecutionOptions{});
  auto session = executor.StartSession(built->physical);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // Cold round: the two components converged.
  EXPECT_TRUE((*session)->initial_report().converged);
  std::map<int64_t, int64_t> labels = SolutionLabels(**session);
  EXPECT_EQ(labels, (std::map<int64_t, int64_t>{{0, 0}, {1, 0}, {2, 2}, {3, 2}}));

  // Warm round 1: edge (1,2) appears; seed the INCR-CC candidates. Vertex 3
  // is only reachable through the constant edge cache loaded at superstep 0
  // — reuse across rounds is what re-labels it.
  auto round = (*session)->RunRound(
      {Record::OfInts(1, 2), Record::OfInts(2, 0)});
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_TRUE(round->converged);
  EXPECT_GE(round->iterations, 1);
  labels = SolutionLabels(**session);
  EXPECT_EQ(labels, (std::map<int64_t, int64_t>{{0, 0}, {1, 0}, {2, 0}, {3, 0}}));

  // Warm round 2: an empty seed converges immediately and changes nothing.
  round = (*session)->RunRound({});
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_TRUE(round->converged);
  EXPECT_EQ(round->iterations, 1);
  EXPECT_EQ(SolutionLabels(**session),
            (std::map<int64_t, int64_t>{{0, 0}, {1, 0}, {2, 0}, {3, 0}}));

  // Warm round 3: a candidate that loses the ∪̇ comparison is discarded.
  round = (*session)->RunRound({Record::OfInts(3, 9)});
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(SolutionLabels(**session),
            (std::map<int64_t, int64_t>{{0, 0}, {1, 0}, {2, 0}, {3, 0}}));

  // Finish: the converged solution flushes into the sink.
  auto exec = (*session)->Finish();
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_EQ(built->output.size(), 4u);
  for (const Record& rec : built->output) {
    EXPECT_EQ(rec.GetInt(1), 0) << rec.ToString();
  }
}

TEST(ExecutorSessionTest, CapTruncatedRoundCarriesWorkIntoTheNextRound) {
  // The path 0–1–2–3 needs several supersteps to flood label 0, but every
  // round is capped at one: each truncated round must hand its undrained
  // workset to the next round instead of dropping it.
  auto built = BuildCcPlan({{0, 1}, {1, 2}, {2, 3}}, /*max_iterations=*/1);
  Executor executor(ExecutionOptions{});
  auto session = executor.StartSession(built->physical);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_FALSE((*session)->initial_report().converged);

  bool converged = false;
  for (int round = 0; round < 10 && !converged; ++round) {
    auto report = (*session)->RunRound({});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->iterations, 1);
    converged = report->converged;
  }
  EXPECT_TRUE(converged) << "leftover workset was lost between rounds";
  EXPECT_EQ(SolutionLabels(**session),
            (std::map<int64_t, int64_t>{{0, 0}, {1, 0}, {2, 0}, {3, 0}}));
  ASSERT_TRUE((*session)->Finish().ok());
}

TEST(ExecutorSessionTest, ReconfigureAfterCapTruncatedRoundKeepsLeftover) {
  // The cold round on the path 0–1–2–3 stops after one superstep with
  // candidates still queued for the next one. Reconfigure must carry that
  // leftover workset into the rebuilt skeleton — dropping it would leave
  // vertices 2 and 3 with stale labels.
  auto built = BuildCcPlan({{0, 1}, {1, 2}, {2, 3}}, /*max_iterations=*/1);
  Executor executor(ExecutionOptions{.parallelism = 4});
  auto session = executor.StartSession(built->physical);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_FALSE((*session)->initial_report().converged);

  auto resumed = (*session)->Reconfigure(2);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ((*session)->parallelism(), 2);

  bool converged = resumed->converged;
  for (int round = 0; round < 10 && !converged; ++round) {
    auto report = (*session)->RunRound({});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    converged = report->converged;
  }
  EXPECT_TRUE(converged) << "leftover workset was lost across Reconfigure";
  EXPECT_EQ(SolutionLabels(**session),
            (std::map<int64_t, int64_t>{{0, 0}, {1, 0}, {2, 0}, {3, 0}}));
  ASSERT_TRUE((*session)->Finish().ok());
}

TEST(ExecutorSessionTest, AsyncSessionReconfiguresBetweenWarmRounds) {
  // A barrier-free resident loop ends every round with its poll units
  // counted out but its park slots alive. Reconfigure tears the schedule
  // down at that boundary; the slots must go with it.
  auto built = BuildTwoComponentPlan();
  ExecutionOptions options{.parallelism = 4};
  options.sync_mode = SyncMode::kAsync;
  Executor executor(options);
  auto session = executor.StartSession(built->physical);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_TRUE((*session)->initial_report().converged);

  auto round = (*session)->RunRound(
      {Record::OfInts(1, 2), Record::OfInts(2, 0)});
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_TRUE(round->converged);

  auto resumed = (*session)->Reconfigure(2);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ((*session)->parallelism(), 2);

  round = (*session)->RunRound({Record::OfInts(3, 9)});
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(SolutionLabels(**session),
            (std::map<int64_t, int64_t>{{0, 0}, {1, 0}, {2, 0}, {3, 0}}));

  auto exec = (*session)->Finish();
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec->engine_parks, exec->engine_wakes);
}

TEST(ExecutorSessionTest, ReconfigureWaitsOutASlowBranchBesideTheLoop) {
  // A one-shot branch beside the resident loop is still running when the
  // cold round ends. Reconfigure's quiesce must wake when that branch
  // completes, although the plan as a whole never completes before Finish.
  auto built = BuildCcPlan(
      {{0, 1}, {2, 3}}, 1000, [](PlanBuilder* pb, CcSessionPlan* plan) {
        auto side = pb->Source(
            "side", std::vector<Record>{Record::OfInts(0), Record::OfInts(1)});
        auto slow =
            pb->Map("slow", side, [](const Record& rec, Collector* out) {
              std::this_thread::sleep_for(std::chrono::milliseconds(300));
              out->Emit(rec);
            });
        pb->Sink("side_out", slow, &plan->side_output);
      });
  Executor executor(ExecutionOptions{.parallelism = 2, .worker_threads = 4});
  auto session = executor.StartSession(built->physical);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  ExecutionSession* raw = session->get();
  auto reconfigured =
      std::async(std::launch::async, [raw] { return raw->Reconfigure(2); });
  if (reconfigured.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    // A lost wakeup cannot be cancelled from here, and the future's
    // destructor would wait on it forever: fail the binary instead.
    std::fprintf(stderr, "Reconfigure did not return within 30 s\n");
    std::_Exit(1);
  }
  auto resumed = reconfigured.get();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->converged);
  EXPECT_EQ(SolutionLabels(**session),
            (std::map<int64_t, int64_t>{{0, 0}, {1, 0}, {2, 2}, {3, 2}}));
  ASSERT_TRUE((*session)->Finish().ok());
  EXPECT_EQ(built->side_output.size(), 2u);
}

TEST(ExecutorSessionTest, DestructorFinishesImplicitly) {
  auto built = BuildTwoComponentPlan();
  Executor executor(ExecutionOptions{});
  auto session = executor.StartSession(built->physical);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  session->reset();  // must join all threads without an explicit Finish
  EXPECT_EQ(built->output.size(), 4u);
}

TEST(ExecutorSessionTest, RejectsUnsuitablePlans) {
  // No workset iteration at all.
  std::vector<Record> out;
  PlanBuilder pb;
  auto src = pb.Source("src", std::vector<Record>{Record::OfInts(1)});
  pb.Sink("out", src, &out);
  Plan plan = std::move(pb).Finish();
  Optimizer optimizer(OptimizerOptions{});
  auto physical = optimizer.Optimize(plan);
  ASSERT_TRUE(physical.ok());
  Executor executor(ExecutionOptions{});
  auto session = executor.StartSession(*physical);
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sfdf
