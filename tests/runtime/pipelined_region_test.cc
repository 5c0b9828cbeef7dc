// Pipelined region execution (region_mode kPipelined): streaming non-loop
// tasks run as cooperative polling units over bounded exchange lanes with
// backpressure. Covers mode equivalence against materialize, the bounded
// TryPush contract, end-to-end backpressure engagement, wake-up liveness
// under tight budgets, validation of the mode's knobs, and the
// producer-side depth high-water recording the stats contract promises.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dataflow/plan_builder.h"
#include "optimizer/optimizer.h"
#include "runtime/exchange.h"
#include "runtime/executor.h"

namespace sfdf {
namespace {

std::vector<Record> SortedByFields(std::vector<Record> records) {
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              if (a.GetInt(0) != b.GetInt(0)) return a.GetInt(0) < b.GetInt(0);
              if (a.arity() > 1 && b.arity() > 1) {
                return a.GetInt(1) < b.GetInt(1);
              }
              return false;
            });
  return records;
}

/// source -> map -> filter -> map -> sink, plus a second source unioned in
/// before the tail: every streaming operator kind on one plan.
Plan BuildChainPlan(int64_t n, std::vector<Record>* out) {
  std::vector<Record> data;
  std::vector<Record> extra;
  for (int64_t i = 0; i < n; ++i) data.push_back(Record::OfInts(i, i % 7));
  for (int64_t i = 0; i < n / 10; ++i) {
    extra.push_back(Record::OfInts(-i - 1, 0));
  }
  PlanBuilder pb;
  auto src = pb.Source("events", std::move(data));
  auto side = pb.Source("side", std::move(extra));
  auto mapped = pb.Map("scale", src, [](const Record& r, Collector* c) {
    c->Emit(Record::OfInts(r.GetInt(0) * 2, r.GetInt(1)));
  });
  auto kept = pb.Filter("drop_sixes", mapped,
                        [](const Record& r) { return r.GetInt(1) != 6; });
  auto merged = pb.Union("merge", kept, side);
  auto tail = pb.Map("tag", merged, [](const Record& r, Collector* c) {
    c->Emit(Record::OfInts(r.GetInt(0), r.GetInt(1) + 100));
  });
  pb.Sink("out", tail, out);
  return std::move(pb).Finish();
}

/// Chain plan plus a Reduce tail: a pipeline breaker fed by pipelined
/// producers, checking the mixed scheduling (breaker waits for the
/// pipelined region to complete, then reads a fully delimited stream).
Plan BuildBreakerPlan(int64_t n, std::vector<Record>* out) {
  std::vector<Record> data;
  for (int64_t i = 0; i < n; ++i) data.push_back(Record::OfInts(i % 5, i));
  PlanBuilder pb;
  auto src = pb.Source("events", std::move(data));
  auto mapped = pb.Map("double", src, [](const Record& r, Collector* c) {
    c->Emit(Record::OfInts(r.GetInt(0), r.GetInt(1) * 2));
  });
  auto summed = pb.Reduce("sum", mapped, {0},
                          [](const std::vector<Record>& group, Collector* c) {
                            int64_t total = 0;
                            for (const Record& r : group) {
                              total += r.GetInt(1);
                            }
                            c->Emit(Record::OfInts(group.front().GetInt(0),
                                                   total));
                          });
  pb.Sink("out", summed, out);
  return std::move(pb).Finish();
}

Result<ExecutionResult> RunWith(const Plan& plan, ExecutionOptions options) {
  Optimizer optimizer(OptimizerOptions{.parallelism = options.parallelism});
  auto physical = optimizer.Optimize(plan);
  EXPECT_TRUE(physical.ok()) << physical.status().ToString();
  Executor executor(std::move(options));
  return executor.Run(*physical);
}

class PipelinedDopTest : public testing::TestWithParam<int> {};

TEST_P(PipelinedDopTest, MatchesMaterializeOnStreamingChain) {
  const int P = GetParam();
  std::vector<Record> mat_out;
  std::vector<Record> pipe_out;

  auto mat = RunWith(BuildChainPlan(3000, &mat_out),
                     ExecutionOptions{.parallelism = P});
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();

  ExecutionOptions options{.parallelism = P};
  options.region_mode = RegionMode::kPipelined;
  options.pipeline_lane_capacity = 2;  // tight: force real backpressure
  auto pipe = RunWith(BuildChainPlan(3000, &pipe_out), options);
  ASSERT_TRUE(pipe.ok()) << pipe.status().ToString();

  EXPECT_EQ(SortedByFields(mat_out), SortedByFields(pipe_out));
}

TEST_P(PipelinedDopTest, MatchesMaterializeThroughBreaker) {
  const int P = GetParam();
  std::vector<Record> mat_out;
  std::vector<Record> pipe_out;

  auto mat = RunWith(BuildBreakerPlan(2500, &mat_out),
                     ExecutionOptions{.parallelism = P});
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();

  ExecutionOptions options{.parallelism = P};
  options.region_mode = RegionMode::kPipelined;
  options.pipeline_lane_capacity = 1;
  auto pipe = RunWith(BuildBreakerPlan(2500, &pipe_out), options);
  ASSERT_TRUE(pipe.ok()) << pipe.status().ToString();

  EXPECT_EQ(SortedByFields(mat_out), SortedByFields(pipe_out));
}

/// TSan stress: deep chain, tight budget, fewer workers than partitions —
/// constant park/wake and backpressure traffic across threads.
TEST_P(PipelinedDopTest, TightBudgetStress) {
  const int P = GetParam();
  for (int round = 0; round < 3; ++round) {
    std::vector<Record> out;
    ExecutionOptions options{.parallelism = P};
    options.worker_threads = std::max(1, P / 2);
    options.region_mode = RegionMode::kPipelined;
    options.pipeline_lane_capacity = 1;
    auto result = RunWith(BuildChainPlan(5000, &out), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // 5000 minus the i%7==6 records, plus 500 union-side records.
    EXPECT_EQ(out.size(), 5000u - 714u + 500u);
  }
}

INSTANTIATE_TEST_SUITE_P(Dop, PipelinedDopTest, testing::Values(1, 2, 4));

TEST(PipelinedRegionTest, BackpressureEngagesUnderTinyCapacity) {
  std::vector<Record> out;
  ExecutionOptions options{.parallelism = 2};
  options.region_mode = RegionMode::kPipelined;
  options.pipeline_lane_capacity = 1;
  auto result = RunWith(BuildChainPlan(20000, &out), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->backpressure_stalls, 0);
  // A yield is recorded only when a stall is still unresolved at the
  // producer's next scheduling decision; on a lightly-threaded host the
  // consumer often drains the lane before the producer re-steps, so the
  // count is reported but its positivity is an interleaving accident —
  // not asserted.
  EXPECT_GE(result->producer_yields, 0);
  EXPECT_GT(result->peak_resident_segments, 0);
}

TEST(PipelinedRegionTest, MaterializeModeReportsNoBackpressure) {
  std::vector<Record> out;
  auto result =
      RunWith(BuildChainPlan(5000, &out), ExecutionOptions{.parallelism = 2});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->backpressure_stalls, 0);
  EXPECT_EQ(result->producer_yields, 0);
}

TEST(PipelinedRegionTest, LoopPlanKeepsSuperstepSemantics) {
  // A bulk iteration embedded between streaming tasks: the loop keeps its
  // superstep waves (unbounded loop edges) while the surrounding
  // source/map/sink tasks run pipelined.
  auto build = [](std::vector<Record>* out) {
    std::vector<Record> seed;
    for (int64_t i = 0; i < 8; ++i) seed.push_back(Record::OfInts(i, 0));
    PlanBuilder pb;
    auto src = pb.Source("seed", std::move(seed));
    auto pre = pb.Map("pre", src, [](const Record& r, Collector* c) {
      c->Emit(Record::OfInts(r.GetInt(0), r.GetInt(1)));
    });
    auto it = pb.BeginBulkIteration("grow", pre, 5, /*solution_key=*/{0});
    auto next = pb.Map("inc", it.PartialSolution(),
                       [](const Record& r, Collector* c) {
                         c->Emit(Record::OfInts(r.GetInt(0), r.GetInt(1) + 1));
                       });
    auto closed = it.Close(next);
    auto post = pb.Map("post", closed, [](const Record& r, Collector* c) {
      c->Emit(Record::OfInts(r.GetInt(0), r.GetInt(1) * 10));
    });
    pb.Sink("out", post, out);
    return std::move(pb).Finish();
  };

  std::vector<Record> mat_out;
  auto mat = RunWith(build(&mat_out), ExecutionOptions{.parallelism = 2});
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();

  std::vector<Record> pipe_out;
  ExecutionOptions options{.parallelism = 2};
  options.region_mode = RegionMode::kPipelined;
  options.pipeline_lane_capacity = 1;
  auto pipe = RunWith(build(&pipe_out), options);
  ASSERT_TRUE(pipe.ok()) << pipe.status().ToString();

  ASSERT_EQ(pipe_out.size(), 8u);
  for (const Record& rec : SortedByFields(pipe_out)) {
    EXPECT_EQ(rec.GetInt(1), 50);  // 5 iterations, then *10 outside
  }
  EXPECT_EQ(SortedByFields(mat_out), SortedByFields(pipe_out));
}

// --- validation ------------------------------------------------------------

TEST(PipelinedRegionTest, RejectsNonPositiveCapacity) {
  std::vector<Record> out;
  ExecutionOptions options{.parallelism = 2};
  options.region_mode = RegionMode::kPipelined;
  options.pipeline_lane_capacity = 0;
  auto result = RunWith(BuildChainPlan(100, &out), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelinedRegionTest, SessionRejectsPipelinedMode) {
  // Minimal workset-iteration session plan.
  std::vector<Record> labels = {Record::OfInts(0, 0), Record::OfInts(1, 1)};
  std::vector<Record> workset = {Record::OfInts(0, 1)};
  std::vector<Record> out;
  PlanBuilder pb;
  auto labels_src = pb.Source("V", std::move(labels));
  auto workset_src = pb.Source("W0", std::move(workset));
  auto it = pb.BeginWorksetIteration("loop", labels_src, workset_src, {0});
  auto delta = pb.Match("update", it.Workset(), it.SolutionSet(), {0}, {0},
                        [](const Record& cand, const Record& cur,
                           Collector* c) {
                          if (cand.GetInt(1) < cur.GetInt(1)) {
                            c->Emit(cand);
                          }
                        });
  auto result_set = it.Close(delta, delta);
  pb.Sink("out", result_set, &out);
  Plan plan = std::move(pb).Finish();

  Optimizer optimizer(OptimizerOptions{.parallelism = 2});
  auto physical = optimizer.Optimize(plan);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();

  ExecutionOptions options{.parallelism = 2};
  options.region_mode = RegionMode::kPipelined;
  Executor executor(options);
  auto session = executor.StartSession(*physical);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kUnsupported);
}

// --- exchange-level bounded capacity ---------------------------------------

TEST(BoundedExchangeTest, TryPushRejectsDataAtCapacityOnly) {
  Exchange exchange(/*producers=*/1);
  exchange.set_lane_capacity(4);

  auto data_envelope = [] {
    Envelope e;
    e.kind = MarkerKind::kData;
    e.batch.Add(Record::OfInts(7));
    return e;
  };
  for (int i = 0; i < 4; ++i) {
    Envelope e = data_envelope();
    EXPECT_EQ(exchange.TryPush(0, &e), Exchange::PushResult::kOk);
  }
  Envelope rejected = data_envelope();
  EXPECT_EQ(exchange.TryPush(0, &rejected),
            Exchange::PushResult::kBackpressured);
  // The envelope survives a rejection untouched — the caller retries it.
  EXPECT_EQ(rejected.batch.size(), 1u);
  EXPECT_EQ(exchange.stats().backpressure_rejects, 1);

  // Markers always pass: refusing one would wedge phase termination.
  Envelope marker;
  marker.kind = MarkerKind::kEndStream;
  EXPECT_EQ(exchange.TryPush(0, &marker), Exchange::PushResult::kOk);

  // Draining returns credit; the rejected envelope then fits.
  int64_t popped = exchange.DrainOpen([](const RecordBatch&) {});
  EXPECT_EQ(popped, 4);
  EXPECT_TRUE(exchange.AllClosed());
  Envelope retry = data_envelope();
  EXPECT_EQ(exchange.TryPush(0, &retry), Exchange::PushResult::kOk);
}

TEST(BoundedExchangeTest, UnboundedLaneNeverRejects) {
  Exchange exchange(/*producers=*/1);  // capacity unset: unbounded
  for (int i = 0; i < 200; ++i) {
    Envelope e;
    e.kind = MarkerKind::kData;
    e.batch.Add(Record::OfInts(i));
    ASSERT_EQ(exchange.TryPush(0, &e), Exchange::PushResult::kOk);
  }
  EXPECT_EQ(exchange.stats().backpressure_rejects, 0);
}

/// Regression pin for the stats contract: the queue-depth high-water mark
/// is recorded on the producer side of Push (since the v2 data plane), so
/// a fully materialized exchange that was never read still reports its
/// true peak. (An earlier doc claim said it was consumer-read-sampled.)
TEST(BoundedExchangeTest, DepthHighWaterRecordedWithoutAnyRead) {
  Exchange exchange(/*producers=*/2);
  for (int i = 0; i < 3; ++i) {
    Envelope e;
    e.kind = MarkerKind::kData;
    e.batch.Add(Record::OfInts(i));
    exchange.Push(0, std::move(e));
  }
  // No consumer ever touched the exchange.
  EXPECT_EQ(exchange.stats().depth_high_water, 3);
  EXPECT_GT(exchange.stats().peak_resident_segments, 0);
}

TEST(BoundedExchangeTest, ConsumerWakerFiresOnEveryPush) {
  Exchange exchange(/*producers=*/1);
  int wakes = 0;
  exchange.set_consumer_waker([&wakes] { ++wakes; });
  Envelope data;
  data.kind = MarkerKind::kData;
  data.batch.Add(Record::OfInts(1));
  exchange.Push(0, std::move(data));
  Envelope marker;
  marker.kind = MarkerKind::kEndStream;
  exchange.Push(0, std::move(marker));
  // Markers wake too — a parked pipelined consumer must observe
  // end-of-stream, not just data.
  EXPECT_EQ(wakes, 2);
}

}  // namespace
}  // namespace sfdf
