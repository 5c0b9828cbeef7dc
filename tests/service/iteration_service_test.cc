// The continuous serving subsystem: resident solution sets + streamed graph
// mutations re-converged as warm incremental rounds.
#include "service/iteration_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algos/connected_components.h"
#include "algos/incremental_pagerank.h"
#include "core/solution_set.h"
#include "dataflow/plan_builder.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "optimizer/optimizer.h"
#include "record/comparator.h"
#include "service/serving_pagerank.h"

namespace sfdf {
namespace {

// ---------------------------------------------------------------------------
// A streamed Connected Components service built directly on IterationService:
// starts on isolated vertices, absorbs edges as they arrive. The body walks
// a DynamicGraph owned by the fixture so propagation crosses streamed edges.
// ---------------------------------------------------------------------------

class StreamedCc {
 public:
  static std::unique_ptr<StreamedCc> Start(int64_t num_vertices,
                                           ServiceOptions options = {}) {
    auto cc = std::unique_ptr<StreamedCc>(new StreamedCc);
    cc->graph_ = std::make_shared<DynamicGraph>(num_vertices);
    cc->output_ = std::make_unique<std::vector<Record>>();

    std::vector<Record> labels;
    for (int64_t v = 0; v < num_vertices; ++v) {
      labels.push_back(Record::OfInts(v, v));
    }
    PlanBuilder pb;
    auto labels_src = pb.Source("V", std::move(labels));
    auto workset_src = pb.Source("W0", std::vector<Record>{});
    auto it = pb.BeginWorksetIteration("serve-cc", labels_src, workset_src,
                                       /*solution_key=*/{0},
                                       OrderByIntFieldDesc(1),
                                       IterationMode::kSuperstep, 1000);
    auto delta = pb.Match("update", it.Workset(), it.SolutionSet(), {0}, {0},
                          [](const Record& cand, const Record& current,
                             Collector* out) {
                            if (cand.GetInt(1) < current.GetInt(1)) {
                              out->Emit(Record::OfInts(cand.GetInt(0),
                                                       cand.GetInt(1)));
                            }
                          });
    pb.DeclarePreserved(delta, 1, 0, 0);
    std::shared_ptr<DynamicGraph> adjacency = cc->graph_;
    auto next = pb.Map("neighbors", delta,
                       [adjacency](const Record& changed, Collector* out) {
                         for (VertexId n :
                              adjacency->Neighbors(changed.GetInt(0))) {
                           out->Emit(Record::OfInts(n, changed.GetInt(1)));
                         }
                       });
    auto result = it.Close(delta, next);
    pb.Sink("labels", result, cc->output_.get());
    Plan plan = std::move(pb).Finish();

    Optimizer optimizer(OptimizerOptions{});
    auto physical = optimizer.Optimize(plan);
    EXPECT_TRUE(physical.ok()) << physical.status().ToString();

    StreamedCc* raw = cc.get();
    auto service = IterationService::Start(
        std::move(*physical),
        [raw](ExecutionSession& session,
              const std::vector<GraphMutation>& batch) {
          return raw->Translate(session, batch);
        },
        options,
        [](const GraphMutation& m) {
          // Admission validation: deletions are not monotone under the
          // min-label CPO and ids must stay in a sane vertex space.
          if (m.kind == MutationKind::kEdgeRemove) {
            std::vector<Record> scratch;
            return AppendCcMutationSeeds([](VertexId v) { return v; }, m,
                                         &scratch);
          }
          const bool is_edge = m.kind != MutationKind::kVertexUpsert;
          if (m.u < 0 || (is_edge && m.v < 0) ||
              std::max(m.u, m.v) >= (int64_t{1} << 20)) {
            return Status::InvalidArgument("vertex id out of range in " +
                                           m.ToString());
          }
          return Status::OK();
        });
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    cc->service_ = std::move(*service);
    return cc;
  }

  IterationService& service() { return *service_; }

  std::map<int64_t, int64_t> Labels() {
    std::map<int64_t, int64_t> labels;
    for (const Record& rec : service_->Snapshot().records) {
      labels[rec.GetInt(0)] = rec.GetInt(1);
    }
    return labels;
  }

 private:
  StreamedCc() = default;

  Result<std::vector<Record>> Translate(
      ExecutionSession& session, const std::vector<GraphMutation>& batch) {
    std::vector<Record> seeds;
    const KeySpec& key = session.solution_key();
    auto component_of = [&](VertexId v) -> int64_t {
      Record probe = Record::OfInts(v);
      const Record* rec =
          session.solution_partition(session.PartitionOfSolution(probe))
              ->Peek(probe, key);
      return rec != nullptr ? rec->GetInt(1) : v;
    };
    for (const GraphMutation& m : batch) {
      if (m.kind == MutationKind::kEdgeInsert) {
        graph_->EnsureVertex(std::max(m.u, m.v));
        for (VertexId v : {m.u, m.v}) {
          Record probe = Record::OfInts(v);
          SolutionSetIndex* partition =
              session.solution_partition(session.PartitionOfSolution(probe));
          if (partition->Peek(probe, key) == nullptr) {
            partition->Apply(Record::OfInts(v, v));
          }
        }
      }
      Status status = AppendCcMutationSeeds(component_of, m, &seeds);
      if (!status.ok()) return status;
      if (m.kind == MutationKind::kEdgeInsert) {
        // CC is symmetric: one streamed edge is both arcs.
        graph_->AddEdge(m.u, m.v);
        graph_->AddEdge(m.v, m.u);
      }
    }
    return seeds;
  }

  std::shared_ptr<DynamicGraph> graph_;
  std::unique_ptr<std::vector<Record>> output_;
  std::unique_ptr<IterationService> service_;
};

TEST(StreamedCcServiceTest, AbsorbsStreamedEdgesIncrementally) {
  auto cc = StreamedCc::Start(6);

  // Nothing streamed yet: everyone is its own component.
  EXPECT_EQ(cc->Labels(),
            (std::map<int64_t, int64_t>{
                {0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}}));

  ASSERT_TRUE(cc->service()
                  .Apply({GraphMutation::EdgeInsert(0, 1),
                          GraphMutation::EdgeInsert(1, 2),
                          GraphMutation::EdgeInsert(3, 4)})
                  .ok());
  EXPECT_EQ(cc->Labels(),
            (std::map<int64_t, int64_t>{
                {0, 0}, {1, 0}, {2, 0}, {3, 3}, {4, 3}, {5, 5}}));

  // Bridge the two components; the warm round only touches the merged one.
  ASSERT_TRUE(cc->service().Apply({GraphMutation::EdgeInsert(2, 3)}).ok());
  EXPECT_EQ(cc->Labels(),
            (std::map<int64_t, int64_t>{
                {0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 5}}));

  // A late vertex joins the space and the component.
  ASSERT_TRUE(cc->service().Apply({GraphMutation::VertexUpsert(6),
                                   GraphMutation::EdgeInsert(6, 5)})
                  .ok());
  std::map<int64_t, int64_t> labels = cc->Labels();
  EXPECT_EQ(labels[5], 5);
  EXPECT_EQ(labels[6], 5);

  // The fixpoint matches a cold batch run over the final edge set.
  GraphBuilder builder(7);
  for (auto [u, v] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 1}, {1, 2}, {3, 4}, {2, 3}, {6, 5}}) {
    builder.AddEdge(u, v);
  }
  auto cold = RunConnectedComponents(builder.Build(), CcOptions{});
  ASSERT_TRUE(cold.ok());
  for (VertexId v = 0; v < 7; ++v) {
    EXPECT_EQ(labels[v], cold->labels[v]) << "vertex " << v;
  }

  EXPECT_TRUE(cc->service().Stop().ok());
}

TEST(StreamedCcServiceTest, EdgeRemovalIsRejectedAtAdmissionAsUnsupported) {
  auto cc = StreamedCc::Start(4);
  ASSERT_TRUE(cc->service().Apply({GraphMutation::EdgeInsert(0, 1)}).ok());

  Status status = cc->service().Apply({GraphMutation::EdgeRemove(0, 1)});
  EXPECT_EQ(status.code(), StatusCode::kUnsupported) << status.ToString();
  EXPECT_GE(cc->service().stats().mutations_rejected, 1u);

  // One client's unsupported mutation does not kill the service: other
  // mutations keep flowing and reads keep serving.
  ASSERT_TRUE(cc->service().Apply({GraphMutation::EdgeInsert(1, 2)}).ok());
  std::map<int64_t, int64_t> labels = cc->Labels();
  EXPECT_EQ(labels[1], 0);
  EXPECT_EQ(labels[2], 0);
  EXPECT_TRUE(cc->service().Stop().ok());
}

TEST(StreamedCcServiceTest, BoundedAdmissionRejectsOverloadAsRetryable) {
  // max_pending_mutations bounds the enqueued-not-yet-admitted backlog: a
  // call that would overflow it is refused with ResourceExhausted — a
  // RETRYABLE condition, distinct from validation failures.
  ServiceOptions options;
  options.max_pending_mutations = 2;
  auto cc = StreamedCc::Start(8, options);

  // One call with more mutations than the whole bound can never fit.
  Status rejection;
  const uint64_t ticket = cc->service().Mutate(
      {GraphMutation::EdgeInsert(0, 1), GraphMutation::EdgeInsert(1, 2),
       GraphMutation::EdgeInsert(2, 3)},
      &rejection);
  EXPECT_EQ(ticket, 0u);
  EXPECT_EQ(rejection.code(), StatusCode::kResourceExhausted)
      << rejection.ToString();
  EXPECT_GE(cc->service().stats().mutations_rejected, 3u);

  // A validation failure on the same service reports the OTHER family —
  // clients must be able to tell "back off" from "fix your request".
  const uint64_t invalid = cc->service().Mutate(
      {GraphMutation::EdgeInsert(-5, 1)}, &rejection);
  EXPECT_EQ(invalid, 0u);
  EXPECT_EQ(rejection.code(), StatusCode::kInvalidArgument);

  // Within the bound everything flows normally and the depth gauge reads
  // zero again once drained.
  ASSERT_TRUE(cc->service()
                  .Apply({GraphMutation::EdgeInsert(0, 1),
                          GraphMutation::EdgeInsert(1, 2)})
                  .ok());
  EXPECT_EQ(cc->Labels()[2], 0);
  EXPECT_EQ(cc->service().stats().admission_queue_depth, 0u);
  EXPECT_TRUE(cc->service().Stop().ok());
}

TEST(StreamedCcServiceTest, NegativeAdmissionBoundIsRejectedAtStart) {
  ServiceOptions options;
  options.max_pending_mutations = -1;
  PlanBuilder pb;
  std::vector<Record> out;
  auto src = pb.Source("src", std::vector<Record>{Record::OfInts(1)});
  pb.Sink("out", src, &out);
  Plan plan = std::move(pb).Finish();
  auto physical = Optimizer(OptimizerOptions{}).Optimize(plan);
  ASSERT_TRUE(physical.ok());
  auto service = IterationService::Start(
      std::move(*physical),
      [](ExecutionSession&, const std::vector<GraphMutation>&)
          -> Result<std::vector<Record>> { return std::vector<Record>{}; },
      options);
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Group-commit admission, driven through a raw IterationService whose
// translator can hold the first warm round until the test releases it.
// Whatever a test enqueues meanwhile is queued behind a busy service
// thread, so batch boundaries follow from the protocol, not from timing.
// ---------------------------------------------------------------------------

class HeldRounds {
 public:
  /// Serves min-labels over `num_vertices` isolated vertices; an edge
  /// insert (u, v) offers min(u, v) to max(u, v). With `hold_first`, the
  /// first translated batch blocks until Release().
  static std::unique_ptr<HeldRounds> Start(int64_t num_vertices,
                                           ServiceOptions options,
                                           bool hold_first) {
    auto held = std::unique_ptr<HeldRounds>(new HeldRounds);
    held->holding_ = hold_first;
    std::vector<Record> labels;
    for (int64_t v = 0; v < num_vertices; ++v) {
      labels.push_back(Record::OfInts(v, v));
    }
    PlanBuilder pb;
    auto labels_src = pb.Source("V", std::move(labels));
    auto workset_src = pb.Source("W0", std::vector<Record>{});
    auto it = pb.BeginWorksetIteration("held-min-label", labels_src,
                                       workset_src, /*solution_key=*/{0},
                                       OrderByIntFieldDesc(1),
                                       IterationMode::kSuperstep, 100);
    auto delta = pb.Match("update", it.Workset(), it.SolutionSet(), {0}, {0},
                          [](const Record& cand, const Record& current,
                             Collector* out) {
                            if (cand.GetInt(1) < current.GetInt(1)) {
                              out->Emit(cand);
                            }
                          });
    pb.DeclarePreserved(delta, 1, 0, 0);
    auto next = pb.Map("none", delta, [](const Record&, Collector*) {});
    pb.Sink("labels", it.Close(delta, next), &held->output_);
    auto physical = Optimizer(OptimizerOptions{}).Optimize(
        std::move(pb).Finish());
    EXPECT_TRUE(physical.ok()) << physical.status().ToString();

    HeldRounds* raw = held.get();
    auto service = IterationService::Start(
        std::move(*physical),
        [raw](ExecutionSession& session,
              const std::vector<GraphMutation>& batch) {
          return raw->Translate(session, batch);
        },
        options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    held->service_ = std::move(*service);
    return held;
  }

  /// A failed assertion must not leave Stop() joining a held round.
  ~HeldRounds() { Release(); }
  HeldRounds(const HeldRounds&) = delete;
  HeldRounds& operator=(const HeldRounds&) = delete;

  IterationService& service() { return *service_; }

  /// Blocks until the held first round is inside the translator.
  void WaitUntilHeld() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !batch_sizes_.empty(); });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    holding_ = false;
    cv_.notify_all();
  }

  /// Size and session width of every translated batch, in round order.
  std::vector<size_t> batch_sizes() {
    std::lock_guard<std::mutex> lock(mutex_);
    return batch_sizes_;
  }
  std::vector<int> batch_widths() {
    std::lock_guard<std::mutex> lock(mutex_);
    return batch_widths_;
  }

 private:
  HeldRounds() = default;

  Result<std::vector<Record>> Translate(
      ExecutionSession& session, const std::vector<GraphMutation>& batch) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      batch_sizes_.push_back(batch.size());
      batch_widths_.push_back(session.parallelism());
      cv_.notify_all();
      cv_.wait(lock, [this] { return !holding_; });
    }
    std::vector<Record> seeds;
    for (const GraphMutation& m : batch) {
      seeds.push_back(Record::OfInts(std::max(m.u, m.v), std::min(m.u, m.v)));
    }
    return seeds;
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool holding_ = false;
  std::vector<size_t> batch_sizes_;
  std::vector<int> batch_widths_;
  std::vector<Record> output_;
  std::unique_ptr<IterationService> service_;
};

TEST(GroupCommitTest, LoneApplyOnAnIdleServiceRunsAtOnce) {
  // max_linger is ignored: an idle service thread starts the round as soon
  // as the mutation arrives instead of waiting for company.
  ServiceOptions options;
  options.max_linger = std::chrono::seconds(10);
  auto held = HeldRounds::Start(8, options, /*hold_first=*/false);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(held->service().Apply({GraphMutation::EdgeInsert(2, 5)}).ok());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(held->service().stats().rounds, 1u);
  EXPECT_EQ(held->service().QueryKey(5).record.GetInt(1), 2);
  EXPECT_TRUE(held->service().Stop().ok());
}

TEST(GroupCommitTest, MutationsQueuedBehindARoundCommitInMaxBatchChunks) {
  ServiceOptions options;
  options.max_batch = 4;
  options.max_linger = std::chrono::seconds(10);
  auto held = HeldRounds::Start(16, options, /*hold_first=*/true);
  IterationService& service = held->service();

  ASSERT_GT(service.Mutate({GraphMutation::EdgeInsert(0, 1)}), 0u);
  held->WaitUntilHeld();
  // Round 1 is in flight: these calls become the next batches, cut at
  // max_batch, and run back to back once it commits.
  constexpr int kQueued = 10;
  std::vector<uint64_t> tickets;
  for (int64_t v = 2; v < 2 + kQueued; ++v) {
    tickets.push_back(service.Mutate({GraphMutation::EdgeInsert(v, v + 1)}));
    ASSERT_GT(tickets.back(), 0u);
  }
  held->Release();
  for (uint64_t ticket : tickets) {
    EXPECT_TRUE(service.Await(ticket).ok()) << "ticket " << ticket;
  }

  const uint64_t chunks = (kQueued + options.max_batch - 1) / options.max_batch;
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rounds, 1 + chunks);
  EXPECT_EQ(stats.mutations_applied, 1u + kQueued);
  EXPECT_EQ(held->batch_sizes(), (std::vector<size_t>{1, 4, 4, 2}));
  EXPECT_EQ(service.epoch(), 2 * stats.rounds);
  EXPECT_TRUE(service.Stop().ok());
}

TEST(GroupCommitTest, ReconfigureQueuedBehindARoundRunsBeforePendingBatches) {
  ServiceOptions options;
  options.max_batch = 64;
  options.exec.parallelism = 2;
  auto held = HeldRounds::Start(16, options, /*hold_first=*/true);
  IterationService& service = held->service();

  ASSERT_GT(service.Mutate({GraphMutation::EdgeInsert(0, 1)}), 0u);
  held->WaitUntilHeld();
  std::vector<uint64_t> tickets;
  for (int64_t v = 2; v < 8; ++v) {
    tickets.push_back(service.Mutate({GraphMutation::EdgeInsert(v, v + 8)}));
    ASSERT_GT(tickets.back(), 0u);
  }
  Status resized;
  std::thread reconfigure([&] { resized = service.Reconfigure(3); });
  while (service.reconfigs_queued() == 0) std::this_thread::yield();
  held->Release();
  reconfigure.join();
  ASSERT_TRUE(resized.ok()) << resized.ToString();

  // The remap jumped the queue: every mutation pending behind round 1 ran
  // at the new width, and every ticket taken before the remap resolved.
  for (uint64_t ticket : tickets) {
    EXPECT_TRUE(service.Await(ticket).ok()) << "ticket " << ticket;
  }
  EXPECT_EQ(held->batch_widths(), (std::vector<int>{2, 3}));
  EXPECT_EQ(held->batch_sizes(), (std::vector<size_t>{1, 6}));
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.reconfigs, 1u);
  EXPECT_EQ(stats.mutations_applied, 7u);
  for (int64_t v = 2; v < 8; ++v) {
    EXPECT_EQ(service.QueryKey(v + 8).record.GetInt(1), v) << "vertex " << v;
  }
  EXPECT_TRUE(service.Stop().ok());
}

TEST(GroupCommitTest, StatsAnswerWhileARoundIsInFlight) {
  // The committed counters have their own lock: a stats (or telemetry)
  // read answers at once from the last commit instead of waiting for the
  // round the service thread is running.
  auto held = HeldRounds::Start(8, ServiceOptions{}, /*hold_first=*/true);
  IterationService& service = held->service();
  ASSERT_GT(service.Mutate({GraphMutation::EdgeInsert(0, 1)}), 0u);
  held->WaitUntilHeld();
  auto stats = std::async(std::launch::async,
                          [&service] { return service.stats(); });
  const bool answered =
      stats.wait_for(std::chrono::seconds(1)) == std::future_status::ready;
  held->Release();
  EXPECT_TRUE(answered) << "stats() waited for the round in flight";
  EXPECT_EQ(stats.get().rounds, 0u);  // round 1 had not committed yet
  EXPECT_TRUE(service.Stop().ok());
}

// ---------------------------------------------------------------------------
// ServingPageRank: warm re-convergence matches cold recomputes.
// ---------------------------------------------------------------------------

Graph RingWithChords(int64_t n) {
  GraphBuilder builder(n);
  for (int64_t v = 0; v < n; ++v) {
    builder.AddEdge(v, (v + 1) % n);
    if (v % 3 == 0) builder.AddEdge(v, (v + n / 2) % n);
  }
  return builder.Build();
}

std::map<VertexId, double> ColdRanks(const DynamicGraph& graph,
                                     double epsilon) {
  IncrementalPageRankOptions options;
  options.epsilon = epsilon;
  auto result = RunIncrementalPageRank(graph.Freeze(), options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::map<VertexId, double> ranks;
  for (auto [v, r] : result->ranks) ranks[v] = r;
  return ranks;
}

void ExpectRanksMatch(const ServingPageRank::RankSnapshot& served,
                      const std::map<VertexId, double>& cold, double tol) {
  ASSERT_EQ(served.ranks.size(), cold.size());
  for (auto [v, r] : served.ranks) {
    auto it = cold.find(v);
    ASSERT_NE(it, cold.end()) << "vertex " << v;
    EXPECT_NEAR(r, it->second, tol) << "vertex " << v;
  }
}

TEST(ServingPageRankTest, WarmMutationsTrackColdRecomputes) {
  const double kEps = 1e-12;
  Graph graph = RingWithChords(20);
  DynamicGraph shadow(graph);  // cold-recompute twin

  ServingPageRankOptions options;
  options.epsilon = kEps;
  auto serving = ServingPageRank::Start(graph, options);
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();
  EXPECT_TRUE((*serving)->initial_report().converged);

  // Cold fixpoint.
  ExpectRanksMatch((*serving)->Ranks(), ColdRanks(shadow, kEps), 1e-8);

  // Edge insert: re-converges warm to the mutated graph's fixpoint.
  ASSERT_TRUE((*serving)->Apply({GraphMutation::EdgeInsert(0, 10)}).ok());
  shadow.AddEdge(0, 10);
  ExpectRanksMatch((*serving)->Ranks(), ColdRanks(shadow, kEps), 1e-8);

  // Edge remove (the §7.2 removed-edge residual retraction).
  ASSERT_TRUE((*serving)->Apply({GraphMutation::EdgeRemove(3, 4)}).ok());
  shadow.RemoveEdge(3, 4);
  ExpectRanksMatch((*serving)->Ranks(), ColdRanks(shadow, kEps), 1e-8);

  // A batch mixing inserts and removes, including a no-op re-insert.
  ASSERT_TRUE((*serving)
                  ->Apply({GraphMutation::EdgeInsert(5, 15),
                           GraphMutation::EdgeInsert(5, 15),
                           GraphMutation::EdgeRemove(9, 10),
                           GraphMutation::EdgeInsert(7, 2)})
                  .ok());
  shadow.AddEdge(5, 15);
  shadow.RemoveEdge(9, 10);
  shadow.AddEdge(7, 2);
  ExpectRanksMatch((*serving)->Ranks(), ColdRanks(shadow, kEps), 1e-8);

  // Warm rounds did strictly less work than the cold convergence.
  ServiceStats stats = (*serving)->stats();
  EXPECT_EQ(stats.rounds, 3u);
  EXPECT_EQ(stats.mutations_applied, 6u);
  EXPECT_TRUE((*serving)->Stop().ok());
}

TEST(ServingPageRankTest, FailedStartReturnsStatusWithoutCrashing) {
  Graph graph = RingWithChords(8);
  ServingPageRankOptions options;
  options.parallelism = -1;  // rejected by ExecutionOptions validation
  auto serving = ServingPageRank::Start(graph, options);
  ASSERT_FALSE(serving.ok());
  EXPECT_EQ(serving.status().code(), StatusCode::kInvalidArgument);
  // The half-constructed service (no resident session) was torn down
  // cleanly on the error path.
}

TEST(ServingPageRankTest, MalformedBatchIsRejectedAtomically) {
  Graph graph = RingWithChords(12);
  auto serving = ServingPageRank::Start(graph, ServingPageRankOptions{});
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();
  auto before = (*serving)->Ranks();

  // The valid first mutation must not leak into the served state when a
  // later mutation of the same batch fails admission validation.
  Status status = (*serving)->Apply(
      {GraphMutation::EdgeInsert(0, 5), GraphMutation::EdgeInsert(-7, 2)});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();

  // A vertex id beyond the serving capacity is rejected the same way
  // instead of forcing a huge adjacency allocation.
  status = (*serving)->Apply(
      {GraphMutation::EdgeInsert(0, int64_t{1} << 40)});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.ToString().find("capacity"), std::string::npos);

  // A non-finite upsert mass would poison every reachable rank.
  status = (*serving)->Apply(
      {GraphMutation::VertexUpsert(0, std::nan(""))});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();

  // Rejected calls left the served state — and its epoch — untouched.
  auto after = (*serving)->Ranks();
  ASSERT_EQ(after.ranks.size(), before.ranks.size());
  for (size_t i = 0; i < after.ranks.size(); ++i) {
    EXPECT_EQ(after.ranks[i], before.ranks[i]);
  }
  EXPECT_EQ(after.epoch, before.epoch);
  EXPECT_GE((*serving)->stats().mutations_rejected, 4u);

  // Removing a never-inserted edge is accepted but is a no-op, not a
  // phantom page: the unknown endpoint must stay unknown.
  ASSERT_TRUE((*serving)->Apply({GraphMutation::EdgeRemove(0, 13)}).ok());
  EXPECT_EQ((*serving)->Rank(13).status().code(), StatusCode::kNotFound);

  // Rejections only affect the offending calls — the service keeps
  // accepting valid mutations from everyone else.
  ASSERT_TRUE((*serving)->Apply({GraphMutation::EdgeInsert(0, 5)}).ok());
  EXPECT_TRUE((*serving)->Stop().ok());
}

TEST(ServingPageRankTest, VertexUpsertGrowsTheServedGraph) {
  Graph graph = RingWithChords(12);
  ServingPageRankOptions options;
  options.epsilon = 1e-12;
  auto serving = ServingPageRank::Start(graph, options);
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();

  // Unknown page: NotFound, then upsert + link it.
  EXPECT_EQ((*serving)->Rank(12).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE((*serving)
                  ->Apply({GraphMutation::VertexUpsert(12),
                           GraphMutation::EdgeInsert(0, 12)})
                  .ok());
  auto rank = (*serving)->Rank(12);
  ASSERT_TRUE(rank.ok());
  EXPECT_GT(*rank, (*serving)->base_rank());  // base + 0's pushed mass

  // Injected rank mass is absorbed and propagated.
  auto before = (*serving)->Rank(5);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(
      (*serving)->Apply({GraphMutation::VertexUpsert(5, 0.25)}).ok());
  auto after = (*serving)->Rank(5);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(*after, *before + 0.2);
  EXPECT_TRUE((*serving)->Stop().ok());
}

TEST(ServingPageRankTest, EpochsAdvancePerBatchAndTagReads) {
  Graph graph = RingWithChords(12);
  auto serving = ServingPageRank::Start(graph, ServingPageRankOptions{});
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();

  EXPECT_EQ((*serving)->epoch(), 0u);  // stable since the cold round
  uint64_t epoch = 0;
  ASSERT_TRUE((*serving)->Rank(0, &epoch).ok());
  EXPECT_EQ(epoch, 0u);

  ASSERT_TRUE((*serving)->Apply({GraphMutation::EdgeInsert(0, 5)}).ok());
  EXPECT_EQ((*serving)->epoch(), 2u);  // one committed batch boundary
  ASSERT_TRUE((*serving)->Apply({GraphMutation::EdgeRemove(0, 5)}).ok());
  EXPECT_EQ((*serving)->epoch(), 4u);

  ASSERT_TRUE((*serving)->Rank(0, &epoch).ok());
  EXPECT_EQ(epoch, 4u);
  EXPECT_EQ((*serving)->Ranks().epoch, 4u);
  EXPECT_TRUE((*serving)->Stop().ok());
}

TEST(ServingPageRankTest, AdmissionQueueCoalescesUpToMaxBatch) {
  Graph graph = RingWithChords(16);
  ServingPageRankOptions options;
  options.max_batch = 4;
  options.max_linger = std::chrono::milliseconds(50);
  auto serving = ServingPageRank::Start(graph, options);
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();

  // 8 mutations in one enqueue: admitted as two max_batch-sized rounds.
  std::vector<GraphMutation> mutations;
  for (int64_t i = 0; i < 8; ++i) {
    mutations.push_back(GraphMutation::EdgeInsert(i, i + 8));
  }
  uint64_t ticket = (*serving)->Mutate(std::move(mutations));
  ASSERT_GT(ticket, 0u);
  ASSERT_TRUE((*serving)->Await(ticket).ok());

  ServiceStats stats = (*serving)->stats();
  EXPECT_EQ(stats.mutations_applied, 8u);
  EXPECT_EQ(stats.rounds, 2u);
  EXPECT_EQ((*serving)->epoch(), 4u);

  // After Stop, enqueues are rejected with ticket 0.
  ASSERT_TRUE((*serving)->Stop().ok());
  EXPECT_EQ((*serving)->Mutate({GraphMutation::EdgeInsert(0, 9)}), 0u);
  EXPECT_GE((*serving)->stats().mutations_rejected, 1u);
}

}  // namespace
}  // namespace sfdf
