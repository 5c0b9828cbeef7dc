#include "service/serving_pagerank.h"

#include <algorithm>
#include <cmath>

#include "algos/incremental_pagerank.h"
#include "core/solution_set.h"
#include "dataflow/plan_builder.h"
#include "optimizer/optimizer.h"

namespace sfdf {

ServingPageRank::~ServingPageRank() {
  if (service_ != nullptr) {
    Status ignored = service_->Stop();
    (void)ignored;
  }
}

Result<std::unique_ptr<ServingPageRank>> ServingPageRank::Start(
    const Graph& graph, const ServingPageRankOptions& options) {
  if (options.damping <= 0 || options.damping >= 1) {
    return Status::InvalidArgument("damping must be in (0, 1)");
  }
  if (options.epsilon <= 0) {
    return Status::InvalidArgument("epsilon must be > 0");
  }
  if (graph.num_vertices() == 0) {
    return Status::InvalidArgument("cannot serve an empty graph");
  }

  if (options.max_vertices < 0 ||
      (options.max_vertices > 0 &&
       options.max_vertices < graph.num_vertices())) {
    return Status::InvalidArgument(
        "max_vertices must be 0 (default) or >= the initial vertex count");
  }

  std::unique_ptr<ServingPageRank> serving(new ServingPageRank);
  serving->damping_ = options.damping;
  serving->epsilon_ = options.epsilon;
  serving->max_vertices_ = options.max_vertices > 0
                               ? options.max_vertices
                               : 16 * graph.num_vertices() + 1024;
  serving->base_ =
      (1.0 - options.damping) / static_cast<double>(graph.num_vertices());
  serving->graph_ = std::make_shared<DynamicGraph>(graph);
  serving->final_output_ = std::make_unique<std::vector<Record>>();

  // S_0: every page at the base rank. W_0: the base mass pushed once along
  // every edge — the cold round then converges full PageRank (§7.2). Both
  // come from the same builders as the batch incremental run.
  PlanBuilder pb;
  auto ranks = pb.Source(
      "S0", BuildInitialRankRecords(graph.num_vertices(), options.damping));
  auto pushes = pb.Source(
      "W0", BuildInitialPushRecords(graph, options.damping));
  // Sessions need superstep boundaries to park rounds at — no microsteps.
  auto it = pb.BeginWorksetIteration(
      "serve-pr", ranks, pushes, /*solution_key=*/{0},
      /*comparator=*/nullptr, IterationMode::kSuperstep,
      options.max_iterations_per_round);
  // ∆ part 1: the shared "absorb" UDF — rank' = rank + Σ pushes, residual
  // in field 2 to feed the push stage.
  auto delta = pb.InnerCoGroup("absorb", it.Workset(), it.SolutionSet(),
                               {0}, {0}, PageRankAbsorbUdf());
  pb.DeclarePreserved(delta, 1, 0, 0);
  // ∆ part 2: adaptive push over the *mutable* adjacency. Unlike the batch
  // formulation's constant transition-matrix Match, the UDF walks the
  // DynamicGraph this serving instance owns, so edge mutations take effect
  // the round after they are applied — no frozen cache to rebuild. The
  // session's round boundary orders the admission thread's writes against
  // these reads.
  std::shared_ptr<DynamicGraph> adjacency = serving->graph_;
  const double damping = options.damping;
  const double epsilon = options.epsilon;
  auto next = pb.Map(
      "push", delta,
      [adjacency, damping, epsilon](const Record& d, Collector* out) {
        const double residual = d.GetDouble(2);
        if (std::abs(residual) <= epsilon) return;  // page converged: halt
        const VertexId page = d.GetInt(0);
        if (!adjacency->HasVertex(page)) return;
        const std::vector<VertexId>& neighbors = adjacency->Neighbors(page);
        if (neighbors.empty()) return;
        const double push =
            damping * residual / static_cast<double>(neighbors.size());
        for (VertexId v : neighbors) {
          out->Emit(Record::OfIntDouble(v, push));
        }
      });
  auto result = it.Close(delta, next);
  pb.Sink("ranks", result, serving->final_output_.get());
  Plan plan = std::move(pb).Finish();

  OptimizerOptions oopt;
  oopt.parallelism = options.parallelism;
  Optimizer optimizer(oopt);
  auto physical = optimizer.Optimize(plan);
  if (!physical.ok()) return physical.status();

  ServiceOptions sopt;
  sopt.max_batch = options.max_batch;
  sopt.exec.parallelism = options.parallelism;
  sopt.exec.worker_threads = options.worker_threads;
  sopt.exec.engine = options.engine;
  sopt.exec.sync_mode = options.sync_mode;
  sopt.exec.staleness_bound = options.staleness_bound;
  ServingPageRank* raw = serving.get();
  auto service = IterationService::Start(
      std::move(*physical),
      [raw](ExecutionSession& session,
            const std::vector<GraphMutation>& batch) {
        return raw->Translate(session, batch);
      },
      sopt,
      [raw](const GraphMutation& mutation) {
        return raw->ValidateMutation(mutation);
      });
  if (!service.ok()) return service.status();
  serving->service_ = std::move(*service);
  return serving;
}

Status ServingPageRank::ValidateMutation(const GraphMutation& mutation) const {
  const bool is_edge = mutation.kind != MutationKind::kVertexUpsert;
  if (mutation.u < 0 || (is_edge && mutation.v < 0)) {
    return Status::InvalidArgument("negative vertex id in " +
                                   mutation.ToString());
  }
  if (!is_edge && !std::isfinite(mutation.value)) {
    // A NaN/Inf push would defeat the |residual| <= epsilon halt test and
    // poison every reachable page's resident rank.
    return Status::InvalidArgument("non-finite upsert value in " +
                                   mutation.ToString());
  }
  const VertexId highest = is_edge ? std::max(mutation.u, mutation.v)
                                   : mutation.u;
  if (highest >= max_vertices_) {
    return Status::InvalidArgument(
        "vertex id " + std::to_string(highest) +
        " exceeds the serving capacity of " +
        std::to_string(max_vertices_) +
        " (ServingPageRankOptions.max_vertices)");
  }
  return Status::OK();
}

Result<std::vector<Record>> ServingPageRank::Translate(
    ExecutionSession& session, const std::vector<GraphMutation>& batch) {
  // Admission already validated the batch (ValidateMutation); re-check
  // here so a mis-wired service without the validator still rejects the
  // batch atomically, before any resident state changes.
  for (const GraphMutation& mutation : batch) {
    Status status = ValidateMutation(mutation);
    if (!status.ok()) return status;
  }

  std::vector<Record> seeds;
  const KeySpec& solution_key = session.solution_key();

  auto rank_of = [&](VertexId v) -> double {
    Record probe = Record::OfInts(v);
    const Record* rec =
        session.solution_partition(session.PartitionOfSolution(probe))
            ->Peek(probe, solution_key);
    return rec != nullptr ? rec->GetDouble(1) : base_;
  };
  // Delta re-seeding: a page unseen so far enters the vertex space and the
  // resident solution set directly, at the base rank.
  auto ensure_served = [&](VertexId v) {
    graph_->EnsureVertex(v);
    Record probe = Record::OfInts(v);
    SolutionSetIndex* partition =
        session.solution_partition(session.PartitionOfSolution(probe));
    if (partition->Peek(probe, solution_key) == nullptr) {
      partition->Apply(Record::OfIntDouble(v, base_));
    }
  };

  for (const GraphMutation& mutation : batch) {
    if (mutation.kind == MutationKind::kEdgeRemove) {
      // A removal introduces nothing: a never-inserted edge (or unknown
      // endpoint) is a pure no-op — growing the vertex space here would
      // serve phantom pages that a cold recompute does not know.
      if (!graph_->HasEdge(mutation.u, mutation.v)) continue;
    } else {
      ensure_served(mutation.u);
      if (mutation.kind == MutationKind::kEdgeInsert) {
        ensure_served(mutation.v);
      }
    }
    // Seeds are computed against the pre-mutation adjacency, then the
    // mutation is applied so the round's pushes walk the new structure.
    // Cannot fail after the up-front validation: every referenced vertex
    // is in the vertex space by now.
    Status status = AppendPageRankMutationSeeds(*graph_, rank_of, damping_,
                                                mutation, &seeds);
    if (!status.ok()) return status;
    graph_->Apply(mutation);
  }
  return seeds;
}

Result<double> ServingPageRank::Rank(VertexId page,
                                     uint64_t* epoch_out) const {
  IterationService::QueryResult query = service_->QueryKey(page);
  if (epoch_out != nullptr) *epoch_out = query.epoch;
  if (!query.found) {
    return Status::NotFound("page " + std::to_string(page) +
                            " is not served");
  }
  return query.record.GetDouble(1);
}

ServingPageRank::RankSnapshot ServingPageRank::Ranks() const {
  IterationService::SnapshotResult snapshot = service_->Snapshot();
  RankSnapshot result;
  result.epoch = snapshot.epoch;
  result.ranks.reserve(snapshot.records.size());
  for (const Record& rec : snapshot.records) {
    result.ranks.emplace_back(rec.GetInt(0), rec.GetDouble(1));
  }
  std::sort(result.ranks.begin(), result.ranks.end());
  return result;
}

}  // namespace sfdf
