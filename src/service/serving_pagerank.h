// PageRank as a continuously served workload (§7.2 adaptive PageRank on
// the serving subsystem).
//
// Start() converges full PageRank once, cold; after that the solution set
// stays resident and every admitted mutation batch — edge inserts/removes,
// vertex upserts — is folded in as one warm incremental round whose initial
// workset is the batch's residual pushes (AppendPageRankMutationSeeds).
// Rank()/Ranks() serve batch-consistent, epoch-tagged reads throughout.
//
// The dataflow body is the incremental-PageRank plan with one serving
// twist: the "push" operator walks a mutable DynamicGraph owned by this
// class instead of a constant transition-matrix input, so edge mutations
// take effect without rebuilding a frozen cache. The adjacency is only
// mutated between rounds (on the admission thread, via the translator) and
// only read during rounds (by the executor's wave tasks); the session's
// round boundary (see ExecutionSession::RunRound) orders the two.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "graph/mutation.h"
#include "service/iteration_service.h"

namespace sfdf {

struct ServingPageRankOptions {
  double damping = 0.85;
  /// Adaptivity threshold ε: pages stop pushing once their residual falls
  /// below it (§7.2). Smaller = more precise re-convergence.
  double epsilon = 1e-9;
  int parallelism = 0;  ///< 0 = DefaultParallelism()
  /// Engine pool for the resident session (see ExecutionOptions): 0/null =
  /// the shared process default; worker_threads > 0 = a private dedicated
  /// pool; `engine` = an externally owned pool (e.g. a ServiceHost's),
  /// overriding worker_threads.
  int worker_threads = 0;
  Engine* engine = nullptr;
  /// Safety cap on supersteps per warm round.
  int max_iterations_per_round = 10000;
  /// Admission batching (see ServiceOptions; max_linger is ignored).
  int max_batch = 256;
  std::chrono::milliseconds max_linger{2};
  /// Serving capacity: mutations naming a vertex id >= this are rejected at
  /// admission (an unbounded id from an untrusted client would otherwise
  /// force an arbitrarily large adjacency allocation). 0 = 16 × the initial
  /// vertex count + 1024.
  int64_t max_vertices = 0;
  /// Barrier coupling of the resident loop's rounds (cold convergence and
  /// every warm round; see ExecutionOptions::sync_mode). Residual pushes
  /// are additive and merged through immediate apply, so every mode reaches
  /// the same fixpoint up to ε; the epoch/seqlock read contract is
  /// unchanged — a warm round commits only at full quiescence, exactly
  /// where the superstep round commits.
  SyncMode sync_mode = SyncMode::kSuperstep;
  /// Staleness window for SyncMode::kBoundedStale.
  int staleness_bound = 1;
};

class ServingPageRank {
 public:
  /// Converges PageRank on `graph` (blocking) and starts serving. New
  /// vertices may be upserted later; the teleport term stays (1-d)/n for
  /// the initial n (documented approximation — rank mass of late vertices
  /// enters through their edges and explicit upsert mass).
  static Result<std::unique_ptr<ServingPageRank>> Start(
      const Graph& graph, const ServingPageRankOptions& options);

  ~ServingPageRank();

  /// Asynchronous mutation: returns an Await ticket (0 = rejected).
  uint64_t Mutate(std::vector<GraphMutation> mutations) {
    return service_->Mutate(std::move(mutations));
  }
  Status Await(uint64_t ticket) { return service_->Await(ticket); }
  /// Synchronous mutation: blocks until the batch's round committed.
  Status Apply(std::vector<GraphMutation> mutations) {
    return service_->Apply(std::move(mutations));
  }

  /// Batch-consistent point read of a page's served rank; NotFound for
  /// unknown pages. `epoch_out` (optional) receives the batch epoch the
  /// value reflects.
  Result<double> Rank(VertexId page, uint64_t* epoch_out = nullptr) const;

  struct RankSnapshot {
    std::vector<std::pair<VertexId, double>> ranks;  ///< sorted by page id
    uint64_t epoch = 0;
  };
  RankSnapshot Ranks() const;

  uint64_t epoch() const { return service_->epoch(); }
  ServiceStats stats() const { return service_->stats(); }
  /// The underlying service, for admin paths (live reconfiguration, paged
  /// snapshots) that operate below this façade.
  IterationService* service() { return service_.get(); }
  const IterationService* service() const { return service_.get(); }
  std::optional<ExecutionResult> final_result() const {
    return service_->final_result();
  }
  const IterationReport& initial_report() const {
    return service_->initial_report();
  }

  double base_rank() const { return base_; }

  /// Drains pending mutations and shuts the resident session down.
  Status Stop() { return service_->Stop(); }

 private:
  ServingPageRank() = default;

  Result<std::vector<Record>> Translate(
      ExecutionSession& session, const std::vector<GraphMutation>& batch);
  Status ValidateMutation(const GraphMutation& mutation) const;

  double damping_ = 0.85;
  double epsilon_ = 1e-9;
  double base_ = 0;
  int64_t max_vertices_ = 0;

  /// Mutable adjacency shared with the plan's push UDF. shared_ptr because
  /// the UDF closure (inside plan_/session_ in service_) must be able to
  /// outlive reorderings of this struct during teardown.
  std::shared_ptr<DynamicGraph> graph_;
  /// Final solution sink, filled when the session finishes.
  std::unique_ptr<std::vector<Record>> final_output_;
  std::unique_ptr<IterationService> service_;
};

}  // namespace sfdf
