// The continuous serving subsystem: a resident incremental iteration that
// stays alive after its initial fixpoint and folds streamed graph mutations
// in as warm re-convergence rounds.
//
// Architecture (see README "Serving"):
//
//   clients ──Mutate()──▶ admission queue ──batch──▶ translator (SeedFn)
//                         (group commit, ≤ max_batch)     │ W_0 seeds
//                                                         ▼
//   Query()/Snapshot() ◀──epoch-tagged reads──  resident ExecutionSession
//                                               (warm RunRound per batch)
//
// * Admission (group commit): Mutate() enqueues mutations from any number
//   of client threads. When the service thread is free it runs everything
//   pending, up to `max_batch`, as one round at once; what arrives during
//   that round is the next batch. An idle service never waits, and batches
//   grow under load to amortize the per-round barrier cost.
// * Warm rounds: each admitted batch is translated into workset seeds and
//   re-converged by ExecutionSession::RunRound, reusing the resident
//   solution set, constant-path caches and task threads (§5–§7: cost
//   proportional to the change, not the dataset).
// * Reads: Query()/Snapshot() are linearizable against batch boundaries
//   via an epoch/seqlock scheme. The epoch is odd while a round is in
//   flight and even between rounds; readers hold the shared side of the
//   state lock (so they only ever overlap a stable, even epoch) and return
//   the epoch they observed, which tags every value with the exact batch
//   boundary it reflects.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/mutation.h"
#include "optimizer/physical_plan.h"
#include "runtime/executor.h"

namespace sfdf {

struct ServiceOptions {
  /// Group commit: the service thread admits everything pending, up to
  /// this many mutations, as one round as soon as it is free.
  int max_batch = 256;
  /// Ignored: admission is group commit (see above), there is no linger.
  std::chrono::milliseconds max_linger{2};
  /// Bounded admission: a Mutate/Apply call whose mutations would push the
  /// pending (enqueued, not yet admitted) queue beyond this many entries is
  /// rejected with ResourceExhausted instead of queueing unboundedly —
  /// clients should back off and retry (the network gateway maps this to a
  /// retryable wire code). 0 = unbounded, the historical behavior.
  int64_t max_pending_mutations = 0;
  /// Options for the resident executor session.
  ExecutionOptions exec;
};

struct ServiceStats {
  uint64_t rounds = 0;             ///< warm rounds run (= batches admitted)
  uint64_t mutations_applied = 0;  ///< mutations folded into the solution
  /// Enqueues refused — after Stop/failure, by admission validation, or by
  /// the max_pending_mutations bound.
  uint64_t mutations_rejected = 0;
  /// Mutations sitting in the admission queue right now (enqueued, not yet
  /// admitted into a round) — the backlog the max_pending_mutations bound
  /// applies to.
  uint64_t admission_queue_depth = 0;
  int64_t total_supersteps = 0;    ///< supersteps across all warm rounds
  double total_round_millis = 0;   ///< wall time inside warm rounds
  /// Warm-round latency distribution (translate + RunRound, ms), estimated
  /// from a log-scale histogram over every committed round.
  double round_p50_ms = 0;
  double round_p95_ms = 0;
  double round_p99_ms = 0;
  /// Engine scheduling health of this service's resident session (runtime
  /// v3): tasks its rounds enqueued on the shared pool and how long they
  /// sat queued. Rising waits mean the pool — not this service's dataflow —
  /// is the bottleneck (add workers or shed tenants).
  int engine_workers = 0;
  int64_t engine_tasks = 0;
  double engine_queue_wait_total_ms = 0;
  double engine_queue_wait_max_ms = 0;
  /// Parked-task accounting of the resident session's engine client: how
  /// often its cooperative tasks parked instead of busy re-polling and how
  /// many were re-enqueued by a peer's wake.
  int64_t engine_parks = 0;
  int64_t engine_wakes = 0;
  /// Live reconfigurations (repartition / engine move) committed on this
  /// service, and the wall time the last one spent between quiesce and the
  /// warm resume round's completion — the serving pause a resize costs.
  uint64_t reconfigs = 0;
  double reconfig_ms_last = 0;
  /// Barrier-free (async / bounded-stale) rounds only; all zero when the
  /// session runs supersteps. Local rounds are the per-round maximum over
  /// partitions, summed across warm rounds; revocations count producers
  /// yanking a peer's quiescence vote (termination-protocol churn); max
  /// staleness is the largest local-round lead any partition ever had.
  int64_t async_local_rounds = 0;
  int64_t async_vote_revocations = 0;
  int64_t async_max_staleness = 0;
};

/// A long-running serving instance of one incremental iteration. Construct
/// through Start; thread-safe for any mix of Mutate/Await/Query/Snapshot
/// callers. Algorithm-specific front-ends (ServingPageRank, the CC serving
/// tests) supply the plan and the mutation-to-workset translator.
class IterationService {
 public:
  /// Translates one admitted mutation batch into the warm round's initial
  /// workset. Runs on the service thread between rounds with exclusive
  /// access to the resident state: it may read the solution partitions and
  /// upsert records directly (delta re-seeding) through `session`. A
  /// translator error is treated as an internal fault and fails the service
  /// — reject untrusted input at the door with a ValidateFn instead.
  using SeedFn = std::function<Result<std::vector<Record>>(
      ExecutionSession& session, const std::vector<GraphMutation>& batch)>;

  /// Admission-time structural validation of one client mutation (id
  /// bounds, supported kinds). Runs inside Mutate/Apply on the caller's
  /// thread; a failure rejects that call's mutations without touching any
  /// resident state and without affecting other clients. Null = accept all.
  using ValidateFn = std::function<Status(const GraphMutation& mutation)>;

  /// Takes ownership of `plan`, runs its workset iteration to the initial
  /// fixpoint (blocking) and starts the admission thread.
  static Result<std::unique_ptr<IterationService>> Start(
      PhysicalPlan plan, SeedFn translate, ServiceOptions options,
      ValidateFn validate = nullptr);

  ~IterationService();  ///< implies Stop()
  IterationService(const IterationService&) = delete;
  IterationService& operator=(const IterationService&) = delete;

  /// Enqueues mutations for admission; returns a ticket to Await, or 0 if
  /// the call was rejected — the service stopped/failed, or a mutation
  /// failed admission validation (use Apply for the reason). Mutations are
  /// applied in admission order; one call's mutations may be split across
  /// batches but always complete by the returned ticket. An empty vector
  /// is a flush: it returns the newest existing ticket (0 when nothing was
  /// ever enqueued — Await(0) is trivially satisfied), never a rejection.
  uint64_t Mutate(std::vector<GraphMutation> mutations);

  /// Like Mutate, but on rejection (returned ticket 0) fills `*rejection`
  /// with the reason: InvalidArgument/Unsupported from admission
  /// validation, ResourceExhausted when the pending queue is over
  /// max_pending_mutations, InvalidArgument after Stop/failure. This is
  /// what lets the network gateway hand clients distinct retry-vs-reject
  /// error codes.
  uint64_t Mutate(std::vector<GraphMutation> mutations, Status* rejection);

  /// Blocks until every mutation up to `ticket` is folded into the served
  /// solution (its batch's round committed), or the service failed.
  Status Await(uint64_t ticket);

  /// Mutate + Await.
  Status Apply(std::vector<GraphMutation> mutations);

  struct QueryResult {
    bool found = false;
    Record record;
    uint64_t epoch = 0;  ///< batch boundary this read reflects (even)
  };

  /// Batch-consistent point read. The probe must carry its key fields at
  /// the solution-key positions (QueryKey covers the common single-int-key
  /// schema).
  QueryResult Query(const Record& probe) const;
  QueryResult QueryKey(int64_t key) const;

  /// Batch-consistent full snapshot of the served solution set.
  struct SnapshotResult {
    std::vector<Record> records;
    uint64_t epoch = 0;
  };
  SnapshotResult Snapshot() const;

  /// One bounded page of the served solution set, for snapshot streaming.
  struct SnapshotPageResult {
    std::vector<Record> records;
    uint64_t epoch = 0;        ///< batch boundary this page reflects
    uint64_t next_cursor = 0;  ///< pass to the next call; 0 = exhausted
  };

  /// Cursor-paged snapshot: returns up to `max_records` records starting at
  /// `cursor` (0 = first page; pass the previous page's next_cursor to
  /// continue; max_records <= 0 selects a default page size). Pages taken
  /// at the same epoch concatenate to exactly Snapshot(); when the epoch
  /// changes between pages (a batch committed, or a reconfiguration
  /// remapped the partitions), the caller must restart from cursor 0 — the
  /// cursor encodes a partition/offset position that is only meaningful
  /// within one committed state.
  SnapshotPageResult SnapshotPage(uint64_t cursor,
                                  int64_t max_records = 0) const;

  /// Current batch epoch; even = stable, odd = a round is in flight.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Current partition count of the resident session. Dynamic: changes
  /// when a Reconfigure commits.
  int parallelism() const;

  /// Live reconfiguration: repartitions the resident session to
  /// `new_partitions` (0 = keep the current width) and/or moves it to
  /// `new_engine` (null = keep). Blocking; executes on the admission
  /// thread at a committed batch boundary, BEFORE any mutation batch that
  /// is still pending — already-enqueued mutations replay after the remap
  /// with their tickets preserved, and reads keep answering from the old
  /// (epoch-stable) shards until the swap commits. A structural rejection
  /// (InvalidArgument/Unsupported) leaves the service untouched; a
  /// mid-rebuild failure fails the service like a failed round.
  Status Reconfigure(int new_partitions, Engine* new_engine = nullptr);

  /// Counters as of the last committed round or reconfiguration. Never
  /// waits for a round in flight.
  ServiceStats stats() const;

  /// Reconfigure calls waiting for the admission thread. Like stats(), this
  /// answers while a round is in flight (it takes only the queue lock).
  uint64_t reconfigs_queued() const;

  /// Snapshot of the per-committed-round latency histogram, for registry
  /// exposition (obs/registry.h renders its quantiles). Taken under the
  /// stats lock, like the stats() percentiles derived from it.
  LatencyHistogram round_latency_histogram() const {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return round_latency_;
  }

  /// Report of the initial cold convergence.
  const IterationReport& initial_report() const {
    return session_->initial_report();
  }

  /// Aggregate statistics of the whole resident execution — including the
  /// exchange-health counters (queue-depth high-water mark, batch-pool
  /// hits/misses) folded in when the session was assembled. Empty until
  /// Stop() has shut the session down cleanly.
  std::optional<ExecutionResult> final_result() const;

  /// Stops admission, drains every already-enqueued mutation, shuts the
  /// resident session down and joins all threads. Returns the first round
  /// failure, if any. Idempotent.
  Status Stop();

 private:
  IterationService(SeedFn translate, ValidateFn validate,
                   ServiceOptions options);

  Status Validate(const std::vector<GraphMutation>& mutations) const;
  /// Point read; caller holds the shared side of state_mutex_.
  QueryResult QueryLocked(const Record& probe) const;
  /// Single validation + enqueue step shared by Mutate and Apply; on
  /// rejection returns 0 and fills `*rejection` with the reason.
  uint64_t MutateInternal(std::vector<GraphMutation> mutations,
                          Status* rejection);
  void AdmissionLoop();
  Status ProcessBatch(const std::vector<GraphMutation>& batch);
  /// Runs one reconfiguration on the admission thread (the only thread
  /// allowed to touch the session) under the writer lock.
  Status DoReconfigure(int new_partitions, Engine* new_engine);
  /// Engine/scheduling snapshot into stats_; caller holds state_mutex_
  /// exclusively and stats_mutex_, and runs on the admission thread.
  void SnapshotEngineStats();

  const SeedFn translate_;
  const ValidateFn validate_;
  const ServiceOptions options_;

  // Destruction order (reverse of declaration): the admission thread is
  // joined by Stop() before session_ and plan_ die; the session must die
  // before the plan it references.
  std::unique_ptr<PhysicalPlan> plan_;
  std::unique_ptr<ExecutionSession> session_;

  /// Guards the resident solution state: the service thread holds the
  /// unique side across translate+round, readers hold the shared side.
  mutable std::shared_mutex state_mutex_;
  std::atomic<uint64_t> epoch_{0};
  /// Guards stats_ and round_latency_ alone, so a stats or telemetry read
  /// never waits for a round in flight. The admission thread writes them
  /// at commit, nested inside state_mutex_ (never the other way round).
  mutable std::mutex stats_mutex_;
  ServiceStats stats_;
  /// Per-committed-round latency histogram feeding the stats percentiles.
  LatencyHistogram round_latency_;

  /// One waiting Reconfigure call. Queued under queue_mutex_; the
  /// admission thread executes waiters ahead of pending mutation batches
  /// (so the admission queue is effectively held across the remap) and
  /// reports back through `done`/`result`.
  struct ReconfigRequest {
    int new_partitions = 0;
    Engine* new_engine = nullptr;
    bool done = false;
    Status result;
  };

  /// Admission queue + ticket/ack state, guarded by queue_mutex_.
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<GraphMutation> pending_;
  std::deque<ReconfigRequest*> reconfigs_;
  uint64_t enqueued_seq_ = 0;  ///< ticket of the newest enqueued mutation
  uint64_t admitted_seq_ = 0;  ///< ticket of the newest admitted mutation
  uint64_t applied_seq_ = 0;   ///< ticket of the newest committed mutation
  uint64_t rejected_ = 0;      ///< mutations refused after Stop/failure
  Status failed_ = Status::OK();
  bool stopping_ = false;
  bool joined_ = false;
  /// Filled by Stop() from ExecutionSession::Finish.
  std::optional<ExecutionResult> final_result_;

  std::thread admission_thread_;
};

}  // namespace sfdf
