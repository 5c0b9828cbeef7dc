// The parallel execution engine (the Nephele stand-in), runtime v3.
//
// The executor instantiates every physical task once per partition, wires
// the instances with exchanges according to each edge's ship strategy, and
// schedules the work on a shared worker-pool Engine (runtime/engine.h) in
// dataflow-topological order. Every task runs its operator's one program:
// iterations run it as superstep waves of resumable partition tasks that
// run-to-superstep-boundary and re-enqueue from an atomic arrival gate
// (Sections 4.2, 5.3); a one-shot task runs it once, when its producers'
// streams are complete. A workset iteration may instead run barrier-free:
// one cooperative polling unit per partition runs local rounds over
// whatever its lanes hold, and the loop ends at quiescence of one credit
// counter. That unit runs either the partition's stage pipeline
// (sync_mode async / bounded_stale) or, for an iteration that passes the
// Section 5.2 analysis, its fused microstep chain, which applies every
// record's update before the next record is read. No dataflow ever pins
// an OS thread: a resident session between rounds has nothing queued and
// costs zero worker time, which is what lets one process serve many
// concurrent sessions on a pool of any size (see
// src/service/service_host.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "optimizer/physical_plan.h"
#include "runtime/engine.h"
#include "runtime/metrics.h"

namespace sfdf {

/// Synchronization discipline for workset loops (§4.2 vs barrier-free).
enum class SyncMode {
  /// Synchronized supersteps: every loop task waits at the arrival gate
  /// until the whole wave finished the phase (the paper's default).
  kSuperstep,
  /// Barrier-free: each partition runs "local rounds" over whatever its
  /// exchange lanes currently hold; termination is a distributed
  /// quiescence protocol (credits + votes) instead of an empty workset at
  /// a barrier. Requires an idempotent-safe ∪̇ — a CPO comparator or
  /// immediate local application of the delta (see README, Execution
  /// modes).
  kAsync,
  /// kAsync plus a staleness bound: a partition may run at most
  /// `staleness_bound` local rounds ahead of the slowest peer before it
  /// parks until the peer catches up.
  kBoundedStale,
};

/// Scheduling discipline for non-loop (one-shot) plan regions. Orthogonal
/// to SyncMode, which governs the loop *interior*: region_mode decides how
/// the regions *around* the loops hand data to each other.
enum class RegionMode {
  /// A consumer region runs only after every producer region completed —
  /// cross-region exchanges materialize the full edge stream (peak memory
  /// O(data) per edge). The default; matches runtime v3 behavior.
  kMaterialize,
  /// Streaming: record-at-a-time regions (Source/Map/Filter/Union/Sink
  /// chains) run concurrently with their producers as cooperative polling
  /// tasks over bounded exchange lanes; a producer that outruns its
  /// consumer is backpressured and yields its task until the lane drains.
  /// Peak memory per pipelined edge is O(pipeline_lane_capacity), not
  /// O(data). Pipeline breakers (Reduce/Match/Cross/CoGroup) and loop
  /// regions keep materialized edges and their existing semantics.
  kPipelined,
};

struct ExecutionOptions {
  /// Degree of parallelism ("nodes"): the number of partitions each task is
  /// instantiated with — solution-set partitions, exchange lanes, sink
  /// slots. 0 = DefaultParallelism(). Negative values are rejected with
  /// InvalidArgument.
  ///
  /// Orthogonal to `worker_threads`: parallelism fixes the LOGICAL
  /// partitioning of the plan (how data is split and keyed), while
  /// worker_threads sizes the PHYSICAL pool that executes the partition
  /// tasks. parallelism > workers is legal and common — partition tasks
  /// are time-sliced over the pool; workers > parallelism lets independent
  /// stages or co-hosted plans run concurrently.
  int parallelism = 0;
  /// Engine worker pool executing this plan's tasks:
  ///   0  — share the process-wide default engine (Engine::Default(), pool
  ///        size SFDF_ENGINE_WORKERS / DefaultParallelism());
  ///   >0 — this executor creates a private engine of that many workers
  ///        per run/session (a "dedicated team", e.g. for isolation
  ///        baselines).
  /// Negative values are rejected with InvalidArgument. Ignored when
  /// `engine` is set.
  int worker_threads = 0;
  /// Externally owned engine to schedule on (overrides worker_threads) —
  /// how a multi-tenant host runs many plans/sessions on one shared pool.
  /// Must outlive every run/session started with these options.
  Engine* engine = nullptr;
  /// Capture per-superstep statistics for every iteration.
  bool record_superstep_stats = true;
  /// Force-enables the process-wide flight recorder (obs/trace.h) for this
  /// run and everything after it — tracing is a process property (the ring
  /// buffers are per-thread, threads are shared), so enabling is sticky,
  /// exactly like SFDF_TRACE=1 in the environment. Export with
  /// trace::WriteChromeTrace or SFDF_TRACE_OUT=<path>.
  bool trace = false;
  /// Memory budget per constant-path record cache before it gradually
  /// spills to disk (§4.3). INT64_MAX = never spill.
  int64_t cache_spill_budget_bytes = INT64_MAX;
  /// Write an IterationCheckpoint (solution set + workset) after this
  /// superstep of every workset iteration; -1 = off (§4.2 recovery logs).
  /// Values below -1 are rejected with InvalidArgument.
  int checkpoint_superstep = -1;
  std::string checkpoint_path;
  /// Barrier discipline for workset iterations. kAsync / kBoundedStale
  /// require a plan whose ∪̇ is idempotent-safe (a comparator or immediate
  /// apply), no bulk iterations, no microstep plans (they run barrier-free
  /// already), and no checkpointing (checkpoints are superstep-aligned);
  /// Run/StartSession reject anything else with Unsupported.
  SyncMode sync_mode = SyncMode::kSuperstep;
  /// For kBoundedStale: how many local rounds a partition may run ahead of
  /// the slowest peer (k >= 1). Ignored in other modes.
  int staleness_bound = 1;
  /// Scheduling of non-loop regions (see RegionMode). kPipelined streams
  /// eligible regions over bounded exchanges; Run rejects a capacity < 1
  /// with InvalidArgument and StartSession rejects kPipelined with
  /// Unsupported (a resident session's shutdown contract requires
  /// downstream regions unscheduled between rounds).
  RegionMode region_mode = RegionMode::kMaterialize;
  /// Flow-control window of each pipelined exchange lane, in envelopes
  /// (batches of up to RecordBatch::kDefaultBatchSize records). Only read
  /// under kPipelined; must be >= 1 then.
  int64_t pipeline_lane_capacity = 8;
};

/// Outcome of one iteration construct.
struct IterationReport {
  /// Supersteps, or for a barrier-free iteration (ran_async or
  /// ran_microsteps) the deepest partition's local rounds. max_iterations
  /// caps the same count.
  int iterations = 0;
  /// True if the iteration reached its fixpoint / termination criterion
  /// (as opposed to hitting max_iterations).
  bool converged = false;
  /// True if the iteration executed barrier-free as its fused microstep
  /// chain (Section 5.2): local rounds that apply each record's update
  /// before the next record is read.
  bool ran_microsteps = false;
  /// True if the iteration executed barrier-free over its stage pipeline
  /// (sync_mode != kSuperstep).
  bool ran_async = false;
  /// Barrier-free observability: how often a partition's quiescence vote
  /// was revoked by an arriving batch, and the largest "rounds ahead of the
  /// slowest peer" any partition observed (this round / run).
  int64_t vote_revocations = 0;
  int64_t max_staleness = 0;
  std::vector<SuperstepStats> supersteps;

  /// Sum of a SuperstepStats field over all supersteps.
  int64_t TotalWorkset() const;
  int64_t TotalApplied() const;
};

struct ExecutionResult {
  double total_millis = 0;
  int64_t records_shipped = 0;
  int64_t records_remote = 0;
  int64_t bytes_shipped = 0;
  int64_t records_combined = 0;
  /// Exchange health (v2 data plane): deepest any exchange lane ever got
  /// (envelopes) and how batch-buffer acquisitions split between recycled
  /// pool buffers and fresh allocations. A healthy steady state shows a
  /// bounded high-water mark and a hit-dominated pool.
  int64_t queue_depth_high_water = 0;
  int64_t batch_pool_hits = 0;
  int64_t batch_pool_misses = 0;
  /// Engine scheduling health (runtime v3): tasks this run enqueued on its
  /// engine client and how long they sat queued before a worker picked
  /// them up. A rising wait on a shared pool means the pool, not the
  /// dataflow, is the bottleneck.
  int64_t engine_tasks = 0;
  int64_t engine_queue_wait_ns_total = 0;
  int64_t engine_queue_wait_ns_max = 0;
  int engine_workers = 0;
  /// Parked-task accounting: how often cooperative PollUnits (barrier-free
  /// loop and pipelined units) handed their continuation to an
  /// engine park slot instead of busy re-polling, and how many of those
  /// were re-enqueued by a wake. parks == wakes at the end of a clean run.
  int64_t engine_parks = 0;
  int64_t engine_wakes = 0;
  /// Pipelined-region observability (zero under kMaterialize): how often a
  /// bounded lane backpressured a flush (flowing->stalled transitions),
  /// how often a producer task re-enqueued itself with its outputs still
  /// stalled, and an upper bound on ring segments resident across all
  /// exchanges (summed per-lane high-water ceilings) — the memory the
  /// flow-control window actually admitted.
  int64_t backpressure_stalls = 0;
  int64_t producer_yields = 0;
  int64_t peak_resident_segments = 0;
  /// Barrier-free observability (empty / zero unless a workset iteration
  /// ran barrier-free: sync_mode != kSuperstep, or microsteps):
  /// per-partition local-round counters (concatenated across barrier-free
  /// iterations, microstep ones included), total quiescence-vote
  /// revocations and the maximum observed staleness.
  std::vector<int64_t> async_local_rounds;
  int64_t async_vote_revocations = 0;
  int64_t async_max_staleness = 0;
  /// Reports indexed like PhysicalPlan::bulk_iterations /
  /// workset_iterations.
  std::vector<IterationReport> bulk_reports;
  std::vector<IterationReport> workset_reports;
};

class SolutionSetIndex;
struct SessionState;

/// A resident, warm-restartable execution of a plan with exactly one
/// superstep-mode workset iteration — the executor half of the continuous
/// serving subsystem (src/service/). Created by Executor::StartSession,
/// which performs the one-shot setup (plan instantiation, exchange wiring,
/// engine-client registration) and runs the initial iteration to its
/// fixpoint. The session then keeps every exchange, constant-path cache and
/// solution-set partition alive; RunRound seeds a fresh initial workset and
/// re-enters the superstep loop *warm*, so re-convergence cost is
/// proportional to the change, not the dataset (§5–§7). Between rounds the
/// session has no tasks queued — it consumes no worker time at all, so any
/// number of sessions can share one engine pool.
///
/// Threading contract: RunRound and Finish must be called from one
/// controller thread at a time; solution_partition reads are only safe
/// while no round is running (the serving layer enforces this with its
/// reader/writer exclusion and epoch tags).
class ExecutionSession {
 public:
  ~ExecutionSession();  ///< implies Finish() if it was not called
  ExecutionSession(const ExecutionSession&) = delete;
  ExecutionSession& operator=(const ExecutionSession&) = delete;

  /// Seeds `workset` as the W_0 of a warm round (routed by the iteration's
  /// workset key into the resident head exchanges) and re-runs the
  /// incremental iteration to its fixpoint. Blocking; returns the round's
  /// report. An empty workset is legal and converges after one superstep.
  Result<IterationReport> RunRound(std::vector<Record> workset);

  /// Live repartition / engine move: quiesces at the committed round
  /// boundary (all lanes drained), extracts the resident solution set (plus
  /// any workset an iteration-capped round left behind), tears the runtime
  /// skeleton down and rebuilds it at `new_partitions` partitions (0 = keep
  /// the current width) on `new_engine` (null = keep the current engine; a
  /// non-null engine must outlive the session). The warm state re-enters
  /// through the plan's initial-solution / initial-workset Source tasks and
  /// is re-hashed by the rebuilt exchanges, so shard placement is re-derived
  /// with the same PartitionOf law point reads use. §4.3 constant-path
  /// caches and the solution index rebuild at the resume round's first
  /// superstep; cumulative session statistics survive into Finish().
  /// Blocking; returns the warm resume round's report. On a validation
  /// error the session is untouched; a mid-rebuild failure finishes it.
  Result<IterationReport> Reconfigure(int new_partitions,
                                      Engine* new_engine = nullptr);

  /// Report of the initial (cold) iteration run by StartSession.
  const IterationReport& initial_report() const;

  /// Degree of parallelism — the number of solution-set partitions.
  int parallelism() const;

  /// Resident solution-set partition p. Writable so the serving layer can
  /// upsert records directly between rounds (delta re-seeding).
  SolutionSetIndex* solution_partition(int p);

  /// Partition that owns `probe`'s solution key (same hash that drives the
  /// runtime's exchanges, so lookups stay partition-local). The probe must
  /// carry its key fields at the solution-key positions.
  int PartitionOfSolution(const Record& probe) const;

  /// Key k(s) of the resident solution set.
  const KeySpec& solution_key() const;

  /// Visits every record of the resident solution set (all partitions).
  void ForEachSolution(const std::function<void(const Record&)>& fn) const;

  /// Live scheduling counters of this session's engine client — how many
  /// tasks its rounds have enqueued and how long they waited for a worker.
  /// Safe to call between rounds (same contract as solution reads).
  Engine::ClientStats engine_stats() const;

  /// Workers in the engine pool this session runs on.
  int engine_workers() const;

  /// Shuts the resident dataflow down: the final-flush tasks ship the
  /// converged solution set downstream (filling the plan's sinks), the
  /// remaining plan nodes drain, and the aggregate statistics are
  /// returned. Idempotent via the destructor; must not race RunRound.
  Result<ExecutionResult> Finish();

 private:
  friend class Executor;
  explicit ExecutionSession(std::unique_ptr<SessionState> state);
  std::unique_ptr<SessionState> state_;
};

class Executor {
 public:
  explicit Executor(ExecutionOptions options = {});

  /// Runs the plan to completion; fills every Sink's output vector.
  /// Blocking; returns aggregate statistics. May be called from any thread
  /// that is not an engine pool worker.
  Result<ExecutionResult> Run(const PhysicalPlan& plan);

  /// Session mode: runs `plan`'s workset iteration to its initial fixpoint
  /// and keeps the whole dataflow resident for warm re-convergence rounds.
  /// Requires exactly one non-microstep workset iteration and no bulk
  /// iterations. `plan` must outlive the returned session.
  Result<std::unique_ptr<ExecutionSession>> StartSession(
      const PhysicalPlan& plan);

 private:
  ExecutionOptions options_;
};

}  // namespace sfdf
