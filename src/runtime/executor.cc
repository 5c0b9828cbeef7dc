#include "runtime/executor.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/env.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/checkpoint.h"
#include "core/solution_set.h"
#include "dataflow/udf.h"
#include "obs/trace.h"
#include "runtime/engine.h"
#include "runtime/exchange.h"
#include "runtime/hash_table.h"
#include "runtime/router.h"
#include "runtime/sorter.h"
#include "runtime/spill_buffer.h"
#include "runtime/superstep.h"

namespace sfdf {

int64_t IterationReport::TotalWorkset() const {
  int64_t total = 0;
  for (const SuperstepStats& s : supersteps) total += s.workset_size;
  return total;
}

int64_t IterationReport::TotalApplied() const {
  int64_t total = 0;
  for (const SuperstepStats& s : supersteps) total += s.delta_applied;
  return total;
}

// Named (not anonymous) so SessionState — an externally visible type
// declared in executor.h — can hold these internals without tripping GCC's
// -Wsubobject-linkage. Only this translation unit defines the namespace.
namespace executor_detail {

/// True if the task participates in an iteration's superstep loop.
bool IsLoopTask(const PhysicalTask& task) {
  return (task.bulk_iteration >= 0 || task.workset_iteration >= 0) &&
         task.on_dynamic_path;
}

bool SameLoop(const PhysicalTask& a, const PhysicalTask& b) {
  return (a.bulk_iteration >= 0 && a.bulk_iteration == b.bulk_iteration) ||
         (a.workset_iteration >= 0 &&
          a.workset_iteration == b.workset_iteration);
}

/// Record-at-a-time operators that can run as streaming pipelined units:
/// they emit as they read and never need a complete input before producing.
/// Everything else (Reduce/Match/Cross/CoGroup) is a *pipeline breaker* —
/// it materializes an input (sort, hash build) or must read one port to
/// end-of-stream before another, which under bounded lanes would deadlock
/// diamond topologies (see the exchange.h contract comment).
bool IsStreamingKind(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kSource:
    case OperatorKind::kSink:
    case OperatorKind::kMap:
    case OperatorKind::kFilter:
    case OperatorKind::kUnion:
      return true;
    default:
      return false;
  }
}

/// True if `task` runs as a cooperative pipelined unit under region_mode
/// kPipelined. Loop tasks always keep their superstep/async scheduling.
bool IsPipelinedTask(const PhysicalTask& task) {
  return !IsLoopTask(task) && IsStreamingKind(task.kind);
}

// ---------------------------------------------------------------------------
// Per-iteration runtime state
// ---------------------------------------------------------------------------

struct BulkRuntime {
  std::unique_ptr<SuperstepCoordinator> coordinator;
  /// Feedback buffers: tail instance p writes the next partial solution,
  /// head instance p picks it up after the arrival gate flips the phase.
  std::vector<std::vector<Record>> feedback;
  bool has_term = false;
  int max_iterations = 0;
  IterationReport report;
  // Stats capture (only touched in the gate's completion step).
  Stopwatch watch;
  Metrics* metrics = nullptr;
  int64_t shipped_mark = 0;
  bool record_stats = true;
};

struct WorksetRuntime {
  std::unique_ptr<SuperstepCoordinator> coordinator;
  KeySpec route_key;
  KeySpec solution_key;
  bool immediate_apply = false;
  int max_iterations = 0;

  /// Superstep at which the current round started: the iteration cap and
  /// the report numbering count supersteps relative to this mark. Written
  /// only by the controller while no wave task is scheduled (the engine
  /// submit path publishes it). 64-bit: the absolute counter never resets
  /// across a session's rounds.
  int64_t round_start_superstep = 0;

  /// One solution-set index partition per worker.
  std::vector<std::unique_ptr<SolutionSetIndex>> index;

  /// The workset feedback channel (§5.3): feedback[p] is read by head
  /// instance p (or partition p's fused chain), with one lane per
  /// producing tail instance (chain). Superstep loops delimit each W_{i+1}
  /// phase with the tails' end-of-superstep markers; barrier-free loops
  /// publish without markers and hold a coordinator credit per record in
  /// flight instead.
  std::vector<std::unique_ptr<Exchange>> feedback;

  struct Part {
    /// Records this partition popped from in-loop lanes during the local
    /// round that is currently executing (barrier-free only); their
    /// credits are returned in one batch at the end of the round, after
    /// the round's own children were published (exact-credit rule). Only
    /// touched by the partition's own AsyncRoundUnit.
    int64_t popped_this_round = 0;
    /// The head still owes a read of its external W_0 port (set at setup
    /// and by the controller when it seeds a round, cleared by the head's
    /// first superstep or local round of the round).
    bool w0_pending = true;
  };
  std::vector<std::unique_ptr<Part>> parts;
  /// Wakes partition p's parked PollUnit (installed by the scheduler with
  /// the node's park slots; only called from inside the node's own units).
  std::function<void(int)> wake;

  IterationReport report;
  Stopwatch watch;
  Metrics* metrics = nullptr;
  int64_t shipped_mark = 0;
  int64_t lookups_mark = 0;
  int64_t applied_mark = 0;
  int64_t discarded_mark = 0;
  bool record_stats = true;

  void SumIndexStats(int64_t* lookups, int64_t* applied,
                     int64_t* discarded) const {
    *lookups = *applied = *discarded = 0;
    for (const auto& idx : index) {
      *lookups += idx->stats().lookups;
      *applied += idx->stats().applied;
      *discarded += idx->stats().discarded;
    }
  }
};

/// The producer side of the workset feedback channel for partition
/// `partition`: an ordinary in-loop port, hash-partitioned on the route key
/// into every head's feedback exchange.
std::unique_ptr<OutputPort> MakeFeedbackPort(WorksetRuntime& rt,
                                             int partition, Metrics* metrics) {
  std::vector<Exchange*> targets;
  targets.reserve(rt.feedback.size());
  for (const auto& exchange : rt.feedback) targets.push_back(exchange.get());
  return std::make_unique<OutputPort>(std::move(targets),
                                      ShipStrategy::kHashPartition,
                                      rt.route_key, partition, metrics,
                                      /*in_loop=*/true);
}

/// Brackets every data publish of `port` (owned by partition `self`) with
/// the credit protocol: the envelope's records take their credits and the
/// target's quiescence vote is revoked before it becomes visible; a parked
/// target other than the publisher is woken once it is.
void InstallCreditHooks(OutputPort* port, WorksetRuntime* rt, int self) {
  port->set_async_hooks(
      [rt](int target, int64_t records) {
        rt->coordinator->CreditEnqueued(records);
        rt->coordinator->RevokeQuiescentVote(target);
      },
      [rt, self](int target) {
        if (target != self) rt->wake(target);
      });
}

// ---------------------------------------------------------------------------
// Execution context shared by all task instances
// ---------------------------------------------------------------------------

struct ExecContext {
  const PhysicalPlan* plan = nullptr;
  int parallelism = 0;
  bool record_stats = true;
  int64_t cache_spill_budget = INT64_MAX;
  int checkpoint_superstep = -1;
  std::string checkpoint_path;
  /// Barrier discipline of this run's workset iterations (validated before
  /// setup: != kSuperstep implies every workset iteration qualifies).
  SyncMode sync_mode = SyncMode::kSuperstep;
  int staleness_bound = 0;  ///< local rounds ahead allowed; 0 = unbounded
  /// Scheduling of non-loop regions:
  /// kPipelined runs streaming tasks as cooperative polling units over
  /// bounded exchange lanes; kMaterialize keeps one-shot region barriers.
  RegionMode region_mode = RegionMode::kMaterialize;
  Metrics metrics;

  /// channels[task][port][partition]: the consumer-side exchanges. Each
  /// holds one SPSC lane per producer partition.
  std::vector<std::vector<std::vector<std::unique_ptr<Exchange>>>> channels;
  /// consumer edges per producer task: (consumer task, consumer port).
  std::vector<std::vector<std::pair<int, int>>> consumer_edges;

  std::vector<std::unique_ptr<BulkRuntime>> bulk;
  std::vector<std::unique_ptr<WorksetRuntime>> workset;

  /// sink_slots[task][partition]: per-partition sink collections, merged
  /// deterministically after the plan drained.
  std::vector<std::vector<std::vector<Record>>> sink_slots;

  /// Per-skeleton source replacement (session Reconfigure): a Source task
  /// listed here emits this data instead of its plan-owned `source_data` —
  /// how a rebuilt skeleton re-enters the warm solution set and leftover
  /// workset through the plan's own entry tasks without mutating the
  /// (shared, immutable) plan.
  std::map<int, std::vector<Record>> source_override;

  const PhysicalTask& task(int id) const { return plan->tasks[id]; }

  /// The records Source `task` emits: its override if any, else its data.
  const std::vector<Record>& source_data(const PhysicalTask& task) const {
    const auto it = source_override.find(task.id);
    return it != source_override.end() ? it->second : *task.source_data;
  }
};

// ---------------------------------------------------------------------------
// Pieces shared by the task programs, pipelined units and microstep chains
// ---------------------------------------------------------------------------

/// Builds partition `partition`'s output ports of `task`: one per plan edge
/// out of the task, routed by the edge's ship strategy (and combiner) into
/// the consumer's P exchanges. A port is in-loop — it carries
/// end-of-superstep markers — when both endpoints run in the same
/// iteration's superstep loop.
std::vector<std::unique_ptr<OutputPort>> MakePlanOutputs(
    ExecContext* ctx, const PhysicalTask& task, int partition) {
  std::vector<std::unique_ptr<OutputPort>> ports;
  for (const auto& [consumer_id, port] : ctx->consumer_edges[task.id]) {
    const PhysicalTask& consumer = ctx->task(consumer_id);
    const PhysicalInput& edge = consumer.inputs[port];
    std::vector<Exchange*> targets;
    targets.reserve(ctx->parallelism);
    for (int p = 0; p < ctx->parallelism; ++p) {
      targets.push_back(ctx->channels[consumer_id][port][p].get());
    }
    const bool in_loop =
        IsLoopTask(task) && IsLoopTask(consumer) && SameLoop(task, consumer);
    ports.push_back(std::make_unique<OutputPort>(
        std::move(targets), edge.ship, edge.ship_key, partition, &ctx->metrics,
        in_loop, edge.combiner));
  }
  return ports;
}

std::vector<OutputPort*> RawPorts(
    const std::vector<std::unique_ptr<OutputPort>>& ports) {
  std::vector<OutputPort*> raw;
  raw.reserve(ports.size());
  for (const auto& port : ports) raw.push_back(port.get());
  return raw;
}

/// Applies a record-at-a-time operator (Map / Filter / Union) to one record.
void ApplyRecordOp(const PhysicalTask& task, const Record& rec,
                   Collector* out) {
  switch (task.kind) {
    case OperatorKind::kMap:
      task.map_udf(rec, out);
      return;
    case OperatorKind::kFilter:
      if (task.filter_udf(rec)) out->Emit(rec);
      return;
    case OperatorKind::kUnion:
      out->Emit(rec);
      return;
    default:
      SFDF_CHECK(false) << "not a record-at-a-time operator: "
                        << OperatorKindName(task.kind);
  }
}

/// A §4.3 constant-path cache: a loop task's loop-invariant input, read on
/// the loop's first superstep and replayed on every superstep. A budgeted
/// cache gradually spills to disk; one with a requested sort order stays in
/// memory (a spilled cache cannot be re-sorted).
struct InputCache {
  std::vector<Record> records;
  std::unique_ptr<SpillBuffer> spill;
};

// ---------------------------------------------------------------------------
// TaskInstance: one partition of one physical task
// ---------------------------------------------------------------------------

/// A task's program (runtime v3). A loop task's `body` runs once per
/// superstep wave: it processes exactly one superstep, sends this
/// instance's end-of-superstep markers and returns to the pool
/// (run-to-superstep-boundary). All cross-superstep state — §4.3
/// constant-path caches, hash tables, spill buffers — lives in the
/// program's closure, which is what makes warm session rounds warm.
/// `final_flush` runs once after the iteration terminated, emitting the
/// task's final result downstream and closing its output lanes. A task
/// outside every loop runs the same program once: body(0), then
/// final_flush().
struct Program {
  std::function<void(int64_t)> body;
  std::function<void()> final_flush;
};

/// The non-blocking contract (engine.h): every `body` and every RunOnce is
/// only enqueued after the producers of the phase it reads have finished —
/// one-shot producers after their stream completed, in-loop producers after
/// their superstep body ran earlier in the same wave (stage order), the
/// workset tails feeding a head in the previous wave. Every ReadPhase
/// therefore finds a fully delimited phase and never parks.
class TaskInstance {
 public:
  TaskInstance(ExecContext* ctx, const PhysicalTask* task, int partition)
      : ctx_(ctx),
        task_(task),
        partition_(partition),
        outputs_(BuildOutputs()),
        collector_(RawPorts(outputs_)) {}

  /// Non-loop tasks: the whole life of the instance, one engine task.
  void RunOnce() {
    SFDF_DCHECK(!IsLoopTask(*task_));
    Program prog = MakeProgram();
    prog.body(0);
    prog.final_flush();
  }

  /// The operator's (or iteration role's) program.
  Program MakeProgram();

  /// Barrier-free scheduling probe: does any in-loop input currently hold
  /// an envelope? (Instantaneous; the quiescence credits, not this probe,
  /// prove global emptiness.)
  bool AnyLoopInputReadable() {
    for (size_t port = 0; port < task_->inputs.size(); ++port) {
      const int p = static_cast<int>(port);
      if (PortInLoop(p) && Input(p)->HasQueued()) return true;
    }
    return false;
  }

  /// Brackets every in-loop data publish of this instance with the
  /// barrier-free credit/vote/wake protocol (see OutputPort::
  /// set_async_hooks). Called once by the scheduler after the async node's
  /// park slots exist.
  void InstallAsyncHooks() {
    for (const auto& port : outputs_) {
      if (port->in_loop()) InstallCreditHooks(port.get(), &WsRt(), partition_);
    }
  }

 private:
  // --- wiring helpers -----------------------------------------------------
  std::vector<std::unique_ptr<OutputPort>> BuildOutputs() {
    auto ports = MakePlanOutputs(ctx_, *task_, partition_);
    if (task_->role == TaskRole::kWorksetTail) {
      ports.push_back(MakeFeedbackPort(WsRt(), partition_, &ctx_->metrics));
    }
    return ports;
  }

  Exchange* Input(int port) {
    return ctx_->channels[task_->id][port][partition_].get();
  }

  /// True if input `port` carries loop data (re-read every superstep).
  bool PortInLoop(int port) const {
    const PhysicalInput& edge = task_->inputs[port];
    if (edge.producer < 0) return false;
    const PhysicalTask& producer = ctx_->task(edge.producer);
    return IsLoopTask(producer) && SameLoop(producer, *task_);
  }

  /// True if this instance's loop executes barrier-free: its in-loop ports
  /// are drained non-blockingly (partial phases) and no phase markers are
  /// sent. External ports keep the marker protocol either way.
  bool AsyncMode() const {
    return task_->workset_iteration >= 0 &&
           ctx_->sync_mode != SyncMode::kSuperstep;
  }

  void SendSuperstepMarkers() {
    const bool async = AsyncMode();
    for (const auto& port : outputs_) {
      if (!port->in_loop()) continue;
      // Barrier-free: there is no phase to delimit — just make the
      // buffered records visible (the port's async hooks credit them).
      if (async) {
        port->Flush();
      } else {
        port->SendMarker(MarkerKind::kEndSuperstep);
      }
    }
  }

  void SendEndStream() {
    for (const auto& port : outputs_) {
      port->SendMarker(MarkerKind::kEndStream);
    }
  }

  /// Reads `port` for the current phase: loop ports as ReadLoop does,
  /// external ports until END_STREAM.
  template <typename Fn>
  void ReadPort(int port, Fn&& fn) {
    if (PortInLoop(port)) {
      ReadLoop(Input(port), fn);
      return;
    }
    Input(port)->ReadPhase(MarkerKind::kEndStream,
                           [&](const RecordBatch& batch) {
                             for (const Record& rec : batch) fn(rec);
                           });
  }

  /// Reads an in-loop exchange until END_SUPERSTEP. Barrier-free loops
  /// instead drain whatever the lanes currently hold (no blocking, no
  /// marker accounting) and count the popped records against the
  /// partition's credits at the end of its local round.
  template <typename Fn>
  void ReadLoop(Exchange* exchange, Fn&& fn) {
    auto each = [&](const RecordBatch& batch) {
      for (const Record& rec : batch) fn(rec);
    };
    if (AsyncMode()) {
      WsRt().parts[partition_]->popped_this_round += exchange->DrainOpen(each);
    } else {
      exchange->ReadPhase(MarkerKind::kEndSuperstep, each);
    }
  }

  /// Reads a port into a vector.
  void CollectPort(int port, std::vector<Record>* out) {
    ReadPort(port, [out](const Record& rec) { out->push_back(rec); });
  }

  /// Reads input `port` at `superstep`. A one-shot task's inputs and a loop
  /// task's in-loop inputs stream; a loop task's constant input is kept in
  /// `cache` at superstep 0 and replayed from it every superstep (§4.3).
  template <typename Fn>
  void ReadInput(int port, int64_t superstep, InputCache* cache, Fn&& fn) {
    if (!IsLoopTask(*task_) || PortInLoop(port)) {
      ReadPort(port, fn);
      return;
    }
    if (superstep == 0) FillCache(port, cache);
    if (cache->spill != nullptr) {
      SFDF_CHECK(cache->spill->Replay(fn).ok());
    } else {
      for (const Record& rec : cache->records) fn(rec);
    }
  }

  void FillCache(int port, InputCache* cache) {
    // Establish the requested cache order (Figure 4: A cached partitioned
    // and sorted by tid) so downstream consumers see pre-sorted data every
    // superstep.
    const KeySpec& sort_key = task_->inputs[port].cache_sort_key;
    if (sort_key.empty() && ctx_->cache_spill_budget != INT64_MAX) {
      SpillBufferOptions spill_options;
      spill_options.memory_budget_bytes = ctx_->cache_spill_budget;
      cache->spill = std::make_unique<SpillBuffer>(spill_options);
      ReadPort(port, [&](const Record& rec) {
        SFDF_CHECK(cache->spill->Add(rec).ok());
      });
      SFDF_CHECK(cache->spill->Seal().ok());
      return;
    }
    CollectPort(port, &cache->records);
    if (!sort_key.empty()) SortByKey(&cache->records, sort_key);
  }

  // --- program makers ------------------------------------------------------
  Program MakeSource();
  Program MakeSink();
  Program MakeRecordOp();  // Map / Filter / Union
  Program MakeReduce();
  Program MakeMatchHash();
  Program MakeMergeGroups();  // sort-merge Match, (Inner)CoGroup
  Program MakeCross();
  Program MakeBulkHead();
  Program MakeBulkTail();
  Program MakeTermSink();
  Program MakeWorksetHead();
  Program MakeWorksetTail();
  Program MakeDeltaApply();
  Program MakeSolutionJoin();

  WorksetRuntime& WsRt() { return *ctx_->workset[task_->workset_iteration]; }
  BulkRuntime& BulkRt() { return *ctx_->bulk[task_->bulk_iteration]; }

  ExecContext* ctx_;
  const PhysicalTask* task_;
  int partition_;
  std::vector<std::unique_ptr<OutputPort>> outputs_;
  PortsCollector collector_;
};

Program TaskInstance::MakeSource() {
  Program prog;
  prog.body = [this](int64_t) {
    const std::vector<Record>& data = ctx_->source_data(*task_);
    for (size_t i = partition_; i < data.size();
         i += static_cast<size_t>(ctx_->parallelism)) {
      collector_.Emit(data[i]);
    }
  };
  return prog;
}

Program TaskInstance::MakeSink() {
  Program prog;
  prog.body = [this](int64_t) {
    CollectPort(0, &ctx_->sink_slots[task_->id][partition_]);
  };
  return prog;
}

Program TaskInstance::MakeRecordOp() {
  auto caches = std::make_shared<std::vector<InputCache>>(task_->inputs.size());
  Program prog;
  prog.body = [this, caches](int64_t superstep) {
    for (size_t port = 0; port < task_->inputs.size(); ++port) {
      ReadInput(static_cast<int>(port), superstep, &(*caches)[port],
                [&](const Record& rec) {
                  ApplyRecordOp(*task_, rec, &collector_);
                });
    }
    SendSuperstepMarkers();
  };
  return prog;
}

Program TaskInstance::MakeReduce() {
  auto cache = std::make_shared<InputCache>();
  Program prog;
  prog.body = [this, cache](int64_t superstep) {
    std::vector<Record> records;
    ReadInput(0, superstep, cache.get(),
              [&](const Record& rec) { records.push_back(rec); });
    // `input_presorted`: the optimizer proved the input arrives sorted on
    // the grouping key (single forward producer emitting in key order).
    if (!task_->input_presorted) SortByKey(&records, task_->key_left);
    ForEachGroup(records, task_->key_left,
                 [&](const std::vector<Record>& group) {
                   task_->reduce_udf(group, &collector_);
                 });
    SendSuperstepMarkers();
  };
  return prog;
}

Program TaskInstance::MakeMatchHash() {
  const bool build_left = task_->local == LocalStrategy::kHashBuildLeft;
  const int build_port = build_left ? 0 : 1;
  const int probe_port = 1 - build_port;
  const KeySpec& build_key = build_left ? task_->key_left : task_->key_right;
  const KeySpec probe_key = build_left ? task_->key_right : task_->key_left;
  // A cached constant build side keeps its hash table across supersteps —
  // the table *is* the loop-invariant cache (§4.3). Every other build side
  // is rebuilt per superstep: an in-loop one from the stream, an uncached
  // constant one (caching ablation) from its raw-record cache.
  const bool rebuild =
      PortInLoop(build_port) || !task_->inputs[build_port].cached;

  struct State {
    JoinHashTable table;
    InputCache build_cache;
    InputCache probe_cache;
    explicit State(const KeySpec& key) : table(key) {}
  };
  auto st = std::make_shared<State>(build_key);

  Program prog;
  prog.body = [this, st, build_left, build_port, probe_port, probe_key,
               rebuild](int64_t superstep) {
    auto insert = [&](const Record& rec) { st->table.Insert(rec); };
    if (rebuild) {
      st->table.Clear();
      ReadInput(build_port, superstep, &st->build_cache, insert);
    } else if (superstep == 0) {
      ReadPort(build_port, insert);
    }
    ReadInput(probe_port, superstep, &st->probe_cache,
              [&](const Record& probe) {
                st->table.Probe(probe, probe_key, [&](const Record& build) {
                  if (build_left) {
                    task_->match_udf(build, probe, &collector_);
                  } else {
                    task_->match_udf(probe, build, &collector_);
                  }
                });
              });
    SendSuperstepMarkers();
  };
  return prog;
}

Program TaskInstance::MakeMergeGroups() {
  const bool cogroup = task_->kind != OperatorKind::kMatch;
  const bool inner = task_->kind == OperatorKind::kInnerCoGroup;
  auto caches = std::make_shared<std::array<InputCache, 2>>();
  Program prog;
  prog.body = [this, caches, cogroup, inner](int64_t superstep) {
    std::vector<Record> sides[2];
    for (int port = 0; port < 2; ++port) {
      ReadInput(port, superstep, &(*caches)[port],
                [&](const Record& rec) { sides[port].push_back(rec); });
    }
    SortByKey(&sides[0], task_->key_left);
    SortByKey(&sides[1], task_->key_right);
    MergeJoinGroups(sides[0], task_->key_left, sides[1], task_->key_right,
                    [&](const std::vector<Record>& lgroup,
                        const std::vector<Record>& rgroup) {
                      if (cogroup) {
                        if (inner && (lgroup.empty() || rgroup.empty())) {
                          return;
                        }
                        task_->cogroup_udf(lgroup, rgroup, &collector_);
                        return;
                      }
                      for (const Record& l : lgroup) {
                        for (const Record& r : rgroup) {
                          task_->match_udf(l, r, &collector_);
                        }
                      }
                    });
    SendSuperstepMarkers();
  };
  return prog;
}

Program TaskInstance::MakeCross() {
  const bool build_left = task_->local != LocalStrategy::kCrossBuildRight;
  const int build_port = build_left ? 0 : 1;
  const int probe_port = 1 - build_port;
  struct State {
    std::vector<Record> build;  // a constant build side is its own cache
    InputCache probe_cache;
  };
  auto st = std::make_shared<State>();
  Program prog;
  prog.body = [this, st, build_left, build_port,
               probe_port](int64_t superstep) {
    if (PortInLoop(build_port) || superstep == 0) {
      st->build.clear();
      CollectPort(build_port, &st->build);
    }
    ReadInput(probe_port, superstep, &st->probe_cache,
              [&](const Record& rec) {
                for (const Record& b : st->build) {
                  if (build_left) {
                    task_->match_udf(b, rec, &collector_);
                  } else {
                    task_->match_udf(rec, b, &collector_);
                  }
                }
              });
    SendSuperstepMarkers();
  };
  return prog;
}

// --- bulk iteration roles ---------------------------------------------------

Program TaskInstance::MakeBulkHead() {
  Program prog;
  prog.body = [this](int64_t superstep) {
    BulkRuntime& rt = BulkRt();
    std::vector<Record> current;
    if (superstep == 0) {
      // First iteration: consume the initial partial solution.
      CollectPort(0, &current);
    } else {
      current = std::move(rt.feedback[partition_]);
      rt.feedback[partition_].clear();
    }
    rt.coordinator->workset_consumed.fetch_add(
        static_cast<int64_t>(current.size()), std::memory_order_relaxed);
    for (const Record& rec : current) collector_.Emit(rec);
    SendSuperstepMarkers();
  };
  return prog;
}

Program TaskInstance::MakeBulkTail() {
  Program prog;
  prog.body = [this](int64_t) {
    BulkRuntime& rt = BulkRt();
    std::vector<Record>& buffer = rt.feedback[partition_];
    ReadPort(0, [&](const Record& rec) { buffer.push_back(rec); });
    SendSuperstepMarkers();
  };
  prog.final_flush = [this] {
    // The buffer collected in the final superstep is the result.
    for (const Record& rec : BulkRt().feedback[partition_]) {
      collector_.Emit(rec);
    }
    SendEndStream();
  };
  return prog;
}

Program TaskInstance::MakeTermSink() {
  Program prog;
  prog.body = [this](int64_t) {
    BulkRuntime& rt = BulkRt();
    int64_t count = 0;
    ReadPort(0, [&](const Record&) { ++count; });
    rt.coordinator->term_records.fetch_add(count, std::memory_order_relaxed);
    SendSuperstepMarkers();
  };
  return prog;
}

// --- workset iteration roles ------------------------------------------------

Program TaskInstance::MakeWorksetHead() {
  Program prog;
  prog.body = [this](int64_t superstep) {
    WorksetRuntime& rt = WsRt();
    WorksetRuntime::Part& part = *rt.parts[partition_];
    int64_t count = 0;
    auto emit = [&](const Record& rec) {
      collector_.Emit(rec);
      ++count;
    };
    if (part.w0_pending) {
      // A round's first superstep (local round) consumes the external W_0
      // port: the original source in the cold round, a controller-seeded
      // stream (Exchange::Seed) in warm rounds. Barrier-free, these
      // records ride on the partition's startup credit, which the
      // scheduler returns only at the end of this local round.
      ReadPort(0, emit);
      part.w0_pending = false;
    }
    // The tails' feedback. Every absolute superstep after the first has a
    // delimited phase waiting — at a round's first superstep it holds the
    // workset a cap-truncated round left behind, which so continues in
    // this round. Barrier-free rounds drain whatever is queued.
    if (superstep > 0 || AsyncMode()) {
      ReadLoop(rt.feedback[partition_].get(), emit);
    }
    rt.coordinator->workset_consumed.fetch_add(count,
                                               std::memory_order_relaxed);
    SendSuperstepMarkers();
  };
  return prog;
}

Program TaskInstance::MakeWorksetTail() {
  // The tail's only output is its feedback port (BuildOutputs), which
  // routes W_{i+1} to the heads by the workset key and counts the records
  // shipped — they are the "messages" of the incremental iteration.
  Program prog;
  prog.body = [this](int64_t) {
    int64_t count = 0;
    ReadPort(0, [&](const Record& rec) {
      collector_.Emit(rec);
      ++count;
    });
    WsRt().coordinator->workset_produced.fetch_add(count,
                                                   std::memory_order_relaxed);
    SendSuperstepMarkers();
  };
  return prog;
}

Program TaskInstance::MakeDeltaApply() {
  Program prog;
  prog.body = [this](int64_t) {
    WorksetRuntime& rt = WsRt();
    SolutionSetIndex* index = rt.index[partition_].get();
    if (rt.immediate_apply) {
      // The solution join already merged its emissions; drain markers.
      ReadPort(0, [](const Record&) {});
      SendSuperstepMarkers();
      return;
    }
    // Buffer D until the superstep's reads finished (they have: our
    // producer sent its end-of-superstep marker), then merge via ∪̇.
    std::vector<Record> delta;
    CollectPort(0, &delta);
    for (const Record& rec : delta) index->Apply(rec);
    SendSuperstepMarkers();
  };
  prog.final_flush = [this] {
    // The converged solution set is the iteration's result (§5.1).
    WsRt().index[partition_]->ForEach(
        [&](const Record& rec) { collector_.Emit(rec); });
    SendEndStream();
  };
  return prog;
}

/// Emissions of a solution join are delta records: in immediate mode they
/// merge into S right here, and records the comparator discards never
/// propagate (§5.1: "D reflects only the records that contributed to the
/// new partial solution").
class ApplyCollector : public Collector {
 public:
  ApplyCollector(SolutionSetIndex* index, Collector* next, bool immediate)
      : index_(index), next_(next), immediate_(immediate) {}
  void Emit(const Record& rec) override {
    if (immediate_ && !index_->Apply(rec)) return;
    next_->Emit(rec);
  }

 private:
  SolutionSetIndex* index_;
  Collector* next_;
  bool immediate_;
};

Program TaskInstance::MakeSolutionJoin() {
  WorksetRuntime& rt = WsRt();
  SolutionSetIndex* index = rt.index[partition_].get();
  const int s_port = task_->solution_side;
  const int probe_port = 1 - s_port;
  const KeySpec probe_key = s_port == 0 ? task_->key_right : task_->key_left;
  const bool group_mode = task_->kind == OperatorKind::kCoGroup ||
                          task_->kind == OperatorKind::kInnerCoGroup;
  const bool inner = task_->kind != OperatorKind::kCoGroup;
  auto apply =
      std::make_shared<ApplyCollector>(index, &collector_, rt.immediate_apply);

  Program prog;
  prog.body = [this, apply, index, s_port, probe_port, probe_key, group_mode,
               inner](int64_t superstep) {
    if (superstep == 0) {
      // Build the S index from the initial solution (hash-partitioned
      // by the solution key). Building is not update work: reset the
      // stats so Figure 2's counters only see iteration activity.
      ReadPort(s_port, [&](const Record& rec) { index->Apply(rec); });
      index->ResetStats();
    }
    if (!group_mode) {
      // Match: record-at-a-time probes against the index.
      ReadPort(probe_port, [&](const Record& probe) {
        const Record* s_rec = index->Lookup(probe, probe_key);
        if (s_rec == nullptr) return;  // inner-join semantics
        if (s_port == 0) {
          task_->match_udf(*s_rec, probe, apply.get());
        } else {
          task_->match_udf(probe, *s_rec, apply.get());
        }
      });
    } else {
      // (Inner)CoGroup: group the superstep's workset records per key,
      // pair each group with the solution record of that key.
      std::vector<Record> probes;
      CollectPort(probe_port, &probes);
      SortByKey(&probes, probe_key);
      std::vector<Record> s_group;
      ForEachGroup(probes, probe_key,
                   [&](const std::vector<Record>& group) {
                     const Record* s_rec =
                         index->Lookup(group.front(), probe_key);
                     s_group.clear();
                     if (s_rec != nullptr) s_group.push_back(*s_rec);
                     if (inner && s_group.empty()) return;
                     if (s_port == 0) {
                       task_->cogroup_udf(s_group, group, apply.get());
                     } else {
                       task_->cogroup_udf(group, s_group, apply.get());
                     }
                   });
    }
    SendSuperstepMarkers();
  };
  return prog;
}

Program TaskInstance::MakeProgram() {
  Program prog;
  switch (task_->role) {
    case TaskRole::kBulkHead:
      prog = MakeBulkHead();
      break;
    case TaskRole::kBulkTail:
      prog = MakeBulkTail();
      break;
    case TaskRole::kTermSink:
      prog = MakeTermSink();
      break;
    case TaskRole::kWorksetHead:
      prog = MakeWorksetHead();
      break;
    case TaskRole::kWorksetTail:
      prog = MakeWorksetTail();
      break;
    case TaskRole::kDeltaApply:
      prog = MakeDeltaApply();
      break;
    case TaskRole::kSolutionJoin:
      prog = MakeSolutionJoin();
      break;
    case TaskRole::kRegular:
      switch (task_->kind) {
        case OperatorKind::kSource:
          prog = MakeSource();
          break;
        case OperatorKind::kSink:
          prog = MakeSink();
          break;
        case OperatorKind::kMap:
        case OperatorKind::kFilter:
        case OperatorKind::kUnion:
          prog = MakeRecordOp();
          break;
        case OperatorKind::kReduce:
          prog = MakeReduce();
          break;
        case OperatorKind::kMatch:
          prog = task_->local == LocalStrategy::kSortMerge ? MakeMergeGroups()
                                                           : MakeMatchHash();
          break;
        case OperatorKind::kCross:
          prog = MakeCross();
          break;
        case OperatorKind::kCoGroup:
        case OperatorKind::kInnerCoGroup:
          prog = MakeMergeGroups();
          break;
        default:
          SFDF_CHECK(false) << "unexpected task kind "
                            << OperatorKindName(task_->kind);
      }
      break;
  }
  // Unless the program emits a final result, its flush just closes every
  // output lane.
  if (!prog.final_flush) prog.final_flush = [this] { SendEndStream(); };
  return prog;
}

// ---------------------------------------------------------------------------
// Fused microstep chain (Section 5.2)
// ---------------------------------------------------------------------------

/// One fused pipeline step. The whole dynamic path of a microstep-capable
/// iteration runs inside a partition's chain, so solution updates are
/// applied by the same logical task that owns the partition's index — no
/// locking on the index, and no lane hop between the steps.
struct ChainStep {
  enum class Kind { kRecordOp, kSolutionJoin, kMatchConst };
  Kind kind;
  const PhysicalTask* task = nullptr;
  // kMatchConst: constant build side.
  std::unique_ptr<JoinHashTable> table;
  int const_port = -1;
  KeySpec probe_key;
  bool const_is_left = false;
};

/// Partition `partition`'s fused chain of a microstep iteration. Every
/// record runs the whole chain before the next one is read, so each ∪̇
/// update is visible to the next microstep (MICRO of Table 1). The chain
/// is the one-stage pipeline of its partition's AsyncRoundUnit (staleness
/// bound 0), which owns the credit return, the quiescence exit, the peer
/// wake and the iteration cap, exactly as for an async loop.
class FusedChain {
 public:
  FusedChain(ExecContext* ctx, WorksetRuntime* rt, int partition,
             std::vector<const PhysicalTask*> tasks, const PhysicalTask* head,
             const PhysicalTask* delta_apply)
      : ctx_(ctx),
        rt_(*rt),
        partition_(partition),
        tasks_(std::move(tasks)),
        head_(head),
        delta_apply_(delta_apply),
        route_(MakeFeedbackPort(*rt, partition, &ctx->metrics)) {
    InstallCreditHooks(route_.get(), rt, partition);
  }

  /// One local round. Round 0 builds the constant match tables and loads
  /// S_0. While W_0 is pending, the head's W_0 port runs through the chain
  /// on the partition's startup credit. Every round drains the feedback
  /// lane through the chain and publishes the children, so the popped
  /// records' credits can return at the end of the round.
  void Round(int64_t round) {
    if (round == 0) Build();
    const auto run = [this](const RecordBatch& batch) {
      for (const Record& rec : batch) Run(0, rec);
    };
    WorksetRuntime::Part& part = *rt_.parts[partition_];
    if (part.w0_pending) {
      Input(head_, 0)->ReadPhase(MarkerKind::kEndStream, run);
      part.w0_pending = false;
    }
    part.popped_this_round += rt_.feedback[partition_]->DrainOpen(run);
    route_->Flush();
  }

  /// Emits this partition's converged solution set through the delta-apply
  /// task's output ports (its downstream consumers expect P producers).
  void EmitResult() {
    const auto outputs = MakePlanOutputs(ctx_, *delta_apply_, partition_);
    PortsCollector collector(RawPorts(outputs));
    rt_.index[partition_]->ForEach(
        [&](const Record& rec) { collector.Emit(rec); });
    for (const auto& port : outputs) port->SendMarker(MarkerKind::kEndStream);
  }

 private:
  Exchange* Input(const PhysicalTask* task, int port) {
    return ctx_->channels[task->id][port][partition_].get();
  }

  /// Reads an external port of a chain task to its end of stream.
  template <typename Fn>
  void ReadExternal(const PhysicalTask* task, int port, Fn&& fn) {
    Input(task, port)->ReadPhase(MarkerKind::kEndStream,
                                 [&](const RecordBatch& batch) {
                                   for (const Record& rec : batch) fn(rec);
                                 });
  }

  void Build() {
    for (const PhysicalTask* task : tasks_) {
      ChainStep step;
      step.task = task;
      switch (task->kind) {
        case OperatorKind::kMap:
        case OperatorKind::kFilter:
          step.kind = ChainStep::Kind::kRecordOp;
          break;
        case OperatorKind::kMatch:
          if (task->role == TaskRole::kSolutionJoin) {
            step.kind = ChainStep::Kind::kSolutionJoin;
            step.probe_key = task->solution_side == 0 ? task->key_right
                                                      : task->key_left;
            SolutionSetIndex* index = rt_.index[partition_].get();
            ReadExternal(task, task->solution_side,
                         [&](const Record& rec) { index->Apply(rec); });
            index->ResetStats();  // building S_0 is not iteration work
          } else {
            step.kind = ChainStep::Kind::kMatchConst;
            // The dynamic input is the one fed by the previous chain task.
            const int const_port =
                IsLoopTask(ctx_->task(task->inputs[0].producer)) ? 1 : 0;
            step.const_port = const_port;
            step.const_is_left = const_port == 0;
            step.probe_key =
                const_port == 0 ? task->key_right : task->key_left;
            step.table = std::make_unique<JoinHashTable>(
                const_port == 0 ? task->key_left : task->key_right);
            ReadExternal(task, const_port,
                         [&](const Record& rec) { step.table->Insert(rec); });
          }
          break;
        default:
          SFDF_CHECK(false) << "operator not fusable into a microstep chain: "
                            << OperatorKindName(task->kind);
      }
      chain_.push_back(std::move(step));
    }
  }

  void Run(size_t step_index, const Record& rec) {
    if (step_index == chain_.size()) {
      route_->Send(rec);  // a W_{i+1} element
      return;
    }
    ChainStep& step = chain_[step_index];
    class NextCollector : public Collector {
     public:
      NextCollector(FusedChain* self, size_t next) : self_(self), next_(next) {}
      void Emit(const Record& rec) override { self_->Run(next_, rec); }

     private:
      FusedChain* self_;
      size_t next_;
    } next(this, step_index + 1);

    switch (step.kind) {
      case ChainStep::Kind::kRecordOp:
        ApplyRecordOp(*step.task, rec, &next);
        break;
      case ChainStep::Kind::kSolutionJoin: {
        SolutionSetIndex* index = rt_.index[partition_].get();
        const Record* s_rec = index->Lookup(rec, step.probe_key);
        if (s_rec == nullptr) return;
        // Immediate ∪̇: the update takes effect before the next microstep;
        // discarded records do not propagate.
        ApplyCollector apply(index, &next, /*immediate=*/true);
        if (step.task->solution_side == 0) {
          step.task->match_udf(*s_rec, rec, &apply);
        } else {
          step.task->match_udf(rec, *s_rec, &apply);
        }
        break;
      }
      case ChainStep::Kind::kMatchConst:
        step.table->Probe(rec, step.probe_key, [&](const Record& build) {
          if (step.const_is_left) {
            step.task->match_udf(build, rec, &next);
          } else {
            step.task->match_udf(rec, build, &next);
          }
        });
        break;
    }
  }

  ExecContext* ctx_;
  WorksetRuntime& rt_;
  const int partition_;
  const std::vector<const PhysicalTask*> tasks_;
  const PhysicalTask* head_;
  const PhysicalTask* delta_apply_;
  std::vector<ChainStep> chain_;
  /// Routes end-of-chain records into the feedback exchanges; batches are
  /// flushed once per round (and whenever one fills up).
  std::unique_ptr<OutputPort> route_;
};

// ---------------------------------------------------------------------------
// PollUnit: one partition of a cooperative polling node
// ---------------------------------------------------------------------------

/// Outcome of one cooperative poll.
enum class PollStatus : uint8_t {
  kWorked,  ///< made progress — resubmit immediately
  kYield,   ///< no progress, an output lane is at capacity — resubmit
  kIdle,    ///< nothing to do until a producer or peer wakes it — park
  kDone,    ///< finished (for this round) — count the unit out
};

/// One partition of a cooperative polling node (runtime v3): a
/// barrier-free loop's local rounds (AsyncRoundUnit) or a pipelined
/// streaming task (PipelinedInstance). Instead of a dedicated thread
/// blocked on its input, the unit advances in short Step() calls on the
/// shared engine pool, and PlanSchedule's one driver acts on the status:
/// resubmit on kWorked and kYield, park on the unit's engine slot on
/// kIdle, count the unit out on kDone. A unit returns kIdle only while it
/// has an obligated waker — a producer that still publishes into its
/// lanes, or a peer that will reach quiescence or advance the staleness
/// minimum — and the wake-pending handshake in Engine::Park/Wake closes
/// the race between the emptiness check inside Step() and the park that
/// follows it. Liveness so needs only one pool worker.
class PollUnit {
 public:
  explicit PollUnit(int partition) : partition_(partition) {}
  virtual ~PollUnit() = default;
  /// The driver's continuations hold the unit's address.
  PollUnit(const PollUnit&) = delete;
  PollUnit& operator=(const PollUnit&) = delete;

  virtual PollStatus Step() = 0;

  int partition() const { return partition_; }

 protected:
  const int partition_;
};

// ---------------------------------------------------------------------------
// PipelinedInstance: one partition of a streaming non-loop task (kPipelined)
// ---------------------------------------------------------------------------

/// Polling unit of a pipelined region (ExecutionOptions::region_mode ==
/// kPipelined). Where materialize mode runs a non-loop task as a single
/// blocking RunOnce after its producer regions completed, a pipelined unit
/// is scheduled the moment the plan starts. A unit that cannot progress
/// returns kYield (outputs backpressured — the engine's per-client FIFO
/// places the resubmitted retry behind the consumer's already-queued poll,
/// so the consumer drains first even on one worker) or kIdle (inputs
/// empty; any producer Push into an input lane fires the exchange's
/// consumer waker). kDone: inputs exhausted, end-of-stream delivered.
class PipelinedInstance : public PollUnit {
 public:
  PipelinedInstance(ExecContext* ctx, const PhysicalTask* task, int partition)
      : PollUnit(partition),
        ctx_(ctx),
        task_(task),
        outputs_(MakePlanOutputs(ctx, *task, partition)),
        out_ptrs_(RawPorts(outputs_)) {
    if (task_->kind == OperatorKind::kSource) {
      source_data_ = &ctx_->source_data(*task_);
      cursor_ = static_cast<size_t>(partition_);
    }
  }

  PollStatus Step() override {
    // Retry stalled output batches/markers first: while a target lane sits
    // at capacity, consuming more input would only grow the stalled
    // buffers and defeat the flow-control window.
    bool outputs_clear = TryDrainOutputs();
    int64_t worked = 0;
    if (outputs_clear) {
      worked += task_->kind == OperatorKind::kSource ? EmitSource()
                                                     : DrainInputs();
      outputs_clear = !AnyOutputStalled();
    }
    if (outputs_clear && InputExhausted()) {
      if (!end_sent_) {
        // Flush-and-close every output. SendMarker defers the marker on
        // any target whose tail data stalls; TryDrainOutputs (below, and
        // on later polls) delivers it once the consumer drained.
        for (OutputPort* port : out_ptrs_) {
          port->SendMarker(MarkerKind::kEndStream);
        }
        end_sent_ = true;
        ++worked;
      }
      if (TryDrainOutputs()) return PollStatus::kDone;
    }
    if (worked > 0) return PollStatus::kWorked;
    if (AnyOutputStalled()) {
      static const uint16_t kYield = trace::RegisterName("pipe.yield");
      trace::Instant(kYield, partition_);
      return PollStatus::kYield;
    }
    static const uint16_t kPark = trace::RegisterName("pipe.park");
    trace::Instant(kPark, partition_);
    return PollStatus::kIdle;
  }

 private:
  Exchange* Input(int port) {
    return ctx_->channels[task_->id][port][partition_].get();
  }

  bool AnyOutputStalled() const {
    for (const OutputPort* port : out_ptrs_) {
      if (port->has_stalled()) return true;
    }
    return false;
  }

  bool TryDrainOutputs() {
    bool clear = true;
    for (OutputPort* port : out_ptrs_) {
      if (!port->TryDrainStalled()) clear = false;
    }
    return clear;
  }

  /// Source exhausted / every input lane of every port closed. Closed lanes
  /// are fully drained (the end-stream marker is a lane's last envelope),
  /// so exhausted means there is nothing left to pop anywhere.
  bool InputExhausted() {
    if (task_->kind == OperatorKind::kSource) {
      return cursor_ >= source_data_->size();
    }
    for (size_t port = 0; port < task_->inputs.size(); ++port) {
      if (!Input(static_cast<int>(port))->AllClosed()) return false;
    }
    return true;
  }

  /// Resumable source scan: same `partition + i*P` stride as the Source
  /// program, but the cursor persists across polls so a backpressured
  /// source picks up exactly where it stopped.
  int64_t EmitSource() {
    const std::vector<Record>& data = *source_data_;
    const size_t stride = static_cast<size_t>(ctx_->parallelism);
    PortsCollector collector(out_ptrs_);
    int64_t emitted = 0;
    while (cursor_ < data.size()) {
      collector.Emit(data[cursor_]);
      cursor_ += stride;
      ++emitted;
      // Per-record check: one Emit can flush a full batch and stall, and
      // emitting past that would overrun the window into port buffers.
      if (AnyOutputStalled()) break;
    }
    return emitted;
  }

  /// Drains whatever the input lanes currently hold, stopping early when an
  /// output stalls. Returns the number of records popped.
  int64_t DrainInputs() {
    if (task_->kind == OperatorKind::kSink) {
      // Sinks have no outputs, so they never stall — the chain always
      // drains from the bottom, which is what makes backpressure
      // deadlock-free on an acyclic region graph.
      std::vector<Record>& slot = ctx_->sink_slots[task_->id][partition_];
      return Input(0)->DrainOpen([&](const RecordBatch& batch) {
        for (const Record& rec : batch) slot.push_back(rec);
      });
    }
    const auto stalled = [this] { return AnyOutputStalled(); };
    PortsCollector collector(out_ptrs_);
    int64_t popped = 0;
    for (size_t port = 0; port < task_->inputs.size(); ++port) {
      popped += Input(static_cast<int>(port))
                    ->DrainOpenUntil(
                        [&](const RecordBatch& batch) {
                          for (const Record& rec : batch) {
                            ApplyRecordOp(*task_, rec, &collector);
                          }
                        },
                        stalled);
    }
    return popped;
  }

  ExecContext* ctx_;
  const PhysicalTask* task_;
  std::vector<std::unique_ptr<OutputPort>> outputs_;
  std::vector<OutputPort*> out_ptrs_;
  const std::vector<Record>* source_data_ = nullptr;
  size_t cursor_ = 0;  ///< next source index for this partition (stride P)
  bool end_sent_ = false;
};

// ---------------------------------------------------------------------------
// Setup helpers
// ---------------------------------------------------------------------------

Status ValidatePhysicalPlan(const PhysicalPlan& plan) {
  for (const PhysicalTask& task : plan.tasks) {
    if (task.id != static_cast<int>(&task - plan.tasks.data())) {
      return Status::Internal("physical task ids must be dense and ordered");
    }
    for (const PhysicalInput& input : task.inputs) {
      if (input.producer < 0 ||
          input.producer >= static_cast<int>(plan.tasks.size())) {
        return Status::Internal("physical input references unknown producer");
      }
      if (input.ship == ShipStrategy::kHashPartition &&
          input.ship_key.empty()) {
        return Status::Internal("hash partitioning requires a ship key");
      }
    }
  }
  return Status::OK();
}

/// Derives the decide-function for a bulk iteration's coordinator.
std::function<bool(int64_t)> MakeBulkDecide(ExecContext* ctx,
                                            BulkRuntime* rt) {
  return [ctx, rt](int64_t finished) {
    SuperstepCoordinator* coordinator = rt->coordinator.get();
    int64_t term = coordinator->term_records.exchange(0);
    int64_t consumed = coordinator->workset_consumed.exchange(0);
    if (rt->record_stats) {
      SuperstepStats stats;
      stats.superstep = static_cast<int>(finished);
      stats.millis = rt->watch.ElapsedMillis();
      stats.workset_size = consumed;
      stats.term_records = term;
      int64_t shipped = ctx->metrics.records_shipped();
      stats.records_shipped = shipped - rt->shipped_mark;
      rt->shipped_mark = shipped;
      rt->report.supersteps.push_back(stats);
    }
    rt->watch.Restart();
    rt->report.iterations = static_cast<int>(finished + 1);
    bool terminate = false;
    if (rt->has_term && term == 0) {
      terminate = true;
      rt->report.converged = true;
    }
    if (finished + 1 >= rt->max_iterations) {
      terminate = true;
      if (!rt->has_term) rt->report.converged = true;
    }
    return terminate;
  };
}

/// Derives the decide-function for a workset iteration's coordinator.
std::function<bool(int64_t)> MakeWorksetDecide(ExecContext* ctx,
                                               WorksetRuntime* rt) {
  return [ctx, rt](int64_t finished) {
    SuperstepCoordinator* coordinator = rt->coordinator.get();
    // The records the tails fed back during this superstep — delimited in
    // the feedback lanes by their end-of-superstep markers — are the next
    // superstep's workset (§5.3).
    const int64_t produced = coordinator->workset_produced.exchange(0);
    const int64_t consumed = coordinator->workset_consumed.exchange(0);
    // Session rounds restart the superstep numbering of reports and the
    // iteration cap at the round's first superstep (one-shot runs have
    // round_start_superstep == 0, reducing to the plain numbering). The
    // round-relative index is bounded by max_iterations, so int is safe.
    const int round_superstep =
        static_cast<int>(finished - rt->round_start_superstep);
    if (rt->record_stats) {
      SuperstepStats stats;
      stats.superstep = round_superstep;
      stats.millis = rt->watch.ElapsedMillis();
      stats.workset_size = consumed;
      stats.next_workset_size = produced;
      int64_t lookups;
      int64_t applied;
      int64_t discarded;
      rt->SumIndexStats(&lookups, &applied, &discarded);
      stats.solution_lookups = lookups - rt->lookups_mark;
      stats.delta_applied = applied - rt->applied_mark;
      stats.delta_discarded = discarded - rt->discarded_mark;
      rt->lookups_mark = lookups;
      rt->applied_mark = applied;
      rt->discarded_mark = discarded;
      int64_t shipped = ctx->metrics.records_shipped();
      stats.records_shipped = shipped - rt->shipped_mark;
      rt->shipped_mark = shipped;
      rt->report.supersteps.push_back(stats);
    }
    rt->watch.Restart();
    rt->report.iterations = round_superstep + 1;
    // §4.2 recovery log: snapshot the materialization points (solution set
    // + pending workset) at the configured superstep boundary. Safe here:
    // the completion step runs inside the wave's last arrival, while no
    // participant task is live. Round-relative, like the report numbering,
    // so session rounds each hit the same mark.
    if (round_superstep == ctx->checkpoint_superstep &&
        !ctx->checkpoint_path.empty()) {
      IterationCheckpoint checkpoint;
      checkpoint.superstep = round_superstep;
      for (const auto& index : rt->index) {
        index->ForEach([&](const Record& rec) {
          checkpoint.solution.push_back(rec);
        });
      }
      for (const auto& feedback : rt->feedback) {
        feedback->CopyTo(&checkpoint.workset);
      }
      Status st = SaveCheckpoint(ctx->checkpoint_path, checkpoint);
      if (!st.ok()) {
        SFDF_LOG(Warn) << "checkpoint failed: " << st.ToString();
      }
    }
    if (produced == 0) {
      rt->report.converged = true;  // the workset drained: fixpoint reached
      return true;
    }
    if (round_superstep + 1 >= rt->max_iterations) return true;
    return false;
  };
}

/// Early ExecutionOptions validation: malformed knobs are rejected here
/// with InvalidArgument instead of flowing silently into the runtime.
Status ValidateExecutionOptions(const ExecutionOptions& options) {
  if (options.parallelism < 0) {
    return Status::InvalidArgument(
        "ExecutionOptions.parallelism must be >= 0 (0 = default), got " +
        std::to_string(options.parallelism));
  }
  if (options.worker_threads < 0) {
    return Status::InvalidArgument(
        "ExecutionOptions.worker_threads must be >= 0 (0 = shared default "
        "engine), got " +
        std::to_string(options.worker_threads));
  }
  if (options.checkpoint_superstep < -1) {
    return Status::InvalidArgument(
        "ExecutionOptions.checkpoint_superstep must be >= -1 (-1 = off), "
        "got " +
        std::to_string(options.checkpoint_superstep));
  }
  if (options.region_mode == RegionMode::kPipelined &&
      options.pipeline_lane_capacity < 1) {
    return Status::InvalidArgument(
        "ExecutionOptions.pipeline_lane_capacity must be >= 1 under "
        "region_mode pipelined (it is the per-lane flow-control window in "
        "envelopes), got " +
        std::to_string(options.pipeline_lane_capacity));
  }
  if (options.sync_mode == SyncMode::kBoundedStale &&
      options.staleness_bound < 1) {
    return Status::InvalidArgument(
        "ExecutionOptions.staleness_bound must be >= 1 for bounded_stale "
        "(a bound of k lets a partition run k local rounds ahead), got " +
        std::to_string(options.staleness_bound));
  }
  if (options.sync_mode != SyncMode::kSuperstep &&
      options.checkpoint_superstep >= 0) {
    return Status::InvalidArgument(
        "checkpointing is superstep-aligned and unavailable under "
        "sync_mode async/bounded_stale — there is no global superstep to "
        "checkpoint at");
  }
  return Status::OK();
}

/// Plan-level gate for barrier-free execution. Async / bounded-stale runs
/// re-order and re-group the delta merges (partial phases split workset
/// groups across local rounds), so the plan's ∪̇ must be idempotent-safe:
/// either a CPO comparator decides every conflict (order-free by
/// construction, §5.1) or the delta is applied immediately and locally, so
/// every partial merge folds into S before the next one reads it. A plan
/// with neither resolves conflicts by arrival order at a barrier — exactly
/// the order a barrier-free run no longer fixes.
Status ValidateSyncMode(const PhysicalPlan& plan,
                        const ExecutionOptions& options) {
  if (options.sync_mode == SyncMode::kSuperstep) return Status::OK();
  if (plan.workset_iterations.empty()) {
    return Status::Unsupported(
        "sync_mode async/bounded_stale applies to workset iterations; this "
        "plan has none");
  }
  if (!plan.bulk_iterations.empty()) {
    return Status::Unsupported(
        "sync_mode async/bounded_stale cannot run bulk iterations — a bulk "
        "body consumes the WHOLE previous partial solution, which only "
        "exists at a superstep boundary");
  }
  for (const PhysicalWorksetIteration& spec : plan.workset_iterations) {
    if (spec.microstep) {
      return Status::Unsupported(
          "sync_mode async/bounded_stale does not apply to microstep plans "
          "— the fused microstep loop is already barrier-free "
          "(record-level, not round-level); run it with sync_mode "
          "superstep");
    }
    if (!spec.immediate_apply && !spec.comparator) {
      return Status::Unsupported(
          "sync_mode async/bounded_stale requires an idempotent-safe ∪̇: "
          "give the iteration a CPO comparator or let the optimizer apply "
          "deltas immediately (this plan resolves solution-set conflicts "
          "by arrival order, which barrier-free execution does not "
          "preserve)");
    }
  }
  return Status::OK();
}

/// One-shot setup: validates the plan and builds the channels, consumer
/// index, iteration runtimes and sink slots for degree-of-parallelism P.
/// Shared between Run (setup → schedule → tear down) and StartSession
/// (setup once, re-enter rounds warm).
Status SetupContext(const PhysicalPlan& plan, const ExecutionOptions& options,
                    int P, ExecContext* ctx_out) {
  SFDF_RETURN_NOT_OK(ValidatePhysicalPlan(plan));

  ExecContext& ctx = *ctx_out;
  ctx.plan = &plan;
  ctx.parallelism = P;
  ctx.record_stats = options.record_superstep_stats;
  ctx.cache_spill_budget = options.cache_spill_budget_bytes;
  ctx.checkpoint_superstep = options.checkpoint_superstep;
  ctx.checkpoint_path = options.checkpoint_path;
  ctx.sync_mode = options.sync_mode;
  ctx.staleness_bound =
      options.sync_mode == SyncMode::kBoundedStale ? options.staleness_bound
                                                   : 0;
  ctx.region_mode = options.region_mode;

  // --- channels & consumer index ---
  ctx.channels.resize(plan.tasks.size());
  ctx.consumer_edges.resize(plan.tasks.size());
  ctx.sink_slots.resize(plan.tasks.size());
  for (const PhysicalTask& task : plan.tasks) {
    ctx.channels[task.id].resize(task.inputs.size());
    for (size_t port = 0; port < task.inputs.size(); ++port) {
      for (int p = 0; p < P; ++p) {
        ctx.channels[task.id][port].push_back(std::make_unique<Exchange>(P));
      }
      ctx.consumer_edges[task.inputs[port].producer].emplace_back(
          task.id, static_cast<int>(port));
    }
    if (task.kind == OperatorKind::kSink) {
      ctx.sink_slots[task.id].resize(P);
      SFDF_CHECK(task.sink_out != nullptr) << "sink without output vector";
      task.sink_out->clear();
    }
  }

  // --- pipelined-region lane capacities ---
  // An edge is bounded exactly when BOTH endpoints run as streaming
  // pipelined units: the producer can be backpressured (it yields and
  // resumes) and the consumer drains incrementally (so credit flows back).
  // Loop edges, edges touching a loop region and breaker edges stay
  // unbounded — zero behavior change for everything already working.
  if (ctx.region_mode == RegionMode::kPipelined) {
    for (const PhysicalTask& task : plan.tasks) {
      if (!IsPipelinedTask(task)) continue;
      for (size_t port = 0; port < task.inputs.size(); ++port) {
        if (!IsPipelinedTask(plan.tasks[task.inputs[port].producer])) continue;
        for (int p = 0; p < P; ++p) {
          ctx.channels[task.id][port][p]->set_lane_capacity(
              options.pipeline_lane_capacity);
        }
      }
    }
  }

  // --- iteration runtimes ---
  std::vector<int> loop_tasks_bulk(plan.bulk_iterations.size(), 0);
  std::vector<int> loop_tasks_ws(plan.workset_iterations.size(), 0);
  for (const PhysicalTask& task : plan.tasks) {
    if (IsLoopTask(task)) {
      if (task.bulk_iteration >= 0) ++loop_tasks_bulk[task.bulk_iteration];
      if (task.workset_iteration >= 0) ++loop_tasks_ws[task.workset_iteration];
    }
  }
  for (size_t i = 0; i < plan.bulk_iterations.size(); ++i) {
    const PhysicalBulkIteration& spec = plan.bulk_iterations[i];
    auto rt = std::make_unique<BulkRuntime>();
    rt->feedback.resize(P);
    rt->has_term = spec.term_sink_task >= 0;
    rt->max_iterations = spec.max_iterations;
    rt->metrics = &ctx.metrics;
    rt->record_stats = ctx.record_stats;
    BulkRuntime* raw = rt.get();
    rt->coordinator = std::make_unique<SuperstepCoordinator>(
        loop_tasks_bulk[i] * P, MakeBulkDecide(&ctx, raw));
    ctx.bulk.push_back(std::move(rt));
  }

  for (size_t i = 0; i < plan.workset_iterations.size(); ++i) {
    const PhysicalWorksetIteration& spec = plan.workset_iterations[i];
    auto rt = std::make_unique<WorksetRuntime>();
    rt->route_key = spec.workset_route_key;
    rt->solution_key = spec.solution_key;
    rt->immediate_apply = spec.immediate_apply;
    rt->max_iterations = spec.max_iterations;
    rt->metrics = &ctx.metrics;
    rt->record_stats = ctx.record_stats;
    for (int p = 0; p < P; ++p) {
      rt->index.push_back(
          spec.use_btree_index
              ? MakeBTreeSolutionIndex(spec.solution_key, spec.comparator)
              : MakeHashSolutionIndex(spec.solution_key, spec.comparator));
      rt->feedback.push_back(std::make_unique<Exchange>(P));
      rt->parts.push_back(std::make_unique<WorksetRuntime::Part>());
    }
    WorksetRuntime* raw = rt.get();
    rt->coordinator = std::make_unique<SuperstepCoordinator>(
        loop_tasks_ws[i] * P, MakeWorksetDecide(&ctx, raw));
    if (spec.microstep || ctx.sync_mode != SyncMode::kSuperstep) {
      // Barrier-free: local rounds bookkept by the coordinator's
      // quiescence/staleness side. ValidateSyncMode vouched for the plan
      // (idempotent-safe ∪̇, no bulk) and keeps microstep iterations at
      // sync_mode superstep, so their staleness bound is 0.
      rt->report.ran_microsteps = spec.microstep;
      rt->report.ran_async = !spec.microstep;
      rt->coordinator->EnableBarrierFree(P, ctx.staleness_bound);
    }
    ctx.workset.push_back(std::move(rt));
  }
  return Status::OK();
}

/// Folds the health counters of every exchange of `ctx` — the plan's
/// channels and the workset feedback lanes — into its metrics. Exact only
/// once no producer or consumer of the context runs anymore (after the
/// plan drained, or at a quiesced reconfiguration boundary), when the
/// per-lane relaxed counters are final.
void FoldExchangeStats(ExecContext* ctx) {
  auto fold = [ctx](const Exchange& exchange) {
    const Exchange::Stats s = exchange.stats();
    ctx->metrics.RecordQueueDepth(s.depth_high_water);
    ctx->metrics.CountBatchPool(s.pool_hits, s.pool_misses);
    ctx->metrics.AddPeakResidentSegments(s.peak_resident_segments);
  };
  for (const auto& task_channels : ctx->channels) {
    for (const auto& port_channels : task_channels) {
      for (const auto& exchange : port_channels) fold(*exchange);
    }
  }
  for (const auto& rt : ctx->workset) {
    for (const auto& exchange : rt->feedback) fold(*exchange);
  }
}

/// Post-drain epilogue: merges the sink slots deterministically and
/// assembles the aggregate statistics.
ExecutionResult AssembleResult(const PhysicalPlan& plan, ExecContext* ctx_ptr,
                               double total_millis) {
  ExecContext& ctx = *ctx_ptr;
  const int P = ctx.parallelism;

  // --- merge sink slots deterministically by partition ---
  for (const PhysicalTask& task : plan.tasks) {
    if (task.kind != OperatorKind::kSink) continue;
    for (int p = 0; p < P; ++p) {
      auto& slot = ctx.sink_slots[task.id][p];
      task.sink_out->insert(task.sink_out->end(), slot.begin(), slot.end());
    }
  }

  FoldExchangeStats(&ctx);  // every task has completed

  // --- assemble result ---
  ExecutionResult result;
  result.total_millis = total_millis;
  result.records_shipped = ctx.metrics.records_shipped();
  result.records_remote = ctx.metrics.records_remote();
  result.bytes_shipped = ctx.metrics.bytes_shipped();
  result.records_combined = ctx.metrics.records_combined();
  result.queue_depth_high_water = ctx.metrics.queue_depth_high_water();
  result.batch_pool_hits = ctx.metrics.batch_pool_hits();
  result.batch_pool_misses = ctx.metrics.batch_pool_misses();
  result.backpressure_stalls = ctx.metrics.backpressure_stalls();
  result.producer_yields = ctx.metrics.producer_yields();
  result.peak_resident_segments = ctx.metrics.peak_resident_segments();
  for (auto& rt : ctx.bulk) {
    result.bulk_reports.push_back(std::move(rt->report));
  }
  for (auto& rt : ctx.workset) {
    const SuperstepCoordinator& co = *rt->coordinator;
    // Local rounds have no global superstep rows; synthesize one from the
    // credit counter (a barrier-free report's iteration and convergence
    // fields were filled by the round's last-finishing unit).
    if (co.barrier_free() && rt->record_stats) {
      SuperstepStats stats;
      stats.superstep = 0;
      stats.millis = result.total_millis;
      stats.workset_size = co.records_processed();
      int64_t lookups;
      int64_t applied;
      int64_t discarded;
      rt->SumIndexStats(&lookups, &applied, &discarded);
      stats.solution_lookups = lookups;
      stats.delta_applied = applied;
      stats.delta_discarded = discarded;
      rt->report.supersteps.push_back(stats);
    }
    if (co.barrier_free()) {
      for (int p = 0; p < P; ++p) {
        result.async_local_rounds.push_back(co.rounds_executed(p));
      }
      result.async_vote_revocations += co.vote_revocations();
      result.async_max_staleness =
          std::max(result.async_max_staleness, co.max_staleness());
    }
    result.workset_reports.push_back(std::move(rt->report));
  }
  return result;
}

// ---------------------------------------------------------------------------
// PlanSchedule: dataflow-topological scheduling on the engine
// ---------------------------------------------------------------------------

/// One partition's program of a loop node: a loop task instance of a
/// superstep wave or barrier-free pipeline, or (instance == null) a
/// microstep iteration's fused chain.
struct LoopUnit {
  TaskInstance* instance = nullptr;
  int partition = 0;
  Program program;
};

/// Barrier-free local-round unit, the one loop unit of every iteration
/// that runs without the arrival gate (sync_mode != kSuperstep, and every
/// microstep iteration). Step() runs its partition's whole loop pipeline
/// (head → body → tail in stage order, or the fused chain) as one local
/// round over whatever the lanes currently hold and returns kWorked. With
/// nothing queued it votes quiescent and returns kIdle, as it does while
/// bounded staleness holds it back. Whoever observes quiescence or trips
/// the per-round iteration cap terminates the round for everyone, wakes
/// every peer and returns kDone; each woken peer then sees the terminated
/// flag and returns kDone as well.
class AsyncRoundUnit : public PollUnit {
 public:
  AsyncRoundUnit(WorksetRuntime* rt, int partition,
                 std::vector<LoopUnit*> pipeline)
      : PollUnit(partition), rt_(*rt), pipeline_(std::move(pipeline)) {}

  PollStatus Step() override {
    SuperstepCoordinator* co = rt_.coordinator.get();
    WorksetRuntime::Part& ap = *rt_.parts[partition_];
    const int p = partition_;

    // A peer ended the round. One exception: a partition that never read
    // its W_0 share (the cap fired before its first local round) must
    // still consume it — the records would otherwise be dropped by the
    // next round's seed Reset instead of continuing as leftover.
    if (co->terminated() && !ap.w0_pending) return PollStatus::kDone;

    bool has_work = ap.w0_pending || rt_.feedback[p]->HasQueued();
    for (size_t i = 0; !has_work && i < pipeline_.size(); ++i) {
      TaskInstance* instance = pipeline_[i]->instance;
      has_work = instance != nullptr && instance->AnyLoopInputReadable();
    }
    if (!has_work) {
      if (co->Quiescent()) {
        // Nothing queued anywhere, nobody mid-round: this partition ends
        // the iteration for everyone (the decide step of the barrier-free
        // protocol).
        co->FinishBarrierFree(/*capped=*/false);
        WakePeers();
        return PollStatus::kDone;
      }
      co->CastQuiescentVote(p);
      // Idle ≠ behind: bump to the fastest peer so this partition never
      // holds the staleness minimum down while contributing nothing. If
      // the bump advanced the minimum, staleness-parked peers must hear
      // about it — they gate on the minimum we just moved.
      const bool advanced = co->SyncIdleRound(p);
      if (advanced && co->staleness_bound() > 0) WakePeers();
      static const uint16_t kIdlePark = trace::RegisterName("async.idle.park");
      trace::Instant(kIdlePark, p);
      return PollStatus::kIdle;
    }

    if (co->staleness_bound() > 0 &&
        co->local_round(p) - co->MinLocalRound() >=
            static_cast<int64_t>(co->staleness_bound())) {
      // Bounded staleness: too far ahead of the slowest peer — park until
      // the minimum advances. Liveness: the minimum partition itself can
      // never take this branch, and every working round in bounded mode
      // ends in a broadcast wake, so the bound is re-evaluated each time
      // any peer advances.
      static const uint16_t kStalePark =
          trace::RegisterName("async.stale.park");
      trace::Instant(kStalePark, p);
      return PollStatus::kIdle;
    }

    co->BeginWorkRound(p);
    const bool had_w0 = ap.w0_pending;  // the head consumes W_0 below
    const int64_t round = co->local_round(p);
    {
      static const uint16_t kRound = trace::RegisterName("async.round");
      trace::Span span(kRound, p);
      for (LoopUnit* unit : pipeline_) unit->program.body(round);
    }
    // Credits of everything this round consumed return only now — after
    // the round's own children were published (and credited), so
    // `pending` can never dip to zero while derived work is in flight.
    // The same rule covers the startup credit: it pins `pending` above
    // zero for the whole first round, not just until the W_0 read.
    co->CreditProcessed(ap.popped_this_round);
    ap.popped_this_round = 0;
    if (had_w0) co->ReleaseStartupCredit();
    co->AdvanceLocalRound(p);

    if (co->RoundLocalRounds(p) >= static_cast<int64_t>(rt_.max_iterations)) {
      // Per-round iteration cap: stop everyone; queued leftovers keep
      // their credits and continue in the next service round.
      co->FinishBarrierFree(/*capped=*/true);
      WakePeers();
      return PollStatus::kDone;
    }
    if (co->staleness_bound() > 0) WakePeers();
    return PollStatus::kWorked;
  }

 private:
  /// Wakes every other partition of the loop. Peers parked on empty lanes
  /// can only learn from this one that the loop terminated or that the
  /// staleness minimum advanced; the broadcast runs inside Step(), so every
  /// wake lands before the driver counts the unit out.
  void WakePeers() {
    for (int p = 0; p < static_cast<int>(rt_.parts.size()); ++p) {
      if (p != partition_) rt_.wake(p);
    }
  }

  WorksetRuntime& rt_;
  /// Views into the node's wave stages, in stage order (same-depth tasks
  /// are mutually independent).
  std::vector<LoopUnit*> pipeline_;
};

/// A schedulable region of the plan. The plan's exchange graph is a DAG —
/// every feedback edge of an iteration stays inside its loop region (the
/// bulk feedback buffers, the workset feedback exchanges), never between
/// regions — so regions can run strictly producers-before-consumers:
///   kTask — one non-loop physical task: P one-shot units, runnable once
///           every producer region completed (its input phases are then
///           fully delivered, so each unit runs its task's program once
///           without ever blocking).
///   kWave — one superstep iteration: self-scheduling superstep waves
///           (see ScheduleWave); completes after its final flush.
///   kPoll — P cooperative PollUnits under one driver (RunPoll): a
///           barrier-free workset iteration (sync_mode != superstep, or a
///           microstep iteration; its units run once per round), or a
///           streaming non-loop task under region_mode kPipelined. A
///           pipelined node registers no region predecessors: its units
///           start at Start() and park until data arrives.
struct SchedNode {
  enum class Kind { kTask, kWave, kPoll };
  Kind kind = Kind::kTask;
  int task_id = -1;    ///< kTask, pipelined kPoll
  bool is_bulk = false;
  int iteration = -1;  ///< index into ctx.bulk / ctx.workset
  std::vector<int> dependents;
  std::atomic<int> pending_deps{0};
  /// kTask, kPoll: units still running (in the current round).
  std::atomic<int> units_remaining{0};
  /// kWave, barrier-free kPoll.
  SuperstepCoordinator* coordinator = nullptr;
  /// Wave stages: the loop units grouped by in-loop dataflow depth. Stage
  /// k+1 is enqueued once stage k fully finished, so every in-loop
  /// ReadPhase finds its producers' superstep phase already delivered. A
  /// barrier-free node's units run the same stages as local rounds (a
  /// microstep node has one stage, its fused chains), and its final flush
  /// and shutdown run off them unchanged.
  std::vector<std::vector<LoopUnit>> stages;
  std::vector<std::unique_ptr<std::atomic<int>>> stage_remaining;
  /// Resident session iteration: a terminated wave (or barrier-free round)
  /// hands the round boundary to the session controller instead of
  /// final-flushing; the node only completes when Finish schedules the
  /// flush.
  bool session_resident = false;
  /// Flight-recorder stash: the wave's start time, written by ScheduleWave
  /// and read by the wave-closing arrival in OnLoopUnitDone (ordered by the
  /// arrival gate).
  int64_t wave_start_ns = 0;
  std::atomic<int> flush_remaining{0};
  /// kPoll: one unit and one engine park slot per partition. The slots
  /// live as long as the schedule: a producer can still be inside
  /// Push→waker while its consumer node completes, and a resident
  /// barrier-free loop never completes before a Reconfigure tears the
  /// schedule down. ~PlanSchedule frees them once no task runs.
  std::vector<std::unique_ptr<PollUnit>> units;
  std::vector<uint64_t> park_slots;
};

class PlanSchedule {
 public:
  PlanSchedule(const PhysicalPlan* plan, ExecContext* ctx, Engine* engine,
               std::string client_name, bool session_mode)
      : plan_(plan),
        ctx_(ctx),
        engine_(engine),
        session_mode_(session_mode) {
    client_ = engine_->RegisterClient(std::move(client_name));
    BuildInstances();
    BuildNodes();
    // Pipelined nodes are built strictly before Start() submits anything:
    // their consumer wakers are read by producer Pushes from then on, and
    // the engine submit is the publish between the two.
    for (auto& node : nodes_) {
      if (node->kind == SchedNode::Kind::kPoll && node->task_id >= 0) {
        BuildPollUnits(node.get());
      }
    }
  }

  /// The owner destroys the schedule only after WaitPlanDone, a session's
  /// Finish, or Reconfigure's WaitQuiesced — no task runs and the client
  /// queue is drained, so every poll node's park slots (kept for the
  /// schedule's whole life, see SchedNode) can be freed here.
  ~PlanSchedule() {
    for (auto& node : nodes_) {
      for (uint64_t slot : node->park_slots) engine_->DestroyParkSlot(slot);
    }
    engine_->UnregisterClient(client_);
  }

  PlanSchedule(const PlanSchedule&) = delete;
  PlanSchedule& operator=(const PlanSchedule&) = delete;

  int client() const { return client_; }

  /// Enqueues every dependency-free region; the rest self-schedule as
  /// their producers complete.
  void Start() {
    if (session_mode_) {
      std::lock_guard<std::mutex> lock(mutex_);
      round_running_ = true;  // the cold round is in flight from the start
    }
    // Snapshot the dependency-free set BEFORE submitting anything: once the
    // first region is enqueued, workers may complete it and schedule its
    // dependents concurrently, and reading pending_deps mid-loop would then
    // double-schedule a region that just hit zero.
    std::vector<int> ready;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i]->pending_deps.load(std::memory_order_acquire) == 0) {
        ready.push_back(static_cast<int>(i));
      }
    }
    for (int id : ready) ScheduleNodeById(id);
  }

  /// Blocks until every region completed (one-shot runs; session Finish).
  void WaitPlanDone() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return nodes_remaining_ == 0; });
  }

  // --- session controller API (resident workset iteration) ----------------

  /// Blocks until the in-flight round's wave terminated. On return no task
  /// of the resident iteration is scheduled, so the controller may read and
  /// reseed the resident state (the wait's mutex publishes the wave's
  /// writes; the next round's engine submits publish the controller's).
  void WaitRoundDone() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !round_running_; });
  }

  /// Like WaitRoundDone, but additionally waits until every region that can
  /// run before Finish has fully completed — its last unit has left
  /// NodeComplete. Required before destroying the schedule (Reconfigure's
  /// teardown): the resident wave can close the cold round while an
  /// upstream source's final unit is still between its dependent hand-off
  /// and the nodes_remaining_ decrement, and WaitRoundDone alone would let
  /// the destructor free the mutex under that thread.
  void WaitQuiesced() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] {
      return !round_running_ && nodes_remaining_ <= resident_pending_;
    });
  }

  /// Releases a warm round: the controller has reseeded W_0 and re-armed
  /// the coordinator; schedule the next superstep wave.
  void BeginRound() {
    SchedNode* node = nodes_[resident_node_].get();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      SFDF_CHECK(!round_running_) << "BeginRound while a round is in flight";
      round_running_ = true;
    }
    if (node->kind == SchedNode::Kind::kPoll) {
      // Barrier-free warm round: every partition restarts its local-round
      // loop from the reseeded W_0.
      SubmitPollUnits(node);
      return;
    }
    ScheduleWave(node);
  }

  /// Session shutdown: final-flush the resident iteration; its downstream
  /// regions then drain normally (WaitPlanDone observes the end).
  void BeginShutdown() { ScheduleFinalFlush(nodes_[resident_node_].get()); }

 private:
  TaskInstance* instance(int task_id, int p) {
    return instances_[static_cast<size_t>(task_id) * ctx_->parallelism + p]
        .get();
  }

  void BuildInstances() {
    const int P = ctx_->parallelism;
    instances_.resize(plan_->tasks.size() * static_cast<size_t>(P));
    for (const PhysicalTask& task : plan_->tasks) {
      if (task.workset_iteration >= 0 &&
          plan_->workset_iterations[task.workset_iteration].microstep &&
          IsLoopTask(task)) {
        continue;  // fused into the iteration's chain programs
      }
      if (ctx_->region_mode == RegionMode::kPipelined &&
          IsPipelinedTask(task)) {
        continue;  // runs as PipelinedInstance units (BuildPollUnits)
      }
      for (int p = 0; p < P; ++p) {
        instances_[static_cast<size_t>(task.id) * P + p] =
            std::make_unique<TaskInstance>(ctx_, &task, p);
      }
    }
  }

  void BuildNodes() {
    auto add_node = [&](SchedNode::Kind kind) {
      nodes_.push_back(std::make_unique<SchedNode>());
      nodes_.back()->kind = kind;
      return static_cast<int>(nodes_.size()) - 1;
    };
    std::vector<int> bulk_node(plan_->bulk_iterations.size(), -1);
    std::vector<int> ws_node(plan_->workset_iterations.size(), -1);
    for (size_t i = 0; i < plan_->bulk_iterations.size(); ++i) {
      int id = add_node(SchedNode::Kind::kWave);
      nodes_[id]->is_bulk = true;
      nodes_[id]->iteration = static_cast<int>(i);
      nodes_[id]->coordinator = ctx_->bulk[i]->coordinator.get();
      bulk_node[i] = id;
    }
    for (size_t i = 0; i < plan_->workset_iterations.size(); ++i) {
      int id = add_node(ctx_->workset[i]->coordinator->barrier_free()
                            ? SchedNode::Kind::kPoll
                            : SchedNode::Kind::kWave);
      nodes_[id]->iteration = static_cast<int>(i);
      nodes_[id]->coordinator = ctx_->workset[i]->coordinator.get();
      ws_node[i] = id;
    }
    node_of_task_.assign(plan_->tasks.size(), -1);
    for (const PhysicalTask& task : plan_->tasks) {
      if (IsLoopTask(task)) {
        node_of_task_[task.id] = task.bulk_iteration >= 0
                                     ? bulk_node[task.bulk_iteration]
                                     : ws_node[task.workset_iteration];
      } else {
        const bool pipelined = ctx_->region_mode == RegionMode::kPipelined &&
                               IsPipelinedTask(task);
        int id = add_node(pipelined ? SchedNode::Kind::kPoll
                                    : SchedNode::Kind::kTask);
        nodes_[id]->task_id = task.id;
        node_of_task_[task.id] = id;
      }
    }
    // Region dependencies: every exchange edge whose endpoints live in
    // different regions, deduplicated. A pipelined consumer registers NO
    // predecessors — its polling units start at Start() and park until
    // data arrives — but it still counts as a producer, so a breaker
    // downstream of it waits for its completion as before.
    std::vector<std::set<int>> preds(nodes_.size());
    for (const PhysicalTask& task : plan_->tasks) {
      const int b = node_of_task_[task.id];
      const bool pipelined =
          !IsLoopTask(task) && nodes_[b]->kind == SchedNode::Kind::kPoll;
      for (const PhysicalInput& input : task.inputs) {
        const int a = node_of_task_[input.producer];
        if (a != b && !pipelined) preds[b].insert(a);
      }
    }
    for (size_t b = 0; b < nodes_.size(); ++b) {
      nodes_[b]->pending_deps.store(static_cast<int>(preds[b].size()),
                                    std::memory_order_relaxed);
      for (int a : preds[b]) {
        nodes_[a]->dependents.push_back(static_cast<int>(b));
      }
    }
    nodes_remaining_ = static_cast<int>(nodes_.size());
    if (session_mode_) {
      resident_node_ = ws_node[0];
      nodes_[resident_node_]->session_resident = true;
      // Regions that cannot complete before Finish: the resident loop and
      // everything downstream of it (never released while the session
      // serves). Everything else must have fully completed — its last unit
      // out of NodeComplete — before the schedule may be torn down
      // (WaitQuiesced).
      std::vector<char> held(nodes_.size(), 0);
      std::vector<int> stack = {resident_node_};
      held[resident_node_] = 1;
      while (!stack.empty()) {
        const int id = stack.back();
        stack.pop_back();
        for (int dep : nodes_[id]->dependents) {
          if (!held[dep]) {
            held[dep] = 1;
            stack.push_back(dep);
          }
        }
      }
      for (char h : held) resident_pending_ += h;
    }
  }

  /// Builds a poll node's units, park slots and wake wiring. A loop node is
  /// built when it is first scheduled, on the pool worker that schedules
  /// it, as a wave builds its stages: building its task programs on the
  /// controller thread instead made cc-webbase-async jobs about 6% slower
  /// (4-vCPU Xeon, 10 alternating runs).
  void BuildPollUnits(SchedNode* node) {
    const int P = ctx_->parallelism;
    for (int p = 0; p < P; ++p) {
      node->park_slots.push_back(engine_->CreateParkSlot(client_));
    }
    if (node->task_id >= 0) {
      // Pipelined task, wake-on-publish: every Push into any input lane of
      // partition p's exchanges wakes unit p if parked (Exchange::Push
      // invokes the waker after the envelope is visible).
      const PhysicalTask& task = plan_->tasks[node->task_id];
      for (int p = 0; p < P; ++p) {
        node->units.push_back(
            std::make_unique<PipelinedInstance>(ctx_, &task, p));
        const uint64_t slot = node->park_slots[p];
        for (size_t port = 0; port < task.inputs.size(); ++port) {
          ctx_->channels[task.id][port][p]->set_consumer_waker(
              [this, slot] { engine_->Wake(slot); });
        }
      }
      return;
    }
    // Barrier-free workset iteration: the feedback ports' credit hooks and
    // the round units' peer wakes reach a partition through its runtime.
    WorksetRuntime* rt = ctx_->workset[node->iteration].get();
    rt->wake = [this, node](int target) {
      engine_->Wake(node->park_slots[static_cast<size_t>(target)]);
    };
    if (plan_->workset_iterations[node->iteration].microstep) {
      BuildChainStage(node);
    } else {
      BuildWave(node);
    }
    // Stages outer, partitions inner: each partition's pipeline stays in
    // stage order.
    std::vector<std::vector<LoopUnit*>> pipelines(P);
    for (auto& stage : node->stages) {
      for (LoopUnit& unit : stage) {
        pipelines[unit.partition].push_back(&unit);
        if (unit.instance != nullptr) unit.instance->InstallAsyncHooks();
      }
    }
    for (int p = 0; p < P; ++p) {
      node->units.push_back(
          std::make_unique<AsyncRoundUnit>(rt, p, std::move(pipelines[p])));
    }
  }

  /// A microstep iteration's one stage: per partition, the fused chain of
  /// its dynamic body tasks in dataflow order, starting from the head's
  /// unique consumer.
  void BuildChainStage(SchedNode* node) {
    const PhysicalWorksetIteration& spec =
        plan_->workset_iterations[node->iteration];
    std::vector<const PhysicalTask*> chain;
    int cursor = -1;
    for (const auto& [consumer, port] : ctx_->consumer_edges[spec.head_task]) {
      (void)port;
      if (ctx_->task(consumer).role != TaskRole::kWorksetTail) {
        cursor = consumer;
      }
    }
    while (cursor >= 0) {
      const PhysicalTask& task = ctx_->task(cursor);
      chain.push_back(&task);
      int next = -1;
      for (const auto& [consumer, port] : ctx_->consumer_edges[cursor]) {
        (void)port;
        const PhysicalTask& c = ctx_->task(consumer);
        if (c.role == TaskRole::kRegular && IsLoopTask(c)) next = consumer;
        if (c.role == TaskRole::kSolutionJoin) next = consumer;
      }
      cursor = next;
    }
    WorksetRuntime* rt = ctx_->workset[node->iteration].get();
    const PhysicalTask* head = &ctx_->task(spec.head_task);
    const PhysicalTask* delta_apply = &ctx_->task(spec.delta_apply_task);
    node->stages.assign(1, {});
    for (int p = 0; p < ctx_->parallelism; ++p) {
      auto fused = std::make_shared<FusedChain>(ctx_, rt, p, chain, head,
                                                delta_apply);
      Program program;
      program.body = [fused](int64_t round) { fused->Round(round); };
      program.final_flush = [fused] { fused->EmitResult(); };
      node->stages[0].push_back(LoopUnit{nullptr, p, std::move(program)});
    }
  }

  void ScheduleNodeById(int id) {
    SchedNode* node = nodes_[id].get();
    const int P = ctx_->parallelism;
    switch (node->kind) {
      case SchedNode::Kind::kTask: {
        node->units_remaining.store(P, std::memory_order_relaxed);
        for (int p = 0; p < P; ++p) {
          TaskInstance* inst = instance(node->task_id, p);
          engine_->Submit(client_, [this, node, inst] {
            inst->RunOnce();
            if (node->units_remaining.fetch_sub(
                    1, std::memory_order_acq_rel) == 1) {
              NodeComplete(node);
            }
          });
        }
        break;
      }
      case SchedNode::Kind::kWave:
        BuildWave(node);
        ScheduleWave(node);
        break;
      case SchedNode::Kind::kPoll:
        if (node->task_id < 0) BuildPollUnits(node);  // loop node
        SubmitPollUnits(node);
        break;
    }
  }

  /// Groups the iteration's loop units into stages by in-loop dataflow
  /// depth and creates their resumable programs (whose closures then hold
  /// all cross-superstep state).
  void BuildWave(SchedNode* node) {
    const int P = ctx_->parallelism;
    std::vector<const PhysicalTask*> members;
    for (const PhysicalTask& task : plan_->tasks) {
      if (!IsLoopTask(task)) continue;
      if (node->is_bulk ? task.bulk_iteration == node->iteration
                        : task.workset_iteration == node->iteration) {
        members.push_back(&task);
      }
    }
    // In-loop depth: 1 + max over in-loop producers; heads (no in-loop
    // input) sit at 0. Relax to fixpoint — loop bodies are tiny DAGs.
    std::vector<int> depth(plan_->tasks.size(), 0);
    bool changed = true;
    while (changed) {
      changed = false;
      for (const PhysicalTask* task : members) {
        int want = 0;
        for (const PhysicalInput& input : task->inputs) {
          const PhysicalTask& producer = plan_->tasks[input.producer];
          if (IsLoopTask(producer) && SameLoop(producer, *task)) {
            want = std::max(want, depth[producer.id] + 1);
          }
        }
        if (want != depth[task->id]) {
          depth[task->id] = want;
          changed = true;
        }
      }
    }
    int max_depth = 0;
    for (const PhysicalTask* task : members) {
      max_depth = std::max(max_depth, depth[task->id]);
    }
    node->stages.assign(static_cast<size_t>(max_depth) + 1, {});
    for (const PhysicalTask* task : members) {
      for (int p = 0; p < P; ++p) {
        TaskInstance* inst = instance(task->id, p);
        node->stages[depth[task->id]].push_back(
            LoopUnit{inst, p, inst->MakeProgram()});
      }
    }
    node->stage_remaining.clear();
    int total = 0;
    for (const auto& stage : node->stages) {
      node->stage_remaining.push_back(std::make_unique<std::atomic<int>>(0));
      total += static_cast<int>(stage.size());
    }
    SFDF_CHECK(total == node->coordinator->num_participants())
        << "wave units out of sync with the coordinator's participants";
  }

  /// Enqueues one superstep: stage 0 now, later stages as their
  /// predecessors drain, everyone through the arrival gate at the end.
  void ScheduleWave(SchedNode* node) {
    node->wave_start_ns = trace::NowNs();
    const int64_t superstep = node->coordinator->superstep();
    for (size_t k = 0; k < node->stages.size(); ++k) {
      node->stage_remaining[k]->store(static_cast<int>(node->stages[k].size()),
                                      std::memory_order_relaxed);
    }
    SubmitStage(node, 0, superstep);
  }

  void SubmitStage(SchedNode* node, size_t stage, int64_t superstep) {
    for (LoopUnit& ref : node->stages[stage]) {
      LoopUnit* unit = &ref;
      engine_->Submit(client_, [this, node, unit, stage, superstep] {
        unit->program.body(superstep);
        OnLoopUnitDone(node, stage, superstep);
      });
    }
  }

  void OnLoopUnitDone(SchedNode* node, size_t stage, int64_t superstep) {
    // Arrival gate (superstep.h): every participant arrives exactly once
    // per wave; the completion step (termination decide + phase flip) runs
    // inside the last arrival, which can only happen in the final stage.
    // A final-stage arrival that does not close the wave must not touch
    // the node afterwards: the closing arrival may already have run the
    // iteration to completion and let the schedule be destroyed.
    const bool final_stage = stage + 1 == node->stages.size();
    const bool wave_closed = node->coordinator->Arrive();
    if (!final_stage) {
      SFDF_DCHECK(!wave_closed);
      if (node->stage_remaining[stage]->fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        SubmitStage(node, stage + 1, superstep);
      }
      return;
    }
    if (!wave_closed) return;
    static const uint16_t kWave = trace::RegisterName("superstep.wave");
    trace::EmitSpan(kWave, node->wave_start_ns, superstep);
    if (!node->coordinator->terminated()) {
      ScheduleWave(node);  // next superstep's task wave
      return;
    }
    if (node->session_resident) {
      // Round boundary: hand control to the session controller. Nothing of
      // this iteration stays scheduled — the session now costs no worker
      // time until RunRound releases the next wave or Finish flushes.
      std::lock_guard<std::mutex> lock(mutex_);
      round_running_ = false;
      cv_.notify_all();
      return;
    }
    ScheduleFinalFlush(node);
  }

  void ScheduleFinalFlush(SchedNode* node) {
    int total = 0;
    for (const auto& stage : node->stages) {
      total += static_cast<int>(stage.size());
    }
    node->flush_remaining.store(total, std::memory_order_relaxed);
    for (auto& stage : node->stages) {
      for (LoopUnit& ref : stage) {
        LoopUnit* unit = &ref;
        engine_->Submit(client_, [this, node, unit] {
          unit->program.final_flush();
          if (node->flush_remaining.fetch_sub(
                  1, std::memory_order_acq_rel) == 1) {
            NodeComplete(node);
          }
        });
      }
    }
  }

  // --- the poll driver (kPoll) ---------------------------------------------
  //
  // Exactly one continuation per unit is ever pending — a resubmit, a park,
  // or nothing after kDone — so each unit finishes at most once per round.

  /// Starts every unit of a poll node (again, for a barrier-free
  /// iteration's warm round).
  void SubmitPollUnits(SchedNode* node) {
    node->units_remaining.store(static_cast<int>(node->units.size()),
                                std::memory_order_relaxed);
    for (auto& unit : node->units) SubmitPoll(node, unit.get());
  }

  void SubmitPoll(SchedNode* node, PollUnit* unit) {
    engine_->Submit(client_, [this, node, unit] { RunPoll(node, unit); });
  }

  void RunPoll(SchedNode* node, PollUnit* unit) {
    switch (unit->Step()) {
      case PollStatus::kWorked:
        SubmitPoll(node, unit);  // cooperative re-enqueue
        return;
      case PollStatus::kYield:
        // Backpressured: re-enqueue rather than park — the per-client FIFO
        // places this retry behind the consumer's already-queued poll.
        ctx_->metrics.CountProducerYield(1);
        SubmitPoll(node, unit);
        return;
      case PollStatus::kIdle:
        // A wake that raced this decision is pending inside the slot and
        // re-enqueues immediately.
        engine_->Park(node->park_slots[unit->partition()],
                      [this, node, unit] { RunPoll(node, unit); });
        return;
      case PollStatus::kDone:
        if (node->units_remaining.fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
          OnPollUnitsDone(node);
        }
        return;
    }
  }

  /// Runs in the poll node's last unit out (every peer's writes are ordered
  /// before it by the acq_rel countdown).
  void OnPollUnitsDone(SchedNode* node) {
    if (node->task_id >= 0) {
      NodeComplete(node);  // pipelined task
      return;
    }
    // Barrier-free iteration: the round ended; fill its report.
    WorksetRuntime& rt = *ctx_->workset[node->iteration];
    SuperstepCoordinator* co = rt.coordinator.get();
    rt.report.iterations = static_cast<int>(co->RoundLocalRounds());
    rt.report.converged = !co->capped();
    rt.report.vote_revocations = co->RoundRevocations();
    rt.report.max_staleness = co->max_staleness();
    if (node->session_resident) {
      std::lock_guard<std::mutex> lock(mutex_);
      round_running_ = false;
      cv_.notify_all();
      return;
    }
    ScheduleFinalFlush(node);
  }

  void NodeComplete(SchedNode* node) {
    for (int dep : node->dependents) {
      SchedNode* d = nodes_[dep].get();
      if (d->pending_deps.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        ScheduleNodeById(dep);
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    --nodes_remaining_;
    // WaitPlanDone waits for 0, WaitQuiesced (a session) for the resident
    // regions alone: a non-resident region can complete after the cold
    // round ended, and its waiter must hear about it.
    if (nodes_remaining_ <= resident_pending_) cv_.notify_all();
  }

  const PhysicalPlan* plan_;
  ExecContext* ctx_;
  Engine* engine_;
  int client_ = -1;
  const bool session_mode_;
  int resident_node_ = -1;

  /// instances_[task * P + p]; null for loop tasks fused into a chain.
  std::vector<std::unique_ptr<TaskInstance>> instances_;
  std::vector<std::unique_ptr<SchedNode>> nodes_;
  std::vector<int> node_of_task_;

  std::mutex mutex_;
  std::condition_variable cv_;
  int nodes_remaining_ = 0;
  /// Nodes held incomplete while the session is resident (the loop and its
  /// downstream regions); WaitQuiesced waits for everything else.
  int resident_pending_ = 0;
  bool round_running_ = false;
};

/// Engine selection: an externally owned engine (multi-tenant host) wins,
/// then a private per-run pool (worker_threads > 0, the "dedicated team"
/// baseline), then the process-wide shared default.
struct EngineRef {
  Engine* engine = nullptr;
  std::unique_ptr<Engine> owned;
};

EngineRef ResolveEngine(const ExecutionOptions& options) {
  EngineRef ref;
  if (options.engine != nullptr) {
    ref.engine = options.engine;
    return ref;
  }
  if (options.worker_threads > 0) {
    ref.owned = std::make_unique<Engine>(
        Engine::Options{.workers = options.worker_threads});
    ref.engine = ref.owned.get();
    return ref;
  }
  ref.engine = &Engine::Default();
  return ref;
}

}  // namespace executor_detail

using namespace executor_detail;  // NOLINT — single-TU detail namespace

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

Executor::Executor(ExecutionOptions options) : options_(std::move(options)) {}

Result<ExecutionResult> Executor::Run(const PhysicalPlan& plan) {
  SFDF_RETURN_NOT_OK(ValidateExecutionOptions(options_));
  SFDF_RETURN_NOT_OK(ValidateSyncMode(plan, options_));
  if (options_.trace) trace::SetEnabled(true);
  const int P =
      options_.parallelism > 0 ? options_.parallelism : DefaultParallelism();

  ExecContext ctx;
  SFDF_RETURN_NOT_OK(SetupContext(plan, options_, P, &ctx));
  EngineRef engine = ResolveEngine(options_);

  Stopwatch total_watch;
  ExecutionResult result;
  {
    PlanSchedule schedule(&plan, &ctx, engine.engine, "run",
                          /*session_mode=*/false);
    schedule.Start();
    schedule.WaitPlanDone();
    const Engine::ClientStats stats =
        engine.engine->client_stats(schedule.client());
    result = AssembleResult(plan, &ctx, total_watch.ElapsedMillis());
    result.engine_tasks = stats.tasks_run;
    result.engine_queue_wait_ns_total = stats.queue_wait_ns_total;
    result.engine_queue_wait_ns_max = stats.queue_wait_ns_max;
    result.engine_parks = stats.tasks_parked;
    result.engine_wakes = stats.tasks_woken;
    result.engine_workers = engine.engine->workers();
  }
  return result;
}

// ---------------------------------------------------------------------------
// Session mode (resident iterations; see src/service/)
// ---------------------------------------------------------------------------

/// The resident half of a session: the full execution context plus the
/// schedule whose resident iteration waits between rounds with nothing
/// enqueued. Lives until Finish. Destruction order matters: the schedule
/// (task instances, output ports) dies before the context it references,
/// and the owned engine — whose workers may still be parked — outlives
/// both (members are destroyed in reverse declaration order). The context
/// and schedule are the session's swappable "runtime skeleton": Reconfigure
/// replaces both while the session object — and everything cumulative in
/// it — stays alive, which is what decouples plan wiring from session
/// lifetime.
struct SessionState {
  const PhysicalPlan* plan = nullptr;
  /// The options the session started with; Reconfigure re-derives each new
  /// skeleton from them with only the parallelism swapped.
  ExecutionOptions options;
  std::unique_ptr<Engine> owned_engine;
  Engine* engine = nullptr;
  std::unique_ptr<ExecContext> ctx;
  std::unique_ptr<PlanSchedule> schedule;
  Stopwatch total_watch;
  IterationReport initial_report;
  bool finished = false;

  /// Totals banked from skeletons torn down by Reconfigure. The live
  /// ctx/engine-client only covers the newest skeleton; Finish() and
  /// engine_stats() fold these in so session-lifetime counters survive a
  /// remap. Deliberately NOT seeded into the new ctx's Metrics: the new
  /// WorksetRuntime's per-round marks start at zero against it.
  int64_t carried_shipped = 0;
  int64_t carried_remote = 0;
  int64_t carried_bytes = 0;
  int64_t carried_combined = 0;
  int64_t carried_queue_depth_high_water = 0;
  int64_t carried_pool_hits = 0;
  int64_t carried_pool_misses = 0;
  int64_t carried_peak_resident_segments = 0;
  Engine::ClientStats carried_engine;

  WorksetRuntime& runtime() { return *ctx->workset[0]; }
  const WorksetRuntime& runtime() const { return *ctx->workset[0]; }
};

Result<std::unique_ptr<ExecutionSession>> Executor::StartSession(
    const PhysicalPlan& plan) {
  SFDF_RETURN_NOT_OK(ValidateExecutionOptions(options_));
  SFDF_RETURN_NOT_OK(ValidateSyncMode(plan, options_));
  if (options_.region_mode == RegionMode::kPipelined) {
    return Status::Unsupported(
        "session mode requires region_mode materialize — the resident "
        "round/shutdown protocol assumes downstream regions stay "
        "unscheduled between rounds, which always-live pipelined polling "
        "units would violate");
  }
  if (plan.workset_iterations.size() != 1 || !plan.bulk_iterations.empty()) {
    return Status::InvalidArgument(
        "session mode requires exactly one workset iteration and no bulk "
        "iterations");
  }
  if (plan.workset_iterations[0].microstep) {
    return Status::Unsupported(
        "session mode requires superstep execution — a microstep plan has "
        "no superstep boundary to park rounds at");
  }
  if (options_.trace) trace::SetEnabled(true);
  const int P =
      options_.parallelism > 0 ? options_.parallelism : DefaultParallelism();

  auto state = std::make_unique<SessionState>();
  state->plan = &plan;
  state->options = options_;
  state->ctx = std::make_unique<ExecContext>();
  SFDF_RETURN_NOT_OK(SetupContext(plan, options_, P, state->ctx.get()));
  EngineRef engine = ResolveEngine(options_);
  state->owned_engine = std::move(engine.owned);
  state->engine = engine.engine;

  state->schedule = std::make_unique<PlanSchedule>(
      &plan, state->ctx.get(), state->engine, "session",
      /*session_mode=*/true);

  // The cold round (full initial convergence) starts immediately; hand the
  // session back once its wave terminated — from then on the session has
  // nothing enqueued until the next RunRound.
  state->schedule->Start();
  state->schedule->WaitRoundDone();
  state->initial_report = state->runtime().report;
  return std::unique_ptr<ExecutionSession>(
      new ExecutionSession(std::move(state)));
}

ExecutionSession::ExecutionSession(std::unique_ptr<SessionState> state)
    : state_(std::move(state)) {}

ExecutionSession::~ExecutionSession() {
  if (state_ != nullptr && !state_->finished) {
    auto ignored = Finish();
    (void)ignored;
  }
}

const IterationReport& ExecutionSession::initial_report() const {
  return state_->initial_report;
}

int ExecutionSession::parallelism() const { return state_->ctx->parallelism; }

SolutionSetIndex* ExecutionSession::solution_partition(int p) {
  return state_->runtime().index[p].get();
}

int ExecutionSession::PartitionOfSolution(const Record& probe) const {
  return PartitionOf(probe, state_->runtime().solution_key,
                     state_->ctx->parallelism);
}

const KeySpec& ExecutionSession::solution_key() const {
  return state_->runtime().solution_key;
}

void ExecutionSession::ForEachSolution(
    const std::function<void(const Record&)>& fn) const {
  for (const auto& index : state_->runtime().index) index->ForEach(fn);
}

Engine::ClientStats ExecutionSession::engine_stats() const {
  Engine::ClientStats stats = state_->carried_engine;
  if (state_->schedule != nullptr) {
    const Engine::ClientStats live =
        state_->engine->client_stats(state_->schedule->client());
    stats.tasks_run += live.tasks_run;
    stats.queue_wait_ns_total += live.queue_wait_ns_total;
    stats.queue_wait_ns_max =
        std::max(stats.queue_wait_ns_max, live.queue_wait_ns_max);
    stats.tasks_parked += live.tasks_parked;
    stats.tasks_woken += live.tasks_woken;
  }
  return stats;
}

int ExecutionSession::engine_workers() const {
  return state_->engine->workers();
}

Result<IterationReport> ExecutionSession::RunRound(
    std::vector<Record> workset) {
  SessionState& s = *state_;
  if (s.finished) {
    return Status::InvalidArgument("RunRound on a finished session");
  }
  WorksetRuntime& rt = s.runtime();
  const PhysicalWorksetIteration& spec = s.plan->workset_iterations[0];
  const int head_task = spec.head_task;
  const int P = s.ctx->parallelism;

  // The previous round's wave terminated before its RunRound returned (and
  // StartSession waited out the cold round), so no task of the resident
  // iteration is scheduled: the controller owns the resident state.
  s.schedule->WaitRoundDone();

  // Fresh per-round report; the *_mark counters deliberately survive — they
  // are absolute marks against the cumulative session metrics.
  rt.report = IterationReport{};
  for (auto& part : rt.parts) part->w0_pending = true;
  if (rt.coordinator->barrier_free()) {
    // Barrier-free re-arm: fresh termination/vote state and one startup
    // credit per partition (returned when it finishes its first local
    // round of this service round). Leftover queued work from a capped
    // previous round kept its credits and simply continues. Local-round
    // bases snapshot here so the per-round iteration cap and the round's
    // local-round report count only this round's work.
    rt.report.ran_async = true;
    rt.coordinator->RearmBarrierFree();
  } else {
    rt.round_start_superstep = rt.coordinator->superstep();
    rt.coordinator->Rearm();
  }
  rt.watch.Restart();

  // Route the seed workset into the head's external W_0 port, partitioned
  // exactly like the runtime's own hash exchanges. If the previous round
  // stopped at the iteration cap with work left in the feedback lanes, that
  // work simply continues in this round alongside the new seeds. Seed batches
  // are cut from each port's lane-0 pool (the controller acts as that
  // lane's producer between rounds; Reset below provides the acquire edge
  // first), so the buffers the head recycled after draining the previous
  // round's seed come back here instead of piling up unread — a resident
  // session's seeding allocates nothing in steady state.
  std::vector<RecordBatch> seeds;
  seeds.reserve(P);
  for (int p = 0; p < P; ++p) {
    Exchange* port = s.ctx->channels[head_task][0][p].get();
    // The head drained the previous seed (data + markers) at the last
    // round's first superstep; anything still queued in ANY lane would
    // break the per-lane marker accounting of the phase about to start.
    // Reset scans every lane, so this asserts all of them drained.
    SFDF_CHECK(port->Reset() == 0)
        << "W_0 port of partition " << p << " not drained between rounds";
    seeds.push_back(port->AcquireBatch(0));
  }
  const int64_t seed_count = static_cast<int64_t>(workset.size());
  for (const Record& rec : workset) {
    seeds[PartitionOf(rec, rt.route_key, P)].Add(rec);
  }
  for (int p = 0; p < P; ++p) {
    s.ctx->channels[head_task][0][p]->Seed(std::move(seeds[p]));
  }
  s.ctx->metrics.CountShipped(seed_count, seed_count * sizeof(Record),
                              /*remote_records=*/0);

  // Release the round's first wave, then wait for its fixpoint. The engine
  // submit path publishes every controller write above to the wave tasks.
  s.schedule->BeginRound();
  s.schedule->WaitRoundDone();
  return rt.report;
}

Result<ExecutionResult> ExecutionSession::Finish() {
  SessionState& s = *state_;
  if (s.finished) {
    return Status::InvalidArgument("session already finished");
  }
  // The final-flush tasks ship the converged solution set downstream, the
  // sinks fill, and every remaining plan region drains.
  s.schedule->WaitRoundDone();
  s.schedule->BeginShutdown();
  s.schedule->WaitPlanDone();
  const Engine::ClientStats stats =
      s.engine->client_stats(s.schedule->client());
  s.schedule.reset();  // unregisters the engine client
  s.finished = true;
  ExecutionResult result =
      AssembleResult(*s.plan, s.ctx.get(), s.total_watch.ElapsedMillis());
  // Fold in the totals of skeletons Reconfigure tore down earlier, so the
  // session-lifetime statistics cover every width the session ran at.
  result.records_shipped += s.carried_shipped;
  result.records_remote += s.carried_remote;
  result.bytes_shipped += s.carried_bytes;
  result.records_combined += s.carried_combined;
  result.queue_depth_high_water = std::max(result.queue_depth_high_water,
                                           s.carried_queue_depth_high_water);
  result.batch_pool_hits += s.carried_pool_hits;
  result.batch_pool_misses += s.carried_pool_misses;
  result.peak_resident_segments += s.carried_peak_resident_segments;
  result.engine_tasks = stats.tasks_run + s.carried_engine.tasks_run;
  result.engine_queue_wait_ns_total =
      stats.queue_wait_ns_total + s.carried_engine.queue_wait_ns_total;
  result.engine_queue_wait_ns_max =
      std::max(stats.queue_wait_ns_max, s.carried_engine.queue_wait_ns_max);
  result.engine_parks = stats.tasks_parked + s.carried_engine.tasks_parked;
  result.engine_wakes = stats.tasks_woken + s.carried_engine.tasks_woken;
  result.engine_workers = s.engine->workers();
  return result;
}

Result<IterationReport> ExecutionSession::Reconfigure(int new_partitions,
                                                      Engine* new_engine) {
  SessionState& s = *state_;
  if (s.finished) {
    return Status::InvalidArgument("Reconfigure on a finished session");
  }
  if (new_partitions < 0) {
    return Status::InvalidArgument(
        "Reconfigure new_partitions must be >= 0 (0 = keep current), got " +
        std::to_string(new_partitions));
  }
  const PhysicalWorksetIteration& spec = s.plan->workset_iterations[0];
  const PhysicalTask& head = s.plan->tasks[spec.head_task];
  const int w0_src = head.inputs[0].producer;
  const PhysicalTask& join = s.plan->tasks[spec.solution_join_task];
  const int s0_src = join.inputs[join.solution_side].producer;
  if (s.plan->tasks[w0_src].kind != OperatorKind::kSource ||
      s.plan->tasks[s0_src].kind != OperatorKind::kSource) {
    return Status::Unsupported(
        "Reconfigure requires the initial workset and initial solution to "
        "enter the iteration through Source tasks — the warm state re-enters "
        "the rebuilt skeleton through them");
  }
  const int new_p = new_partitions > 0 ? new_partitions : s.ctx->parallelism;

  // Quiesce at the committed round boundary: after WaitQuiesced no task of
  // the resident iteration is scheduled, every one-shot upstream region has
  // fully completed, and every lane is drained up to its end-of-round
  // markers — the controller owns the resident state and the skeleton may
  // be torn down.
  static const uint16_t kQuiesce =
      trace::RegisterName("reconfigure.quiesce");
  const int64_t quiesce_start = trace::NowNs();
  s.schedule->WaitQuiesced();
  trace::EmitSpan(kQuiesce, quiesce_start, new_p);
  WorksetRuntime& rt = s.runtime();

  if (rt.coordinator->barrier_free() && !rt.coordinator->Quiescent()) {
    // A capped barrier-free round parks with records mid-pipeline: queued
    // batches in in-loop lanes carry intermediate schemas, not reseedable
    // workset records (unlike the superstep path, where the barrier
    // guarantees leftovers live only in the feedback lanes). The
    // remap would need a drain-to-fixpoint protocol first; require the
    // caller to run the round to convergence instead.
    return Status::Unsupported(
        "Reconfigure after a capped barrier-free round: in-flight records "
        "are mid-pipeline and cannot be reseeded — run a round to "
        "convergence first (async leftovers salvage only at quiescence)");
  }

  // Extract the warm state. The feedback lanes hold data only when the
  // round stopped at the iteration cap — that leftover workset continues
  // after the remap; otherwise they hold nothing but the last superstep's
  // markers.
  static const uint16_t kRemap = trace::RegisterName("reconfigure.remap");
  const int64_t remap_start = trace::NowNs();
  std::vector<Record> solution;
  int64_t total = 0;
  for (const auto& index : rt.index) total += index->size();
  solution.reserve(static_cast<size_t>(total));
  for (const auto& index : rt.index) {
    index->ForEach([&](const Record& rec) { solution.push_back(rec); });
  }
  std::vector<Record> leftover;
  for (auto& feedback : rt.feedback) feedback->DrainTo(&leftover);

  // Bank the dying skeleton's cumulative statistics: fold its exchange
  // stats into its metrics (the pass AssembleResult runs after a drain is
  // equally exact here — nothing of this skeleton runs anymore), then
  // carry the totals for Finish()/engine_stats().
  FoldExchangeStats(s.ctx.get());
  s.carried_shipped += s.ctx->metrics.records_shipped();
  s.carried_remote += s.ctx->metrics.records_remote();
  s.carried_bytes += s.ctx->metrics.bytes_shipped();
  s.carried_combined += s.ctx->metrics.records_combined();
  s.carried_queue_depth_high_water =
      std::max(s.carried_queue_depth_high_water,
               s.ctx->metrics.queue_depth_high_water());
  s.carried_pool_hits += s.ctx->metrics.batch_pool_hits();
  s.carried_pool_misses += s.ctx->metrics.batch_pool_misses();
  s.carried_peak_resident_segments += s.ctx->metrics.peak_resident_segments();
  const Engine::ClientStats old_client =
      s.engine->client_stats(s.schedule->client());
  s.carried_engine.tasks_run += old_client.tasks_run;
  s.carried_engine.queue_wait_ns_total += old_client.queue_wait_ns_total;
  s.carried_engine.queue_wait_ns_max = std::max(
      s.carried_engine.queue_wait_ns_max, old_client.queue_wait_ns_max);
  s.carried_engine.tasks_parked += old_client.tasks_parked;
  s.carried_engine.tasks_woken += old_client.tasks_woken;

  // Tear the old skeleton down without a shutdown flush: the round is done
  // (no wave task scheduled), the upstream one-shot regions completed at
  // Start, and the downstream regions were never released — the engine
  // client's queue is empty, which is all ~PlanSchedule requires.
  s.schedule.reset();
  s.ctx.reset();
  if (new_engine != nullptr && new_engine != s.engine) {
    // Engine move: an engine the session owned dies with its old skeleton
    // (its workers are idle — nothing is queued on them anymore).
    s.engine = new_engine;
    s.owned_engine.reset();
  }

  // Rebuild at the new width. From here on a failure leaves the session
  // without a usable skeleton — fail it rather than limp half-built.
  ExecutionOptions options = s.options;
  options.parallelism = new_p;
  s.ctx = std::make_unique<ExecContext>();
  Status setup = SetupContext(*s.plan, options, new_p, s.ctx.get());
  if (!setup.ok()) {
    s.finished = true;
    return setup;
  }
  // The warm state re-enters through the plan's own entry sources: the
  // rebuilt hash exchanges re-route every record with PartitionOf under
  // the new width, so shard placement is re-derived by exactly the law
  // point reads use — no explicit shard-moving pass.
  s.ctx->source_override[s0_src] = std::move(solution);
  s.ctx->source_override[w0_src] = std::move(leftover);
  s.schedule = std::make_unique<PlanSchedule>(
      s.plan, s.ctx.get(), s.engine, "session", /*session_mode=*/true);
  trace::EmitSpan(kRemap, remap_start, new_p);

  // The resume round: the rebuilt coordinator restarts at superstep 0, so
  // every §4.3 constant-path cache and the solution index rebuild exactly
  // where a cold skeleton builds them. With no leftover workset the round
  // converges after the single barrier superstep (produced == 0).
  static const uint16_t kResume = trace::RegisterName("reconfigure.resume");
  const int64_t resume_start = trace::NowNs();
  s.schedule->Start();
  s.schedule->WaitRoundDone();
  trace::EmitSpan(kResume, resume_start, new_p);
  return s.runtime().report;
}

}  // namespace sfdf
