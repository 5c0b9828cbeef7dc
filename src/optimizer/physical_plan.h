// Physical plans: the optimizer's output, the executor's input.
//
// A physical plan is a DAG of tasks. Each logical operator becomes one task;
// iteration constructs additionally expand into head/tail/apply tasks that
// implement the feedback-channel execution of Sections 4.2 and 5.3:
//
//   Bulk:     BulkHead ──▶ body ──▶ BulkTail ─(feedback buffer)─▶ BulkHead
//                                └─▶ TermSink (T criterion)
//   Workset:  WorksetHead ──▶ ∆ body ──▶ DeltaApply (S ∪̇ D)
//                                   └──▶ WorksetTail ─(feedback exchange)─▶
//                                                               WorksetHead
//
// The workset feedback exchange is the runtime's own wiring, not a plan
// input: one exchange per head partition, hash-partitioned on the workset
// route key, delimited per superstep by the tails' end-of-superstep markers
// (or credit-counted, in barrier-free and microstep loops).
//
// The executor instantiates every task once per partition and connects them
// with channels according to each input's ShipStrategy.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dataflow/plan.h"
#include "optimizer/properties.h"
#include "optimizer/strategies.h"

namespace sfdf {

/// Special runtime roles of tasks created by iteration expansion.
enum class TaskRole {
  kRegular,
  kBulkHead,      ///< emits S_i into the body each superstep
  kBulkTail,      ///< collects O into the next-S buffer; emits final result
  kTermSink,      ///< counts T-criterion records (bulk iterations)
  kWorksetHead,   ///< emits W_0, then W_i from its feedback exchange
  kWorksetTail,   ///< routes W_{i+1} into the heads' feedback exchanges
  kDeltaApply,    ///< merges D into the solution set via ∪̇; emits final S
  kSolutionJoin,  ///< body join/cogroup merged with the S index (§5.3)
};

std::string_view TaskRoleName(TaskRole role);

/// One input edge of a physical task.
struct PhysicalInput {
  int producer = -1;  ///< producing task id
  ShipStrategy ship = ShipStrategy::kForward;
  KeySpec ship_key;        ///< for kHashPartition
  bool constant_path = false;  ///< carries loop-invariant data (§4.1)
  /// Cache the materialized form of this input across supersteps (§4.3).
  /// Set on constant-path inputs of dynamic-path operators. When false on a
  /// constant-path edge (ablation), raw records are retained but derived
  /// structures (hash tables) are rebuilt every superstep.
  bool cached = false;
  /// Sort the cached input by this key (establishes an interesting property
  /// on the constant path — the Figure 4 cache "partitioned and sorted").
  KeySpec cache_sort_key;
  /// Combiner applied in the router before shipping (chained pre-aggregation).
  /// Set only on a kHashPartition edge; it folds records equal on ship_key.
  CombineFn combiner;
};

/// One physical task (operator instance template; the executor clones it per
/// partition).
struct PhysicalTask {
  int id = -1;
  OperatorKind kind = OperatorKind::kMap;
  TaskRole role = TaskRole::kRegular;
  std::string name;
  NodeId logical_node = kInvalidNode;

  KeySpec key_left;
  KeySpec key_right;
  MapUdf map_udf;
  FilterUdf filter_udf;
  ReduceUdf reduce_udf;
  MatchUdf match_udf;
  CoGroupUdf cogroup_udf;

  std::shared_ptr<std::vector<Record>> source_data;
  std::vector<Record>* sink_out = nullptr;

  LocalStrategy local = LocalStrategy::kNone;
  std::vector<PhysicalInput> inputs;

  /// Reduce only: the input arrives sorted by the grouping key (single
  /// forward producer), so the driver skips its sort.
  bool input_presorted = false;

  /// Iteration membership: index into PhysicalPlan::bulk_iterations /
  /// workset_iterations; -1 for non-iterative tasks.
  int bulk_iteration = -1;
  int workset_iteration = -1;
  bool on_dynamic_path = false;

  /// For kSolutionJoin: which input (0/1) is the solution set side.
  int solution_side = -1;

  /// Properties the optimizer determined for this task's output.
  PhysProps output_props;
};

/// Physical counterpart of BulkIterationSpec.
struct PhysicalBulkIteration {
  int head_task = -1;
  int tail_task = -1;
  int term_sink_task = -1;  ///< -1: fixed iteration count
  int max_iterations = 20;
  KeySpec solution_key;
};

/// Physical counterpart of WorksetIterationSpec.
struct PhysicalWorksetIteration {
  int head_task = -1;
  int tail_task = -1;
  int delta_apply_task = -1;
  int solution_join_task = -1;
  /// Key of W records used to route them to head partitions (must equal the
  /// probe key of the solution join so probes stay partition-local).
  KeySpec workset_route_key;
  KeySpec solution_key;
  RecordOrder comparator;
  /// True: run asynchronous microsteps (fused pipeline, no barrier).
  bool microstep = false;
  /// True: delta records may be applied to S immediately (the §5.3 locality
  /// conditions hold); otherwise they are buffered until superstep end.
  bool immediate_apply = false;
  /// Solution set index structure, derived from the join's local strategy.
  bool use_btree_index = false;
  int max_iterations = 1000000;
};

/// The full physical plan.
struct PhysicalPlan {
  std::vector<PhysicalTask> tasks;
  std::vector<PhysicalBulkIteration> bulk_iterations;
  std::vector<PhysicalWorksetIteration> workset_iterations;
  /// Degree of parallelism the plan was compiled for.
  int parallelism = 1;
  /// Total estimated cost (optimizer's objective; exposed for tests/EXPLAIN).
  double estimated_cost = 0;

  std::string ToString() const;
};

}  // namespace sfdf
