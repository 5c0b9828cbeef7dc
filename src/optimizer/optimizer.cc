#include "optimizer/optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/env.h"
#include "common/logging.h"
#include "core/microstep_analysis.h"

namespace sfdf {

namespace {

// Cost-model constants (relative units per record).
constexpr double kShipHash = 1.0;
constexpr double kShipBroadcastPerCopy = 1.0;
constexpr double kHashBuild = 0.5;
constexpr double kHashProbe = 0.2;
constexpr double kSort = 1.5;
constexpr double kStream = 0.1;
constexpr double kCombinerFactor = 0.4;  // volume reduction by pre-aggregation

/// One enumerated physical alternative for a logical node's output.
struct InputChoice {
  ShipStrategy ship = ShipStrategy::kForward;
  KeySpec ship_key;
  int producer_candidate = 0;
  /// Partitioning this choice relied on the producer delivering (for
  /// conflict repair on shared nodes); empty = none.
  KeySpec required_partitioning;
  /// Sort order to establish on the cached (constant) input (§4.3 /
  /// Figure 4: A cached partitioned and sorted by tid).
  KeySpec cache_sort_key;
  bool use_combiner = false;
};

struct Candidate {
  PhysProps props;
  double cost = 0;
  LocalStrategy local = LocalStrategy::kNone;
  std::vector<InputChoice> inputs;
  /// Reduce only: input arrives sorted on the grouping key, skip the sort.
  bool presorted = false;
};

struct IterationInfo {
  bool is_workset = false;
  int spec_index = -1;
  double weight = 1;  // expected iterations, applied to dynamic-path costs
};

/// All optimizer working state for one plan.
struct OptCtx {
  const Plan* plan = nullptr;
  const OptimizerOptions* options = nullptr;
  int parallelism = 0;

  std::vector<std::vector<NodeId>> consumers;
  /// -1: not in a body; 0: constant path; 1: dynamic path.
  std::vector<int> path_class;
  /// Expected-iteration weight of the iteration a node belongs to (1 if none).
  std::vector<double> iter_weight;
  std::vector<InterestingProperties> ips;
  std::vector<std::vector<Candidate>> cands;
  std::vector<WorksetAnalysis> ws_analysis;

  const LogicalNode& node(NodeId id) const { return plan->node(id); }
  bool IsDynamic(NodeId id) const { return path_class[id] == 1; }

  /// Weight applied to work that repeats every superstep: consumer dynamic
  /// and data arriving from the dynamic path (otherwise it flows once and
  /// is cached).
  double EdgeWeight(NodeId producer, NodeId consumer) const {
    if (!IsDynamic(consumer)) return 1;
    if (!IsDynamic(producer)) return 1;  // constant input, shipped once
    return iter_weight[consumer];
  }
  double NodeWeight(NodeId id) const {
    return IsDynamic(id) ? iter_weight[id] : 1;
  }
};

std::vector<FieldMapping> MappingsOf(const LogicalNode& node, int input) {
  std::vector<FieldMapping> out;
  if (node.kind == OperatorKind::kFilter && input == 0) {
    // Filters pass records through unchanged: identity mapping.
    for (int i = 0; i < Record::kMaxFields; ++i) {
      out.push_back(FieldMapping{i, i});
    }
    return out;
  }
  for (const auto& p : node.preserved_fields[input]) {
    out.push_back(FieldMapping{p.from, p.to});
  }
  return out;
}

/// Remaps the physical properties of an input through an operator's
/// field-preservation contract (partitioning / sort survive only if every
/// key field is preserved).
PhysProps RemapProps(const PhysProps& in, const LogicalNode& node, int input) {
  PhysProps out;
  std::vector<FieldMapping> mapping = MappingsOf(node, input);
  if (in.distribution == Distribution::kHashPartitioned) {
    KeySpec remapped;
    if (RemapKey(in.partition_key, mapping, &remapped)) {
      out.distribution = Distribution::kHashPartitioned;
      out.partition_key = remapped;
    }
  }
  if (!in.sort_key.empty()) {
    KeySpec remapped;
    if (RemapKey(in.sort_key, mapping, &remapped)) {
      out.sort_key = remapped;
    }
  }
  return out;
}

/// Output properties of a two-input operator whose inputs are both
/// hash-partitioned on their keys (partitioned hash Match, sort-merge
/// Match, CoGroup). Records meet only where their key values are equal, so
/// the output is hash-partitioned on whichever input key the UDF preserves.
/// This keeps the §5 interesting property of Figure 5: the solution join's
/// D leaves partitioned like S, so the next join forwards D and partitions
/// its constant input once into the §4.3 cache instead of broadcasting it.
/// `props` is the strategy's own answer; when it claims no partitioning,
/// input 0's key and then input 1's key are tried. Only the partitioning
/// is added, never a sort order.
PhysProps CoPartitionedProps(PhysProps props, const LogicalNode& node) {
  if (props.distribution == Distribution::kHashPartitioned) return props;
  for (int input : {0, 1}) {
    KeySpec remapped;
    if (RemapKey(input == 0 ? node.key_left : node.key_right,
                 MappingsOf(node, input), &remapped)) {
      props.distribution = Distribution::kHashPartitioned;
      props.partition_key = remapped;
      break;
    }
  }
  return props;
}

/// Dominance pruning: drop candidates that cost more without delivering
/// better properties.
void Prune(std::vector<Candidate>* cands) {
  std::vector<Candidate> kept;
  for (const Candidate& c : *cands) {
    bool dominated = false;
    for (const Candidate& other : *cands) {
      if (&other == &c) continue;
      bool props_cover = (other.props == c.props) ||
                         (other.props.distribution == c.props.distribution &&
                          other.props.partition_key == c.props.partition_key &&
                          c.props.sort_key.empty());
      if (props_cover && other.cost < c.cost) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(c);
  }
  // Keep the list small and deterministic.
  std::sort(kept.begin(), kept.end(),
            [](const Candidate& a, const Candidate& b) { return a.cost < b.cost; });
  if (kept.size() > 6) kept.resize(6);
  *cands = std::move(kept);
}

/// Ship alternatives delivering `required` partitioning for one input edge.
struct ShipOption {
  InputChoice choice;
  PhysProps delivered;
  double cost = 0;
};

std::vector<ShipOption> PartitionedShipOptions(const OptCtx& ctx,
                                               NodeId producer, NodeId consumer,
                                               int producer_cand,
                                               const KeySpec& required) {
  const Candidate& pc = ctx.cands[producer][producer_cand];
  double rows = ctx.node(producer).estimated_rows;
  double w = ctx.EdgeWeight(producer, consumer);
  std::vector<ShipOption> options;
  if (pc.props.IsPartitionedBy(required)) {
    ShipOption fwd;
    fwd.choice.ship = ShipStrategy::kForward;
    fwd.choice.producer_candidate = producer_cand;
    fwd.choice.required_partitioning = required;
    fwd.delivered = pc.props;
    options.push_back(fwd);
  }
  ShipOption hash;
  hash.choice.ship = ShipStrategy::kHashPartition;
  hash.choice.ship_key = required;
  hash.choice.producer_candidate = producer_cand;
  hash.delivered.distribution = Distribution::kHashPartitioned;
  hash.delivered.partition_key = required;
  hash.cost = rows * kShipHash * w;
  options.push_back(hash);
  return options;
}

ShipOption ForwardShip(const OptCtx& ctx, NodeId producer, int producer_cand) {
  ShipOption fwd;
  fwd.choice.ship = ShipStrategy::kForward;
  fwd.choice.producer_candidate = producer_cand;
  fwd.delivered = ctx.cands[producer][producer_cand].props;
  return fwd;
}

ShipOption BroadcastShip(const OptCtx& ctx, NodeId producer, NodeId consumer,
                         int producer_cand) {
  ShipOption bc;
  bc.choice.ship = ShipStrategy::kBroadcast;
  bc.choice.producer_candidate = producer_cand;
  bc.delivered.distribution = Distribution::kReplicated;
  bc.cost = ctx.node(producer).estimated_rows * kShipBroadcastPerCopy *
            ctx.parallelism * ctx.EdgeWeight(producer, consumer) *
            ctx.options->broadcast_cost_factor;
  return bc;
}

// ---------------------------------------------------------------------------
// Interesting properties (two top-down traversals with feedback, §4.3)
// ---------------------------------------------------------------------------

void PropagateInterestingProperties(OptCtx* ctx) {
  const Plan& plan = *ctx->plan;
  ctx->ips.assign(plan.nodes().size(), {});
  if (!ctx->options->enable_interesting_properties) return;

  auto one_pass = [&] {
    // Reverse topological order: consumers first.
    for (auto it = plan.nodes().rbegin(); it != plan.nodes().rend(); ++it) {
      const LogicalNode& consumer = *it;
      for (size_t port = 0; port < consumer.inputs.size(); ++port) {
        NodeId producer = consumer.inputs[port];
        // Properties the consumer itself creates for this edge.
        InterestingProperty own;
        switch (consumer.kind) {
          case OperatorKind::kReduce:
            own.partition_key = consumer.key_left;
            own.sort_key = consumer.key_left;
            break;
          case OperatorKind::kMatch:
            own.partition_key =
                port == 0 ? consumer.key_left : consumer.key_right;
            break;
          case OperatorKind::kCoGroup:
          case OperatorKind::kInnerCoGroup:
            own.partition_key =
                port == 0 ? consumer.key_left : consumer.key_right;
            own.sort_key = own.partition_key;
            break;
          default:
            break;
        }
        AddInterestingProperty(&ctx->ips[producer], own);
        // Inherited properties: the consumer's own IPs remapped through its
        // field-preservation contract.
        for (const InterestingProperty& ip : ctx->ips[consumer.id]) {
          InterestingProperty inherited;
          KeySpec remapped;
          if (!ip.partition_key.empty() &&
              RemapKeyToInput(ip.partition_key,
                              MappingsOf(consumer, static_cast<int>(port)),
                              &remapped)) {
            inherited.partition_key = remapped;
          }
          if (!ip.sort_key.empty() &&
              RemapKeyToInput(ip.sort_key,
                              MappingsOf(consumer, static_cast<int>(port)),
                              &remapped)) {
            inherited.sort_key = remapped;
          }
          AddInterestingProperty(&ctx->ips[producer], inherited);
        }
      }
    }
  };

  one_pass();
  // Feedback: the properties requested at the iteration input I depend on
  // those at O and vice versa; feed I's IPs back to O and re-traverse.
  for (const BulkIterationSpec& spec : plan.bulk_iterations()) {
    for (const InterestingProperty& ip : ctx->ips[spec.body_input]) {
      AddInterestingProperty(&ctx->ips[spec.body_output], ip);
    }
  }
  for (const WorksetIterationSpec& spec : plan.workset_iterations()) {
    for (const InterestingProperty& ip : ctx->ips[spec.workset_placeholder]) {
      AddInterestingProperty(&ctx->ips[spec.next_workset_output], ip);
    }
  }
  one_pass();
}

// ---------------------------------------------------------------------------
// Path classification
// ---------------------------------------------------------------------------

void ClassifyPaths(OptCtx* ctx) {
  const Plan& plan = *ctx->plan;
  ctx->path_class.assign(plan.nodes().size(), -1);
  ctx->iter_weight.assign(plan.nodes().size(), 1);

  auto mark_dynamic = [&](NodeId start, int iteration, bool workset) {
    std::vector<NodeId> stack = {start};
    ctx->path_class[start] = 1;
    while (!stack.empty()) {
      NodeId node = stack.back();
      stack.pop_back();
      for (NodeId consumer : ctx->consumers[node]) {
        const LogicalNode& c = plan.node(consumer);
        if (c.iteration_id != iteration || c.iteration_is_workset != workset) {
          continue;
        }
        if (ctx->path_class[consumer] != 1) {
          ctx->path_class[consumer] = 1;
          stack.push_back(consumer);
        }
      }
    }
  };

  for (const LogicalNode& node : plan.nodes()) {
    if (node.iteration_id >= 0) ctx->path_class[node.id] = 0;
  }
  for (const BulkIterationSpec& spec : plan.bulk_iterations()) {
    mark_dynamic(spec.body_input, spec.id, false);
    double weight = ctx->options->expected_iterations > 0
                        ? ctx->options->expected_iterations
                        : std::min(spec.max_iterations, 20);
    for (const LogicalNode& node : plan.nodes()) {
      if (node.iteration_id == spec.id && !node.iteration_is_workset) {
        ctx->iter_weight[node.id] = weight;
      }
    }
  }
  for (const WorksetIterationSpec& spec : plan.workset_iterations()) {
    mark_dynamic(spec.workset_placeholder, spec.id, true);
    // The solution placeholder feeds the join's index build (once), but the
    // join itself is dynamic through its probe side.
    double weight = ctx->options->expected_iterations > 0
                        ? ctx->options->expected_iterations
                        : 20;
    for (const LogicalNode& node : plan.nodes()) {
      if (node.iteration_id == spec.id && node.iteration_is_workset) {
        ctx->iter_weight[node.id] = weight;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Candidate enumeration (bottom-up)
// ---------------------------------------------------------------------------

double MinProducerCost(const OptCtx& ctx, NodeId producer) {
  double best = std::numeric_limits<double>::infinity();
  for (const Candidate& c : ctx.cands[producer]) best = std::min(best, c.cost);
  return best;
}

void EnumerateNode(OptCtx* ctx, const LogicalNode& node) {
  std::vector<Candidate>& out = ctx->cands[node.id];
  const double node_weight = ctx->NodeWeight(node.id);

  switch (node.kind) {
    case OperatorKind::kSource: {
      Candidate c;
      c.cost = 0;
      out.push_back(c);
      break;
    }
    case OperatorKind::kBulkPlaceholder:
    case OperatorKind::kSolutionPlaceholder:
    case OperatorKind::kWorksetPlaceholder:
    case OperatorKind::kIterationResult: {
      // Fixed, single candidate; the physical wiring of these edges is done
      // by the iteration expansion.
      Candidate c;
      NodeId source = node.inputs[0];
      c.cost = MinProducerCost(*ctx, source) +
               ctx->node(source).estimated_rows * kShipHash;
      if (node.kind == OperatorKind::kBulkPlaceholder) {
        // Feedback repartitions by the solution key each superstep.
        for (const BulkIterationSpec& spec : ctx->plan->bulk_iterations()) {
          if (spec.body_input == node.id && !spec.solution_key.empty()) {
            c.props.distribution = Distribution::kHashPartitioned;
            c.props.partition_key = spec.solution_key;
          }
        }
      } else if (node.kind == OperatorKind::kWorksetPlaceholder) {
        for (size_t i = 0; i < ctx->plan->workset_iterations().size(); ++i) {
          if (ctx->plan->workset_iterations()[i].workset_placeholder ==
              node.id) {
            c.props.distribution = Distribution::kHashPartitioned;
            c.props.partition_key = ctx->ws_analysis[i].workset_route_key;
          }
        }
      } else if (node.kind == OperatorKind::kSolutionPlaceholder ||
                 node.kind == OperatorKind::kIterationResult) {
        for (const WorksetIterationSpec& spec :
             ctx->plan->workset_iterations()) {
          if (spec.solution_placeholder == node.id ||
              spec.result_node == node.id) {
            c.props.distribution = Distribution::kHashPartitioned;
            c.props.partition_key = spec.solution_key;
          }
        }
        for (const BulkIterationSpec& spec : ctx->plan->bulk_iterations()) {
          if (spec.result_node == node.id && !spec.solution_key.empty()) {
            c.props.distribution = Distribution::kHashPartitioned;
            c.props.partition_key = spec.solution_key;
          }
        }
      }
      out.push_back(c);
      break;
    }
    case OperatorKind::kMap:
    case OperatorKind::kFilter: {
      NodeId in = node.inputs[0];
      for (size_t pc = 0; pc < ctx->cands[in].size(); ++pc) {
        ShipOption ship = ForwardShip(*ctx, in, static_cast<int>(pc));
        Candidate c;
        c.props = RemapProps(ship.delivered, node, 0);
        c.inputs.push_back(ship.choice);
        c.cost = ctx->cands[in][pc].cost + ship.cost +
                 ctx->node(in).estimated_rows * kStream * node_weight;
        out.push_back(c);
      }
      break;
    }
    case OperatorKind::kUnion: {
      // Cheapest candidate of each side, forwarded.
      Candidate c;
      double cost = 0;
      for (int port = 0; port < 2; ++port) {
        NodeId in = node.inputs[port];
        size_t best = 0;
        for (size_t pc = 1; pc < ctx->cands[in].size(); ++pc) {
          if (ctx->cands[in][pc].cost < ctx->cands[in][best].cost) best = pc;
        }
        ShipOption ship = ForwardShip(*ctx, in, static_cast<int>(best));
        c.inputs.push_back(ship.choice);
        cost += ctx->cands[in][best].cost;
      }
      c.cost = cost;
      out.push_back(c);
      break;
    }
    case OperatorKind::kReduce: {
      NodeId in = node.inputs[0];
      double rows = ctx->node(in).estimated_rows;
      for (size_t pc = 0; pc < ctx->cands[in].size(); ++pc) {
        for (ShipOption& ship : PartitionedShipOptions(
                 *ctx, in, node.id, static_cast<int>(pc), node.key_left)) {
          Candidate c;
          c.local = LocalStrategy::kSortGroup;
          double ship_cost = ship.cost;
          if (ctx->options->enable_combiners && node.combiner &&
              ship.choice.ship == ShipStrategy::kHashPartition) {
            ship.choice.use_combiner = true;
            ship_cost *= kCombinerFactor;
          }
          c.presorted = ship.choice.ship == ShipStrategy::kForward &&
                        ship.delivered.IsSortedBy(node.key_left);
          double sort_cost =
              c.presorted ? 0 : rows * kSort * node_weight;
          c.inputs.push_back(ship.choice);
          c.cost = ctx->cands[in][pc].cost + ship_cost + sort_cost +
                   rows * kStream * node_weight;
          // Output: grouped emission is keyed and sorted by the key, if the
          // UDF preserves the key fields.
          PhysProps raw;
          raw.distribution = Distribution::kHashPartitioned;
          raw.partition_key = node.key_left;
          raw.sort_key = node.key_left;
          c.props = RemapProps(raw, node, 0);
          out.push_back(c);
        }
      }
      break;
    }
    case OperatorKind::kMatch: {
      NodeId left = node.inputs[0];
      NodeId right = node.inputs[1];
      double lrows = ctx->node(left).estimated_rows;
      double rrows = ctx->node(right).estimated_rows;
      for (size_t lc = 0; lc < ctx->cands[left].size(); ++lc) {
        for (size_t rc = 0; rc < ctx->cands[right].size(); ++rc) {
          double base = ctx->cands[left][lc].cost + ctx->cands[right][rc].cost;
          // (a,b) Partitioned hash joins, build on either side.
          for (bool build_left : {true, false}) {
            NodeId build = build_left ? left : right;
            NodeId probe = build_left ? right : left;
            double brows = build_left ? lrows : rrows;
            double prows = build_left ? rrows : lrows;
            int bcand = static_cast<int>(build_left ? lc : rc);
            int pcand = static_cast<int>(build_left ? rc : lc);
            const KeySpec& bkey = build_left ? node.key_left : node.key_right;
            const KeySpec& pkey = build_left ? node.key_right : node.key_left;
            // Probing repeats every superstep of a dynamic join, even when
            // the probe data itself is a constant-path cache.
            const double probe_weight = ctx->NodeWeight(node.id);
            for (const ShipOption& bship : PartitionedShipOptions(
                     *ctx, build, node.id, bcand, bkey)) {
              for (const ShipOption& pship : PartitionedShipOptions(
                       *ctx, probe, node.id, pcand, pkey)) {
                Candidate c;
                c.local = build_left ? LocalStrategy::kHashBuildLeft
                                     : LocalStrategy::kHashBuildRight;
                c.inputs.resize(2);
                c.inputs[build_left ? 0 : 1] = bship.choice;
                c.inputs[build_left ? 1 : 0] = pship.choice;
                c.cost = base + bship.cost + pship.cost +
                         brows * kHashBuild *
                             ctx->EdgeWeight(build, node.id) +
                         prows * kHashProbe * probe_weight;
                // The probe side's properties survive through preservation.
                c.props = CoPartitionedProps(
                    RemapProps(pship.delivered, node, build_left ? 1 : 0),
                    node);
                out.push_back(c);
              }
            }
            // (c) Broadcast the build side; the probe side stays put and
            // keeps all its physical properties. The replicated build work
            // (every partition builds the full table, every superstep on
            // the dynamic path) is part of the broadcast penalty and scales
            // with the broadcast_cost_factor knob.
            {
              ShipOption bship = BroadcastShip(*ctx, build, node.id, bcand);
              ShipOption pship = ForwardShip(*ctx, probe, pcand);
              Candidate c;
              c.local = build_left ? LocalStrategy::kHashBuildLeft
                                   : LocalStrategy::kHashBuildRight;
              c.inputs.resize(2);
              c.inputs[build_left ? 0 : 1] = bship.choice;
              c.inputs[build_left ? 1 : 0] = pship.choice;
              c.cost = base + bship.cost +
                       brows * ctx->parallelism * kHashBuild *
                           ctx->EdgeWeight(build, node.id) *
                           ctx->options->broadcast_cost_factor +
                       prows * kHashProbe * probe_weight;
              c.props = RemapProps(pship.delivered, node, build_left ? 1 : 0);
              out.push_back(c);
              // IP-seeded variant: when the probe side is constant-path and
              // cached, establish a requested partitioning + sort order on
              // the cache — the Figure 4 broadcast plan, where A is cached
              // partitioned and sorted by tid while p is broadcast. The
              // constant-path ship + sort cost is paid once.
              if (!ctx->IsDynamic(probe) && ctx->IsDynamic(node.id)) {
                for (const InterestingProperty& ip : ctx->ips[node.id]) {
                  if (ip.sort_key.empty() && ip.partition_key.empty()) continue;
                  const KeySpec& requested =
                      ip.sort_key.empty() ? ip.partition_key : ip.sort_key;
                  KeySpec probe_key_mapped;
                  if (!RemapKeyToInput(
                          requested, MappingsOf(node, build_left ? 1 : 0),
                          &probe_key_mapped)) {
                    continue;
                  }
                  Candidate seeded = c;
                  InputChoice& probe_choice = seeded.inputs[build_left ? 1 : 0];
                  probe_choice.ship = ShipStrategy::kHashPartition;
                  probe_choice.ship_key = probe_key_mapped;
                  probe_choice.cache_sort_key = probe_key_mapped;
                  seeded.cost += prows * kShipHash +  // partition once
                                 prows * kSort;       // sort once at cache build
                  PhysProps delivered;
                  delivered.distribution = Distribution::kHashPartitioned;
                  delivered.partition_key = probe_key_mapped;
                  delivered.sort_key = probe_key_mapped;
                  seeded.props =
                      RemapProps(delivered, node, build_left ? 1 : 0);
                  out.push_back(seeded);
                }
              }
            }
          }
          // (d) Sort-merge join, both sides partitioned.
          for (const ShipOption& lship : PartitionedShipOptions(
                   *ctx, left, node.id, static_cast<int>(lc), node.key_left)) {
            for (const ShipOption& rship : PartitionedShipOptions(
                     *ctx, right, node.id, static_cast<int>(rc),
                     node.key_right)) {
              Candidate c;
              c.local = LocalStrategy::kSortMerge;
              c.inputs = {lship.choice, rship.choice};
              double lsort = lship.delivered.IsSortedBy(node.key_left)
                                 ? 0
                                 : lrows * kSort;
              double rsort = rship.delivered.IsSortedBy(node.key_right)
                                 ? 0
                                 : rrows * kSort;
              c.cost = base + lship.cost + rship.cost +
                       lsort * ctx->EdgeWeight(left, node.id) +
                       rsort * ctx->EdgeWeight(right, node.id) +
                       (lrows + rrows) * kStream * node_weight;
              PhysProps raw;
              raw.distribution = Distribution::kHashPartitioned;
              raw.partition_key = node.key_left;
              raw.sort_key = node.key_left;
              c.props = CoPartitionedProps(RemapProps(raw, node, 0), node);
              out.push_back(c);
            }
          }
        }
      }
      break;
    }
    case OperatorKind::kCross: {
      NodeId left = node.inputs[0];
      NodeId right = node.inputs[1];
      double pairs = ctx->node(left).estimated_rows *
                     ctx->node(right).estimated_rows;
      for (bool build_left : {true, false}) {
        NodeId build = build_left ? left : right;
        NodeId probe = build_left ? right : left;
        size_t bbest = 0;
        size_t pbest = 0;
        ShipOption bship = BroadcastShip(*ctx, build, node.id,
                                         static_cast<int>(bbest));
        ShipOption pship = ForwardShip(*ctx, probe, static_cast<int>(pbest));
        Candidate c;
        c.local = build_left ? LocalStrategy::kCrossBuildLeft
                             : LocalStrategy::kCrossBuildRight;
        c.inputs.resize(2);
        c.inputs[build_left ? 0 : 1] = bship.choice;
        c.inputs[build_left ? 1 : 0] = pship.choice;
        c.cost = MinProducerCost(*ctx, left) + MinProducerCost(*ctx, right) +
                 bship.cost + pairs * kStream * node_weight;
        c.props = RemapProps(pship.delivered, node, build_left ? 1 : 0);
        out.push_back(c);
      }
      break;
    }
    case OperatorKind::kCoGroup:
    case OperatorKind::kInnerCoGroup: {
      NodeId left = node.inputs[0];
      NodeId right = node.inputs[1];
      double lrows = ctx->node(left).estimated_rows;
      double rrows = ctx->node(right).estimated_rows;
      for (size_t lc = 0; lc < ctx->cands[left].size(); ++lc) {
        for (size_t rc = 0; rc < ctx->cands[right].size(); ++rc) {
          double base = ctx->cands[left][lc].cost + ctx->cands[right][rc].cost;
          for (const ShipOption& lship : PartitionedShipOptions(
                   *ctx, left, node.id, static_cast<int>(lc), node.key_left)) {
            for (const ShipOption& rship : PartitionedShipOptions(
                     *ctx, right, node.id, static_cast<int>(rc),
                     node.key_right)) {
              Candidate c;
              c.local = LocalStrategy::kSortMerge;
              c.inputs = {lship.choice, rship.choice};
              double lsort = lship.delivered.IsSortedBy(node.key_left)
                                 ? 0
                                 : lrows * kSort;
              double rsort = rship.delivered.IsSortedBy(node.key_right)
                                 ? 0
                                 : rrows * kSort;
              c.cost = base + lship.cost + rship.cost +
                       lsort * ctx->EdgeWeight(left, node.id) +
                       rsort * ctx->EdgeWeight(right, node.id) +
                       (lrows + rrows) * kStream * node_weight;
              PhysProps raw;
              raw.distribution = Distribution::kHashPartitioned;
              raw.partition_key = node.key_left;
              raw.sort_key = node.key_left;
              c.props = CoPartitionedProps(RemapProps(raw, node, 0), node);
              out.push_back(c);
            }
          }
        }
      }
      break;
    }
    case OperatorKind::kSink: {
      NodeId in = node.inputs[0];
      size_t best = 0;
      for (size_t pc = 1; pc < ctx->cands[in].size(); ++pc) {
        if (ctx->cands[in][pc].cost < ctx->cands[in][best].cost) best = pc;
      }
      Candidate c;
      ShipOption ship = ForwardShip(*ctx, in, static_cast<int>(best));
      c.inputs.push_back(ship.choice);
      c.cost = ctx->cands[in][best].cost;
      out.push_back(c);
      break;
    }
  }
  SFDF_CHECK(!out.empty()) << "no candidates for node '" << node.name << "'";
  Prune(&out);
}

}  // namespace

// ---------------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------------

Optimizer::Optimizer(OptimizerOptions options) : options_(options) {}

Result<PhysicalPlan> Optimizer::Optimize(const Plan& plan) const {
  OptCtx ctx;
  ctx.plan = &plan;
  ctx.options = &options_;
  ctx.parallelism =
      options_.parallelism > 0 ? options_.parallelism : DefaultParallelism();
  ctx.consumers = plan.BuildConsumerIndex();

  // Workset-body analysis first: it validates the body structure.
  for (const WorksetIterationSpec& spec : plan.workset_iterations()) {
    auto analysis = AnalyzeWorksetBody(plan, spec);
    if (!analysis.ok()) return analysis.status();
    if (spec.mode == IterationMode::kMicrostep &&
        !analysis.value().microstep_capable) {
      return Status::Unsupported("microstep execution requested but: " +
                                 analysis.value().microstep_blocker);
    }
    ctx.ws_analysis.push_back(std::move(analysis).value());
  }

  ClassifyPaths(&ctx);
  PropagateInterestingProperties(&ctx);

  ctx.cands.resize(plan.nodes().size());
  for (const LogicalNode& node : plan.nodes()) {
    EnumerateNode(&ctx, node);
  }

  // --- Backtrack: requirements from sinks & iteration-internal outputs ---
  std::vector<int> req(plan.nodes().size(), -1);
  auto argmin = [&](NodeId id) {
    int best = 0;
    for (size_t i = 1; i < ctx.cands[id].size(); ++i) {
      if (ctx.cands[id][i].cost < ctx.cands[id][best].cost) {
        best = static_cast<int>(i);
      }
    }
    return best;
  };
  for (auto it = plan.nodes().rbegin(); it != plan.nodes().rend(); ++it) {
    const LogicalNode& node = *it;
    bool internal_output = false;
    for (const BulkIterationSpec& spec : plan.bulk_iterations()) {
      if (node.id == spec.body_output || node.id == spec.term_criterion) {
        internal_output = true;
      }
    }
    for (const WorksetIterationSpec& spec : plan.workset_iterations()) {
      if (node.id == spec.delta_output || node.id == spec.next_workset_output) {
        internal_output = true;
      }
    }
    if (req[node.id] == -1 &&
        (node.kind == OperatorKind::kSink || internal_output)) {
      req[node.id] = argmin(node.id);
    }
    if (req[node.id] == -1) continue;
    const Candidate& chosen = ctx.cands[node.id][req[node.id]];
    for (size_t port = 0; port < chosen.inputs.size(); ++port) {
      NodeId producer = node.inputs[port];
      if (req[producer] == -1) {
        req[producer] = chosen.inputs[port].producer_candidate;
      }
    }
  }
  // Nodes never required (e.g. placeholders' initial inputs reached through
  // the fixed-candidate path): default to their cheapest candidate.
  for (const LogicalNode& node : plan.nodes()) {
    if (req[node.id] == -1) req[node.id] = argmin(node.id);
  }

  // --- Emit physical plan ---
  PhysicalPlan physical;
  physical.parallelism = ctx.parallelism;

  std::vector<int> task_of(plan.nodes().size(), -1);
  // Upper bound on task count: one per executable node plus head/tail/term
  // (bulk) and head/tail/apply (workset) per iteration. Reserving it keeps
  // the PhysicalTask* handles returned by add_task stable — push_back below
  // never reallocates. Adding a new task kind? Update this bound.
  physical.tasks.reserve(plan.nodes().size() +
                         3 * plan.bulk_iterations().size() +
                         3 * plan.workset_iterations().size());
  auto add_task = [&](OperatorKind kind, TaskRole role,
                      const std::string& name) -> PhysicalTask* {
    PhysicalTask task;
    task.id = static_cast<int>(physical.tasks.size());
    task.kind = kind;
    task.role = role;
    task.name = name;
    // Must not reallocate: callers hold PhysicalTask* across add_task calls.
    assert(physical.tasks.size() < physical.tasks.capacity());
    physical.tasks.push_back(std::move(task));
    return &physical.tasks.back();
  };

  // Pass 1: one task per executable logical node.
  for (const LogicalNode& node : plan.nodes()) {
    switch (node.kind) {
      case OperatorKind::kBulkPlaceholder:
      case OperatorKind::kSolutionPlaceholder:
      case OperatorKind::kWorksetPlaceholder:
      case OperatorKind::kIterationResult:
        continue;  // expanded below
      default:
        break;
    }
    const Candidate& chosen = ctx.cands[node.id][req[node.id]];
    PhysicalTask* task = add_task(node.kind, TaskRole::kRegular, node.name);
    task->logical_node = node.id;
    task->key_left = node.key_left;
    task->key_right = node.key_right;
    task->map_udf = node.map_udf;
    task->filter_udf = node.filter_udf;
    task->reduce_udf = node.reduce_udf;
    task->match_udf = node.match_udf;
    task->cogroup_udf = node.cogroup_udf;
    task->source_data = node.source_data;
    task->sink_out = node.sink_out;
    task->local = chosen.local;
    task->output_props = chosen.props;
    if (node.iteration_id >= 0) {
      if (node.iteration_is_workset) {
        task->workset_iteration = node.iteration_id;
      } else {
        task->bulk_iteration = node.iteration_id;
      }
      task->on_dynamic_path = ctx.IsDynamic(node.id);
    }
    task_of[node.id] = task->id;
  }

  // Pass 2: iteration expansion.
  std::vector<int> bulk_head(plan.bulk_iterations().size(), -1);
  std::vector<int> bulk_tail(plan.bulk_iterations().size(), -1);
  std::vector<int> bulk_term(plan.bulk_iterations().size(), -1);
  for (size_t i = 0; i < plan.bulk_iterations().size(); ++i) {
    const BulkIterationSpec& spec = plan.bulk_iterations()[i];
    PhysicalTask* head = add_task(OperatorKind::kBulkPlaceholder,
                                  TaskRole::kBulkHead, "bulk.head");
    head->bulk_iteration = spec.id;
    head->on_dynamic_path = true;
    head->output_props = ctx.cands[spec.body_input][0].props;
    bulk_head[i] = head->id;
    task_of[spec.body_input] = head->id;

    PhysicalTask* tail = add_task(OperatorKind::kBulkPlaceholder,
                                  TaskRole::kBulkTail, "bulk.tail");
    tail->bulk_iteration = spec.id;
    tail->on_dynamic_path = true;
    tail->output_props = head->output_props;
    bulk_tail[i] = tail->id;
    task_of[spec.result_node] = tail->id;

    if (spec.term_criterion != kInvalidNode) {
      PhysicalTask* term = add_task(OperatorKind::kBulkPlaceholder,
                                    TaskRole::kTermSink, "bulk.term");
      term->bulk_iteration = spec.id;
      term->on_dynamic_path = true;
      bulk_term[i] = term->id;
    }
  }
  std::vector<int> ws_head(plan.workset_iterations().size(), -1);
  std::vector<int> ws_tail(plan.workset_iterations().size(), -1);
  std::vector<int> ws_apply(plan.workset_iterations().size(), -1);
  for (size_t i = 0; i < plan.workset_iterations().size(); ++i) {
    const WorksetIterationSpec& spec = plan.workset_iterations()[i];
    const WorksetAnalysis& analysis = ctx.ws_analysis[i];
    PhysicalTask* head = add_task(OperatorKind::kWorksetPlaceholder,
                                  TaskRole::kWorksetHead, "workset.head");
    head->workset_iteration = spec.id;
    head->on_dynamic_path = true;
    head->output_props = ctx.cands[spec.workset_placeholder][0].props;
    ws_head[i] = head->id;
    task_of[spec.workset_placeholder] = head->id;

    PhysicalTask* tail = add_task(OperatorKind::kWorksetPlaceholder,
                                  TaskRole::kWorksetTail, "workset.tail");
    tail->workset_iteration = spec.id;
    tail->on_dynamic_path = true;
    ws_tail[i] = tail->id;

    PhysicalTask* apply = add_task(OperatorKind::kWorksetPlaceholder,
                                   TaskRole::kDeltaApply, "workset.apply");
    apply->workset_iteration = spec.id;
    apply->on_dynamic_path = true;
    apply->output_props = ctx.cands[spec.solution_placeholder][0].props;
    ws_apply[i] = apply->id;
    task_of[spec.result_node] = apply->id;

    // Mark the solution join.
    PhysicalTask& join = physical.tasks[task_of[analysis.solution_join]];
    join.role = TaskRole::kSolutionJoin;
    join.solution_side = analysis.solution_side;
    join.on_dynamic_path = true;
  }

  // Pass 3: wire inputs.
  for (const LogicalNode& node : plan.nodes()) {
    if (task_of[node.id] == -1) continue;
    PhysicalTask& task = physical.tasks[task_of[node.id]];
    if (task.role == TaskRole::kBulkHead || task.role == TaskRole::kBulkTail ||
        task.role == TaskRole::kWorksetHead ||
        task.role == TaskRole::kDeltaApply) {
      continue;  // iteration plumbing wired below
    }
    const Candidate& chosen = ctx.cands[node.id][req[node.id]];
    task.inputs.resize(node.inputs.size());
    for (size_t port = 0; port < node.inputs.size(); ++port) {
      NodeId producer_node = node.inputs[port];
      const InputChoice& choice = chosen.inputs[port];
      PhysicalInput input;
      input.producer = task_of[producer_node];
      input.ship = choice.ship;
      input.ship_key = choice.ship_key;
      input.cache_sort_key = choice.cache_sort_key;
      // Conflict repair: if this choice relied on a partitioning the
      // finally-chosen producer candidate does not deliver, repartition.
      const Candidate& producer_cand =
          ctx.cands[producer_node][req[producer_node]];
      if (!choice.required_partitioning.empty() &&
          choice.ship == ShipStrategy::kForward &&
          !producer_cand.props.IsPartitionedBy(choice.required_partitioning)) {
        input.ship = ShipStrategy::kHashPartition;
        input.ship_key = choice.required_partitioning;
      }
      if (choice.use_combiner && node.combiner) {
        input.combiner = node.combiner;  // folds on the ship key (key_left)
      }
      bool producer_dynamic = ctx.IsDynamic(producer_node);
      input.constant_path = !producer_dynamic && ctx.IsDynamic(node.id);
      input.cached = input.constant_path && options_.enable_caching;
      task.inputs[port] = std::move(input);
    }
    if (node.kind == OperatorKind::kReduce) {
      task.input_presorted = chosen.presorted;
    }
  }

  // Iteration plumbing.
  auto ship_into = [&](NodeId producer_node, const KeySpec& key) {
    PhysicalInput input;
    input.producer = task_of[producer_node];
    const Candidate& pc = ctx.cands[producer_node][req[producer_node]];
    if (!key.empty() && !pc.props.IsPartitionedBy(key)) {
      input.ship = ShipStrategy::kHashPartition;
      input.ship_key = key;
    } else {
      input.ship = ShipStrategy::kForward;
    }
    return input;
  };

  for (size_t i = 0; i < plan.bulk_iterations().size(); ++i) {
    const BulkIterationSpec& spec = plan.bulk_iterations()[i];
    PhysicalTask& head = physical.tasks[bulk_head[i]];
    head.inputs.push_back(ship_into(spec.initial_input, spec.solution_key));
    PhysicalTask& tail = physical.tasks[bulk_tail[i]];
    {
      PhysicalInput input;
      input.producer = task_of[spec.body_output];
      const Candidate& oc = ctx.cands[spec.body_output][req[spec.body_output]];
      if (!spec.solution_key.empty() &&
          !oc.props.IsPartitionedBy(spec.solution_key)) {
        input.ship = ShipStrategy::kHashPartition;
        input.ship_key = spec.solution_key;
      }
      tail.inputs.push_back(std::move(input));
    }
    if (bulk_term[i] >= 0) {
      PhysicalTask& term = physical.tasks[bulk_term[i]];
      PhysicalInput input;
      input.producer = task_of[spec.term_criterion];
      term.inputs.push_back(std::move(input));
    }
    PhysicalBulkIteration pbi;
    pbi.head_task = bulk_head[i];
    pbi.tail_task = bulk_tail[i];
    pbi.term_sink_task = bulk_term[i];
    pbi.max_iterations = spec.max_iterations;
    pbi.solution_key = spec.solution_key;
    physical.bulk_iterations.push_back(std::move(pbi));
  }

  for (size_t i = 0; i < plan.workset_iterations().size(); ++i) {
    const WorksetIterationSpec& spec = plan.workset_iterations()[i];
    const WorksetAnalysis& analysis = ctx.ws_analysis[i];
    PhysicalTask& head = physical.tasks[ws_head[i]];
    head.inputs.push_back(
        ship_into(spec.initial_workset, analysis.workset_route_key));
    PhysicalTask& tail = physical.tasks[ws_tail[i]];
    {
      PhysicalInput input;
      input.producer = task_of[spec.next_workset_output];
      tail.inputs.push_back(std::move(input));
    }
    // Solution side of the join: initial S, partitioned by the solution key.
    PhysicalTask& join = physical.tasks[task_of[analysis.solution_join]];
    join.inputs[analysis.solution_side] =
        ship_into(spec.initial_solution, spec.solution_key);

    const bool immediate = analysis.local_updates &&
                           analysis.delta_is_join_output &&
                           !options_.disable_immediate_apply;
    PhysicalTask& apply = physical.tasks[ws_apply[i]];
    {
      PhysicalInput input;
      input.producer = task_of[spec.delta_output];
      if (!immediate) {
        const Candidate& dc = ctx.cands[spec.delta_output][req[spec.delta_output]];
        if (!dc.props.IsPartitionedBy(spec.solution_key)) {
          input.ship = ShipStrategy::kHashPartition;
          input.ship_key = spec.solution_key;
        }
      }
      apply.inputs.push_back(std::move(input));
    }

    PhysicalWorksetIteration pwi;
    pwi.head_task = ws_head[i];
    pwi.tail_task = ws_tail[i];
    pwi.delta_apply_task = ws_apply[i];
    pwi.solution_join_task = join.id;
    pwi.workset_route_key = analysis.workset_route_key;
    pwi.solution_key = spec.solution_key;
    pwi.comparator = spec.comparator;
    pwi.max_iterations = spec.max_iterations;
    pwi.immediate_apply = immediate;
    pwi.microstep = spec.mode == IterationMode::kMicrostep;
    // Index structure follows the join's strategy (§5.3): hash join ⇒
    // updateable hash table; sort/group strategies (CoGroup) ⇒ B+-tree.
    const LogicalNode& join_node = plan.node(analysis.solution_join);
    bool sorted_strategy = join_node.kind != OperatorKind::kMatch;
    if (options_.force_solution_index == 1) {
      pwi.use_btree_index = false;
    } else if (options_.force_solution_index == 2) {
      pwi.use_btree_index = true;
    } else {
      pwi.use_btree_index = sorted_strategy;
    }
    physical.workset_iterations.push_back(std::move(pwi));
  }

  // Total estimated cost: the sum over sink requirements.
  for (const LogicalNode& node : plan.nodes()) {
    if (node.kind == OperatorKind::kSink) {
      physical.estimated_cost += ctx.cands[node.id][req[node.id]].cost;
    }
  }
  return physical;
}

Result<std::string> Optimizer::Explain(const Plan& plan) const {
  auto physical = Optimize(plan);
  if (!physical.ok()) return physical.status();
  return physical.value().ToString();
}

}  // namespace sfdf
