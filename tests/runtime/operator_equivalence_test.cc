// Every operator and local strategy computes the same result whether its
// task runs once, outside every loop, or superstep after superstep inside a
// bulk iteration — where its dynamic input streams and its constant input
// is replayed from the §4.3 cache. Both shapes run the same task program;
// the expectation comes from a sequential model of one body application.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dataflow/plan_builder.h"
#include "optimizer/optimizer.h"
#include "runtime/executor.h"

namespace sfdf {
namespace {

using Pairs = std::vector<std::pair<int64_t, int64_t>>;

constexpr int kSupersteps = 4;

/// One operator under test. `build` wires one body application — the
/// operator, fed the dynamic input `dyn` and the constant input `con` —
/// and returns its output; the operator's task is named "op". `model`
/// computes the same application sequentially.
struct OperatorCase {
  std::string name;
  OperatorKind kind;
  LocalStrategy local;  ///< forced onto the "op" task; kNone = keep
  Pairs constant;
  std::function<DataSet(PlanBuilder*, DataSet dyn, DataSet con)> build;
  std::function<Pairs(const Pairs& dyn, const Pairs& con)> model;
};

void PrintTo(const OperatorCase& c, std::ostream* os) { *os << c.name; }

Record PairRecord(const std::pair<int64_t, int64_t>& kv) {
  return Record::OfInts(kv.first, kv.second);
}

/// Keys 0..9, all values 0.
Pairs InitialSolution() {
  Pairs s;
  for (int64_t k = 0; k < 10; ++k) s.emplace_back(k, 0);
  return s;
}

/// Keys 2..11 (two keys only in the solution, two only here), value k+1.
Pairs JoinConstant() {
  Pairs c;
  for (int64_t k = 2; k < 12; ++k) c.emplace_back(k, k + 1);
  return c;
}

std::map<int64_t, std::vector<int64_t>> GroupByKey(const Pairs& in) {
  std::map<int64_t, std::vector<int64_t>> groups;
  for (const auto& [k, v] : in) groups[k].push_back(v);
  return groups;
}

/// Inner equi-join on the key, emitting (k, dyn.v + con.v).
Pairs JoinModel(const Pairs& dyn, const Pairs& con) {
  Pairs out;
  for (const auto& [dk, dv] : dyn) {
    for (const auto& [ck, cv] : con) {
      if (dk == ck) out.emplace_back(dk, dv + cv);
    }
  }
  return out;
}

void AddJoin(const Record& d, const Record& c, Collector* out) {
  out->Emit(Record::OfInts(d.GetInt(0), d.GetInt(1) + c.GetInt(1)));
}

DataSet JoinOp(PlanBuilder* pb, DataSet dyn, DataSet con) {
  return pb->Match("op", dyn, con, {0}, {0}, AddJoin);
}

/// The body's constant read for single-input operators: a Match adding the
/// constant's value (a single-input operator on the dynamic path has no
/// constant port of its own).
DataSet AddConstant(PlanBuilder* pb, DataSet dyn, DataSet con) {
  return pb->Match("add", dyn, con, {0}, {0}, AddJoin);
}

Pairs CoGroupModel(const Pairs& dyn, const Pairs& con, bool inner) {
  auto dg = GroupByKey(dyn);
  auto cg = GroupByKey(con);
  std::map<int64_t, int64_t> sums;
  for (const auto& [k, vs] : dg) {
    if (inner && cg.count(k) == 0) continue;
    for (int64_t v : vs) sums[k] += v;
  }
  for (const auto& [k, vs] : cg) {
    if (inner && dg.count(k) == 0) continue;
    for (int64_t v : vs) sums[k] += v;
  }
  return Pairs(sums.begin(), sums.end());
}

void SumGroups(const std::vector<Record>& left,
               const std::vector<Record>& right, Collector* out) {
  const int64_t key =
      left.empty() ? right.front().GetInt(0) : left.front().GetInt(0);
  int64_t sum = 0;
  for (const Record& rec : left) sum += rec.GetInt(1);
  for (const Record& rec : right) sum += rec.GetInt(1);
  out->Emit(Record::OfInts(key, sum));
}

std::vector<OperatorCase> Cases() {
  std::vector<OperatorCase> cases;
  cases.push_back(
      {"Map", OperatorKind::kMap, LocalStrategy::kNone, JoinConstant(),
       [](PlanBuilder* pb, DataSet dyn, DataSet con) {
         return pb->Map("op", AddConstant(pb, dyn, con),
                        [](const Record& rec, Collector* out) {
                          out->Emit(Record::OfInts(rec.GetInt(0),
                                                   rec.GetInt(1) + 1));
                        });
       },
       [](const Pairs& dyn, const Pairs& con) {
         Pairs out = JoinModel(dyn, con);
         for (auto& kv : out) kv.second += 1;
         return out;
       }});
  cases.push_back(
      {"Filter", OperatorKind::kFilter, LocalStrategy::kNone, JoinConstant(),
       [](PlanBuilder* pb, DataSet dyn, DataSet con) {
         return pb->Filter("op", AddConstant(pb, dyn, con),
                           [](const Record& rec) {
                             return rec.GetInt(0) % 3 != 0;
                           });
       },
       [](const Pairs& dyn, const Pairs& con) {
         Pairs out;
         for (const auto& kv : JoinModel(dyn, con)) {
           if (kv.first % 3 != 0) out.push_back(kv);
         }
         return out;
       }});
  // Union grows the partial solution by the constant every superstep.
  cases.push_back({"Union", OperatorKind::kUnion, LocalStrategy::kNone,
                   JoinConstant(),
                   [](PlanBuilder* pb, DataSet dyn, DataSet con) {
                     return pb->Union("op", dyn, con);
                   },
                   [](const Pairs& dyn, const Pairs& con) {
                     Pairs out = dyn;
                     out.insert(out.end(), con.begin(), con.end());
                     return out;
                   }});
  cases.push_back(
      {"Reduce", OperatorKind::kReduce, LocalStrategy::kNone, JoinConstant(),
       [](PlanBuilder* pb, DataSet dyn, DataSet con) {
         return pb->Reduce("op", pb->Union("with_constant", dyn, con), {0},
                           [](const std::vector<Record>& group,
                              Collector* out) {
                             int64_t sum = 0;
                             for (const Record& rec : group) {
                               sum += rec.GetInt(1);
                             }
                             out->Emit(
                                 Record::OfInts(group.front().GetInt(0), sum));
                           });
       },
       [](const Pairs& dyn, const Pairs& con) {
         return CoGroupModel(dyn, con, /*inner=*/false);
       }});
  for (const auto& [local, name] :
       {std::pair{LocalStrategy::kHashBuildLeft, "HashBuildLeft"},
        std::pair{LocalStrategy::kHashBuildRight, "HashBuildRight"},
        std::pair{LocalStrategy::kSortMerge, "SortMerge"}}) {
    cases.push_back({std::string("Match_") + name, OperatorKind::kMatch, local,
                     JoinConstant(), JoinOp, JoinModel});
  }
  // Cross against a two-record constant; the UDF keeps one pair per
  // dynamic record so the partial solution does not grow.
  for (const auto& [local, name] :
       {std::pair{LocalStrategy::kCrossBuildLeft, "BuildLeft"},
        std::pair{LocalStrategy::kCrossBuildRight, "BuildRight"}}) {
    cases.push_back(
        {std::string("Cross_") + name, OperatorKind::kCross, local,
         Pairs{{0, 1}, {1, 2}},
         [](PlanBuilder* pb, DataSet dyn, DataSet con) {
           return pb->Cross("op", dyn, con,
                            [](const Record& d, const Record& c,
                               Collector* out) {
                              if (d.GetInt(0) % 2 == c.GetInt(0)) {
                                AddJoin(d, c, out);
                              }
                            });
         },
         [](const Pairs& dyn, const Pairs& con) {
           Pairs out;
           for (const auto& [dk, dv] : dyn) {
             for (const auto& [ck, cv] : con) {
               if (dk % 2 == ck) out.emplace_back(dk, dv + cv);
             }
           }
           return out;
         }});
  }
  cases.push_back({"CoGroup", OperatorKind::kCoGroup, LocalStrategy::kNone,
                   JoinConstant(),
                   [](PlanBuilder* pb, DataSet dyn, DataSet con) {
                     return pb->CoGroup("op", dyn, con, {0}, {0}, SumGroups);
                   },
                   [](const Pairs& dyn, const Pairs& con) {
                     return CoGroupModel(dyn, con, /*inner=*/false);
                   }});
  cases.push_back({"InnerCoGroup", OperatorKind::kInnerCoGroup,
                   LocalStrategy::kNone, JoinConstant(),
                   [](PlanBuilder* pb, DataSet dyn, DataSet con) {
                     return pb->InnerCoGroup("op", dyn, con, {0}, {0},
                                             SumGroups);
                   },
                   [](const Pairs& dyn, const Pairs& con) {
                     return CoGroupModel(dyn, con, /*inner=*/true);
                   }});
  return cases;
}

struct Config {
  int dop;
  bool caching;
  int64_t spill_budget;
};

std::string Describe(const Config& config, bool in_loop) {
  return std::string(in_loop ? "bulk iteration" : "one-shot") +
         " dop=" + std::to_string(config.dop) +
         " caching=" + (config.caching ? "on" : "off") +
         " spill_budget=" + std::to_string(config.spill_budget);
}

Pairs Sorted(Pairs pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// Runs the case's body once outside any loop (`in_loop` false) or
/// kSupersteps times as a bulk iteration over the initial solution, and
/// returns the sorted sink contents.
Pairs Execute(const OperatorCase& c, const Config& config, bool in_loop) {
  std::vector<Record> initial;
  for (const auto& kv : InitialSolution()) initial.push_back(PairRecord(kv));
  std::vector<Record> constant;
  for (const auto& kv : c.constant) constant.push_back(PairRecord(kv));
  std::vector<Record> out;

  PlanBuilder pb;
  DataSet dyn = pb.Source("initial", initial);
  DataSet con = pb.Source("constant", constant);
  if (in_loop) {
    auto it = pb.BeginBulkIteration("loop", dyn, kSupersteps, {0});
    pb.Sink("out", it.Close(c.build(&pb, it.PartialSolution(), con)), &out);
  } else {
    pb.Sink("out", c.build(&pb, dyn, con), &out);
  }
  Plan plan = std::move(pb).Finish();

  Optimizer optimizer(OptimizerOptions{.parallelism = config.dop,
                                       .enable_caching = config.caching});
  auto physical = optimizer.Optimize(plan);
  EXPECT_TRUE(physical.ok()) << physical.status().ToString();
  if (!physical.ok()) return {};
  bool found = false;
  for (PhysicalTask& task : physical->tasks) {
    if (task.name != "op") continue;
    found = true;
    EXPECT_EQ(task.kind, c.kind);
    EXPECT_EQ(task.on_dynamic_path, in_loop);
    if (c.local != LocalStrategy::kNone) task.local = c.local;
  }
  EXPECT_TRUE(found) << "no task named \"op\"";

  Executor executor(
      ExecutionOptions{.parallelism = config.dop,
                       .cache_spill_budget_bytes = config.spill_budget});
  auto result = executor.Run(*physical);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  Pairs pairs;
  for (const Record& rec : out) {
    pairs.emplace_back(rec.GetInt(0), rec.GetInt(1));
  }
  return Sorted(std::move(pairs));
}

class OperatorEquivalenceTest : public testing::TestWithParam<OperatorCase> {};

TEST_P(OperatorEquivalenceTest, OneShotAndInLoopMatchTheModel) {
  const OperatorCase& c = GetParam();
  const Pairs once = Sorted(c.model(InitialSolution(), c.constant));
  Pairs iterated = InitialSolution();
  for (int i = 0; i < kSupersteps; ++i) {
    iterated = c.model(iterated, c.constant);
  }
  iterated = Sorted(std::move(iterated));
  ASSERT_FALSE(once.empty());
  ASSERT_NE(once, iterated) << "the loop must be observable in the result";

  for (int dop : {1, 4}) {
    for (bool caching : {true, false}) {
      // 64 bytes: the spill buffer writes every cache past its first
      // records to disk and replays it from there.
      for (int64_t budget : {INT64_MAX, int64_t{64}}) {
        const Config config{dop, caching, budget};
        for (bool in_loop : {false, true}) {
          SCOPED_TRACE(Describe(config, in_loop));
          EXPECT_EQ(Execute(c, config, in_loop), in_loop ? iterated : once);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, OperatorEquivalenceTest, testing::ValuesIn(Cases()),
    [](const testing::TestParamInfo<OperatorCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace sfdf
