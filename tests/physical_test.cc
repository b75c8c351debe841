// Physical-layer tests: compiled expressions, and agreement between the
// distributed executor and the reference algebra evaluator across all
// aggregation strategies, theta-join algorithms, and morsel sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "algebra/algebra_eval.h"
#include "datagen/generators.h"
#include "physical/planner.h"
#include "support/fixtures.h"

namespace cleanm {
namespace {

using testsupport::CustomerFdPlan;
using testsupport::kMorselSizes;

engine::ClusterOptions FastCluster() {
  return testsupport::FastClusterOptions(4);
}

TEST(CompileTest, VariableAndFieldAccess) {
  TupleLayout layout{"c", "d"};
  Value tuple(ValueStruct{
      {"c", Value(ValueStruct{{"name", Value("ann")}, {"age", Value(int64_t{30})}})},
      {"d", Value(int64_t{7})}});
  auto var = CompileExpr(Var("d"), layout).ValueOrDie();
  EXPECT_EQ(var(tuple).AsInt(), 7);
  auto field = CompileExpr(FieldAccess(Var("c"), "name"), layout).ValueOrDie();
  EXPECT_EQ(field(tuple).AsString(), "ann");
  // Missing field null-propagates instead of erroring.
  auto missing = CompileExpr(FieldAccess(Var("c"), "zzz"), layout).ValueOrDie();
  EXPECT_TRUE(missing(tuple).is_null());
  // Unknown variable is a plan-time error.
  EXPECT_FALSE(CompileExpr(Var("nope"), layout).ok());
  // Unknown builtin is a plan-time error.
  EXPECT_FALSE(CompileExpr(Call("bogus_fn", {}), layout).ok());
}

TEST(CompileTest, NullPropagationInPredicates) {
  TupleLayout layout{"x"};
  Value with_null(ValueStruct{{"x", Value::Null()}});
  auto pred =
      CompilePredicate(Binary(BinaryOp::kGt, Var("x"), ConstInt(1)), layout).ValueOrDie();
  EXPECT_FALSE(pred(with_null));  // null comparison → not a violation match
  Value with_val(ValueStruct{{"x", Value(int64_t{5})}});
  EXPECT_TRUE(pred(with_val));
}

TEST(CompileTest, ArithmeticAndCalls) {
  TupleLayout layout{"x"};
  Value tuple(ValueStruct{{"x", Value("021-555-1234")}});
  auto call = CompileExpr(Call("prefix", {Var("x")}), layout).ValueOrDie();
  EXPECT_EQ(call(tuple).AsString(), "021");
  Value nums(ValueStruct{{"x", Value(int64_t{6})}});
  auto arith = CompileExpr(
      Binary(BinaryOp::kMul, Var("x"), ConstInt(7)), layout).ValueOrDie();
  EXPECT_EQ(arith(nums).AsInt(), 42);
  // Division by zero null-propagates.
  auto div = CompileExpr(Binary(BinaryOp::kDiv, Var("x"), ConstInt(0)), layout)
                 .ValueOrDie();
  EXPECT_TRUE(div(nums).is_null());
}

class PhysicalAgreementTest
    : public ::testing::TestWithParam<std::tuple<engine::AggregateStrategy, size_t>> {};

TEST_P(PhysicalAgreementTest, NestPlanMatchesReferenceEvaluator) {
  const auto [strategy, morsel_rows] = GetParam();
  datagen::CustomerOptions copts;
  copts.base_rows = 400;
  copts.duplicate_fraction = 0.1;
  auto customers = datagen::MakeCustomer(copts);
  Catalog catalog{{{"customer", &customers}}};
  auto plan = CustomerFdPlan();

  auto reference = EvalPlanTuples(plan, catalog).ValueOrDie();

  engine::Cluster cluster(FastCluster());
  PhysicalOptions popts;
  popts.aggregate_strategy = strategy;
  PartitionCache cache;
  Executor exec{&cluster, &catalog, popts, &cache};
  auto distributed = exec.RunToValue(plan, morsel_rows).ValueOrDie();

  // Same number of violating groups, same key set.
  ASSERT_EQ(distributed.AsList().size(), reference.size());
  auto keys_of = [](const std::vector<Value>& tuples) {
    std::vector<std::string> keys;
    for (const auto& t : tuples) keys.push_back(t.GetField("key").ValueOrDie().AsString());
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  std::vector<Value> dist_tuples(distributed.AsList().begin(), distributed.AsList().end());
  EXPECT_EQ(keys_of(dist_tuples), keys_of(reference));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, PhysicalAgreementTest,
    ::testing::Combine(::testing::Values(engine::AggregateStrategy::kLocalCombine,
                                         engine::AggregateStrategy::kSortShuffle,
                                         engine::AggregateStrategy::kHashShuffle),
                       ::testing::ValuesIn(kMorselSizes)));

/// Executor-vs-reference tests, run at every morsel size.
class PhysicalTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PhysicalTest, EquiJoinAndReduceMatchReference) {
  Dataset left(Schema{{"k", ValueType::kInt}, {"v", ValueType::kString}});
  Dataset right(Schema{{"k", ValueType::kInt}, {"w", ValueType::kString}});
  for (int i = 0; i < 50; i++) {
    left.Append({Value(int64_t{i % 10}), Value("l" + std::to_string(i))});
  }
  for (int i = 0; i < 10; i++) {
    right.Append({Value(int64_t{i}), Value("r" + std::to_string(i))});
  }
  Catalog catalog{{{"L", &left}, {"R", &right}}};
  auto plan = ReduceOp(
      EquiJoinOp(Scan("L", "l"), Scan("R", "r"), FieldAccess(Var("l"), "k"),
                 FieldAccess(Var("r"), "k")),
      "count", Var("l"));
  auto expected = EvalPlan(plan, catalog).ValueOrDie();

  engine::Cluster cluster(FastCluster());
  PartitionCache cache;
  Executor exec{&cluster, &catalog, {}, &cache};
  auto actual = exec.RunToValue(plan, GetParam()).ValueOrDie();
  EXPECT_EQ(actual.AsInt(), expected.AsInt());
  EXPECT_EQ(actual.AsInt(), 50);
}

TEST_P(PhysicalTest, NullOrderingComparisonsMatchReference) {
  // An ordering against null is unknown in both evaluators, and a Select
  // or a Nest's having drops what it cannot decide: of x in {3, null, 7},
  // only one row passes each comparison with 5.
  Dataset t(Schema{{"x", ValueType::kInt}});
  for (const Value& x : {Value(int64_t{3}), Value::Null(), Value(int64_t{7})}) {
    t.Append({x});
  }
  Catalog catalog{{{"t", &t}}};
  GroupSpec by_x;
  by_x.algo = FilteringAlgo::kExactKey;
  by_x.term = FieldAccess(Var("t"), "x");
  for (BinaryOp op : {BinaryOp::kLt, BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe}) {
    for (const AlgOpPtr& plan :
         {SelectOp(Scan("t", "t"), Binary(op, FieldAccess(Var("t"), "x"), ConstInt(5))),
          NestOp(Scan("t", "t"), by_x, {{"n", "count", Var("t")}},
                 Binary(op, Var("key"), ConstInt(5)))}) {
      const std::vector<Value> expected = EvalPlanTuples(plan, catalog).ValueOrDie();
      std::vector<std::string> reference;
      for (const auto& tuple : expected) reference.push_back(CanonicalString(tuple));
      engine::Cluster cluster(FastCluster());
      PartitionCache cache;
      Executor exec{&cluster, &catalog, {}, &cache};
      const Value actual = exec.RunToValue(plan, GetParam()).ValueOrDie();
      std::vector<std::string> distributed;
      for (const auto& tuple : actual.AsList()) distributed.push_back(CanonicalString(tuple));
      std::sort(reference.begin(), reference.end());
      std::sort(distributed.begin(), distributed.end());
      EXPECT_EQ(distributed, reference) << plan->ToString();
      EXPECT_EQ(reference.size(), 1u) << plan->ToString();
    }
  }
}

TEST_P(PhysicalTest, ThetaJoinMatchesReferenceAcrossAlgorithms) {
  Dataset t(Schema{{"price", ValueType::kDouble}, {"discount", ValueType::kDouble}});
  Rng rng(5);
  for (int i = 0; i < 40; i++) {
    t.Append({Value(static_cast<double>(rng.Uniform(100))),
              Value(static_cast<double>(rng.Uniform(10)) / 100.0)});
  }
  Catalog catalog{{{"t", &t}}};
  // ψ-shaped rule: t1.price < t2.price and t1.discount > t2.discount.
  auto pred = Binary(
      BinaryOp::kAnd,
      Binary(BinaryOp::kLt, FieldAccess(Var("t1"), "price"),
             FieldAccess(Var("t2"), "price")),
      Binary(BinaryOp::kGt, FieldAccess(Var("t1"), "discount"),
             FieldAccess(Var("t2"), "discount")));
  auto plan = ReduceOp(JoinOp(Scan("t", "t1"), Scan("t", "t2"), pred), "count", Var("t1"));
  auto expected = EvalPlan(plan, catalog).ValueOrDie();

  for (auto algo : {engine::ThetaJoinAlgo::kCartesian, engine::ThetaJoinAlgo::kMinMax,
                    engine::ThetaJoinAlgo::kMatrix}) {
    engine::Cluster cluster(FastCluster());
    PhysicalOptions popts;
    popts.theta_algo = algo;
    PartitionCache cache;
    Executor exec{&cluster, &catalog, popts, &cache};
    auto actual = exec.RunToValue(plan, GetParam()).ValueOrDie();
    EXPECT_EQ(actual.AsInt(), expected.AsInt()) << engine::ThetaJoinAlgoName(algo);
  }
}

TEST_P(PhysicalTest, UnnestAndOuterUnnest) {
  Dataset pubs(Schema{{"title", ValueType::kString}, {"authors", ValueType::kList}});
  pubs.Append({Value("p1"), Value(ValueList{Value("a"), Value("b")})});
  pubs.Append({Value("p2"), Value(ValueList{})});
  Catalog catalog{{{"pubs", &pubs}}};
  engine::Cluster cluster(FastCluster());
  PartitionCache cache;
  Executor exec{&cluster, &catalog, {}, &cache};
  auto inner_plan = ReduceOp(
      UnnestOp(Scan("pubs", "p"), FieldAccess(Var("p"), "authors"), "a"), "count",
      Var("a"));
  auto inner = exec.RunToValue(inner_plan, GetParam()).ValueOrDie();
  EXPECT_EQ(inner.AsInt(), 2);
  EXPECT_EQ(inner.AsInt(), EvalPlan(inner_plan, catalog).ValueOrDie().AsInt());
  auto outer_plan = ReduceOp(
      UnnestOp(Scan("pubs", "p"), FieldAccess(Var("p"), "authors"), "a", true), "count",
      Var("p"));
  auto outer = exec.RunToValue(outer_plan, GetParam()).ValueOrDie();
  EXPECT_EQ(outer.AsInt(), 3);
  EXPECT_EQ(outer.AsInt(), EvalPlan(outer_plan, catalog).ValueOrDie().AsInt());

  // A Select directly on an Unnest tests each element inside the Unnest,
  // on one padded tuple per input row.
  Dataset lists(Schema{{"id", ValueType::kInt}, {"xs", ValueType::kList}});
  lists.Append({Value(int64_t{1}), Value(ValueList{Value("x"), Value("y"), Value("z")})});
  lists.Append({Value(int64_t{2}), Value(ValueList{})});
  lists.Append({Value(int64_t{3}), Value(ValueList{Value(int64_t{4})})});
  Catalog lists_catalog{{{"lists", &lists}}};
  PartitionCache lists_cache;
  Executor lists_exec{&cluster, &lists_catalog, {}, &lists_cache};
  auto rendered = [](const Value& tuples) {
    std::vector<std::string> out;
    for (const auto& t : tuples.AsList()) out.push_back(t.ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  auto pairs_over = [](ExprPtr pred) {
    return SelectOp(UnnestOp(UnnestOp(Scan("lists", "l"), FieldAccess(Var("l"), "xs"), "a"),
                             FieldAccess(Var("l"), "xs"), "b"),
                    std::move(pred));
  };

  // Several elements of one list pass (a = "x" pairs with "y" and "z"), and
  // each emitted tuple keeps its own element: a padded tuple leaked
  // downstream would repeat the list's last element. Every (tuple, element)
  // test counts in `comparisons`: 3 × 3 + 1 × 1.
  auto ordered = pairs_over(Binary(BinaryOp::kLt, Var("a"), Var("b")));
  const uint64_t comparisons_before = cluster.metrics().comparisons.load();
  auto ordered_out = lists_exec.RunToValue(ordered, GetParam()).ValueOrDie();
  EXPECT_EQ(ordered_out.AsList().size(), 3u);
  EXPECT_EQ(rendered(ordered_out),
            rendered(EvalPlan(ordered, lists_catalog).ValueOrDie()));
  EXPECT_EQ(cluster.metrics().comparisons.load() - comparisons_before, 10u);

  // A Select over an OuterUnnest of an empty list tests the Null pad.
  auto null_pad = SelectOp(
      UnnestOp(Scan("lists", "l"), FieldAccess(Var("l"), "xs"), "b", true),
      Call("is_null", {Var("b")}));
  auto null_pad_out = lists_exec.RunToValue(null_pad, GetParam()).ValueOrDie();
  EXPECT_EQ(null_pad_out.AsList().size(), 1u);
  EXPECT_EQ(rendered(null_pad_out),
            rendered(EvalPlan(null_pad, lists_catalog).ValueOrDie()));

  // A predicate that throws on one pair quarantines exactly that pair: the
  // poison row's single pair reads a string as substr's start, and every
  // other pair still matches the reference over the rows without it.
  Dataset ints(lists.schema());
  ints.Append({Value(int64_t{1}),
               Value(ValueList{Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{3})})});
  ints.Append({Value(int64_t{2}), Value(ValueList{Value(int64_t{4})})});
  Catalog ints_catalog{{{"lists", &ints}}};
  Dataset poisoned = ints;
  poisoned.Append({Value(int64_t{3}), Value(ValueList{Value("poison")})});
  Catalog poisoned_catalog{{{"lists", &poisoned}}};
  PartitionCache poisoned_cache;
  engine::QuarantineSink quarantine(10);
  Executor poisoned_exec{&cluster, &poisoned_catalog, {}, &poisoned_cache};
  poisoned_exec.quarantine = &quarantine;
  auto throwing = pairs_over(Binary(
      BinaryOp::kAnd, Binary(BinaryOp::kLe, Var("a"), Var("b")),
      Binary(BinaryOp::kNe, Call("substr", {ConstString("abcdef"), Var("b"), ConstInt(1)}),
             ConstString(""))));
  auto throwing_out = poisoned_exec.RunToValue(throwing, GetParam()).ValueOrDie();
  EXPECT_EQ(throwing_out.AsList().size(), 7u);
  EXPECT_EQ(rendered(throwing_out),
            rendered(EvalPlan(throwing, ints_catalog).ValueOrDie()));
  const auto quarantined = quarantine.TakeRows();
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0].table, "lists");
}

TEST_P(PhysicalTest, ScanCacheSharesTablesAcrossPlans) {
  Dataset t(Schema{{"x", ValueType::kInt}});
  for (int i = 0; i < 100; i++) t.Append({Value(int64_t{i})});
  Catalog catalog{{{"t", &t}}};
  engine::Cluster cluster(FastCluster());
  PartitionCache cache;
  Executor exec{&cluster, &catalog, {}, &cache};
  (void)exec.RunToValue(ReduceOp(Scan("t", "a"), "count", Var("a")), GetParam())
      .ValueOrDie();
  const uint64_t scanned_once = cluster.metrics().rows_scanned.load();
  (void)exec.RunToValue(ReduceOp(Scan("t", "b"), "count", Var("b")), GetParam())
      .ValueOrDie();
  // Second plan reuses the cached scan: no additional parallelize.
  EXPECT_EQ(cluster.metrics().rows_scanned.load(), scanned_once);
}

TEST_P(PhysicalTest, NestCacheExecutesSharedNestOnce) {
  datagen::CustomerOptions copts;
  copts.base_rows = 200;
  auto customers = datagen::MakeCustomer(copts);
  Catalog catalog{{{"customer", &customers}}};
  auto shared = CustomerFdPlan();
  shared->having = nullptr;  // shared node carries no having
  auto root1 = SelectOp(shared, Binary(BinaryOp::kGt, Call("count", {Var("vals")}),
                                       ConstInt(1)));
  auto root2 = SelectOp(shared, Binary(BinaryOp::kGt, Call("count", {Var("partition")}),
                                       ConstInt(1)));
  engine::Cluster cluster(FastCluster());
  PartitionCache cache;
  Executor exec{&cluster, &catalog, {}, &cache};
  (void)exec.RunToValue(root1, GetParam()).ValueOrDie();
  const uint64_t groups_after_first = cluster.metrics().groups_built.load();
  (void)exec.RunToValue(root2, GetParam()).ValueOrDie();
  // The second root hits the nest cache: no additional grouping work.
  EXPECT_EQ(cluster.metrics().groups_built.load(), groups_after_first);
}

INSTANTIATE_TEST_SUITE_P(Morsels, PhysicalTest, ::testing::ValuesIn(kMorselSizes));

}  // namespace
}  // namespace cleanm
