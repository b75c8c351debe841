// Tests for the nested relational algebra: operator semantics (reference
// evaluator) and the rewriter rules including the Figure-1 Nest
// coalescing.
#include <gtest/gtest.h>

#include "algebra/algebra.h"
#include "algebra/algebra_eval.h"
#include "algebra/rewriter.h"
#include "monoid/eval.h"
#include "support/fixtures.h"

namespace cleanm {
namespace {

using testsupport::DatasetToRecords;
using testsupport::MakeCustomers;
using testsupport::MakePublications;

TEST(AlgebraEvalTest, ScanSelectReduce) {
  auto customers = MakeCustomers();
  Catalog catalog{{{"customer", &customers}}};
  auto plan = ReduceOp(
      SelectOp(Scan("customer", "c"),
               Binary(BinaryOp::kEq, FieldAccess(Var("c"), "nationkey"), ConstInt(1))),
      "bag", FieldAccess(Var("c"), "name"));
  auto result = EvalPlan(plan, catalog).ValueOrDie();
  ASSERT_EQ(result.AsList().size(), 2u);
}

TEST(AlgebraEvalTest, CountAndSumReduce) {
  auto customers = MakeCustomers();
  Catalog catalog{{{"customer", &customers}}};
  auto count = EvalPlan(ReduceOp(Scan("customer", "c"), "count", Var("c")), catalog)
                   .ValueOrDie();
  EXPECT_EQ(count.AsInt(), 4);
  auto sum = EvalPlan(ReduceOp(Scan("customer", "c"), "sum",
                               FieldAccess(Var("c"), "nationkey")),
                      catalog)
                 .ValueOrDie();
  EXPECT_EQ(sum.AsInt(), 7);
}

TEST(AlgebraEvalTest, EquiJoinMatchesNestedLoopJoin) {
  auto customers = MakeCustomers();
  Dataset nations(Schema{{"nationkey", ValueType::kInt}, {"nation", ValueType::kString}});
  nations.Append({Value(int64_t{1}), Value("CH")});
  nations.Append({Value(int64_t{2}), Value("DE")});
  Catalog catalog{{{"customer", &customers}, {"nation", &nations}}};

  auto lk = FieldAccess(Var("c"), "nationkey");
  auto rk = FieldAccess(Var("n"), "nationkey");
  auto equi = ReduceOp(
      EquiJoinOp(Scan("customer", "c"), Scan("nation", "n"), lk, rk), "count", Var("c"));
  auto theta = ReduceOp(
      JoinOp(Scan("customer", "c"), Scan("nation", "n"), Binary(BinaryOp::kEq, lk, rk)),
      "count", Var("c"));
  EXPECT_EQ(EvalPlan(equi, catalog).ValueOrDie().AsInt(), 3);
  EXPECT_EQ(EvalPlan(theta, catalog).ValueOrDie().AsInt(), 3);
}

TEST(AlgebraEvalTest, OuterJoinPadsUnmatchedLeft) {
  auto customers = MakeCustomers();
  Dataset nations(Schema{{"nationkey", ValueType::kInt}});
  nations.Append({Value(int64_t{1})});
  Catalog catalog{{{"customer", &customers}, {"nation", &nations}}};
  auto plan = OuterJoinOp(Scan("customer", "c"), Scan("nation", "n"),
                          FieldAccess(Var("c"), "nationkey"),
                          FieldAccess(Var("n"), "nationkey"));
  auto tuples = EvalPlanTuples(plan, catalog).ValueOrDie();
  ASSERT_EQ(tuples.size(), 4u);
  int nulls = 0;
  for (const auto& t : tuples) {
    if (t.GetField("n").ValueOrDie().is_null()) nulls++;
  }
  EXPECT_EQ(nulls, 2);  // carol (nation 2) and alicia (nation 3)
}

TEST(AlgebraEvalTest, UnnestExplodesLists) {
  auto pubs = MakePublications();
  Catalog catalog{{{"pubs", &pubs}}};
  auto inner = ReduceOp(
      UnnestOp(Scan("pubs", "p"), FieldAccess(Var("p"), "authors"), "a"),
      "bag", Var("a"));
  EXPECT_EQ(EvalPlan(inner, catalog).ValueOrDie().AsList().size(), 3u);
  // Outer unnest keeps the empty publication with a null author.
  auto outer = ReduceOp(
      UnnestOp(Scan("pubs", "p"), FieldAccess(Var("p"), "authors"), "a", /*outer=*/true),
      "count", Var("p"));
  EXPECT_EQ(EvalPlan(outer, catalog).ValueOrDie().AsInt(), 4);
}

TEST(AlgebraEvalTest, NestGroupsByExactKeyWithHaving) {
  auto customers = MakeCustomers();
  Catalog catalog{{{"customer", &customers}}};
  // FD check shape: group by address, count members, keep groups > 1.
  GroupSpec group;
  group.algo = FilteringAlgo::kExactKey;
  group.term = FieldAccess(Var("c"), "address");
  auto plan = NestOp(
      Scan("customer", "c"), group,
      {{"cnt", "count", Var("c")}, {"names", "bag", FieldAccess(Var("c"), "name")}},
      Binary(BinaryOp::kGt, Var("cnt"), ConstInt(1)));
  auto tuples = EvalPlanTuples(plan, catalog).ValueOrDie();
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].GetField("key").ValueOrDie().AsString(), "rue de lausanne 1");
  EXPECT_EQ(tuples[0].GetField("cnt").ValueOrDie().AsInt(), 3);
  EXPECT_EQ(tuples[0].GetField("names").ValueOrDie().AsList().size(), 3u);
}

TEST(AlgebraEvalTest, NestWithTokenFilteringAssignsMultipleGroups) {
  Dataset words(Schema{{"w", ValueType::kString}});
  words.Append({Value("abc")});
  words.Append({Value("bcd")});
  Catalog catalog{{{"words", &words}}};
  GroupSpec group;
  group.algo = FilteringAlgo::kTokenFiltering;
  group.term = FieldAccess(Var("x"), "w");
  group.q = 2;
  auto plan = NestOp(Scan("words", "x"), group, {{"members", "bag", FieldAccess(Var("x"), "w")}});
  auto tuples = EvalPlanTuples(plan, catalog).ValueOrDie();
  // Tokens: ab, bc (shared), cd → 3 groups; "bc" has both members.
  ASSERT_EQ(tuples.size(), 3u);
  bool found_shared = false;
  for (const auto& t : tuples) {
    if (t.GetField("key").ValueOrDie().AsString() == "bc") {
      EXPECT_EQ(t.GetField("members").ValueOrDie().AsList().size(), 2u);
      found_shared = true;
    }
  }
  EXPECT_TRUE(found_shared);
}

TEST(AlgebraEvalTest, KMeansNestRequiresCenters) {
  Dataset words(Schema{{"w", ValueType::kString}});
  words.Append({Value("abc")});
  Catalog catalog{{{"words", &words}}};
  GroupSpec group;
  group.algo = FilteringAlgo::kKMeans;
  group.term = FieldAccess(Var("x"), "w");
  auto plan = NestOp(Scan("words", "x"), group, {{"members", "bag", Var("x")}});
  EXPECT_FALSE(EvalPlanTuples(plan, catalog).ok());
  plan->group.centers = {"abc", "xyz"};
  EXPECT_TRUE(EvalPlanTuples(plan, catalog).ok());
}

// ---- Rewriter ----

TEST(RewriterTest, PushesOneSidedSelectAndFindsEquiJoinAgreeingWithInterpreter) {
  auto customers = MakeCustomers();
  Dataset nations(Schema{{"nationkey", ValueType::kInt}, {"nation", ValueType::kString}});
  nations.Append({Value(int64_t{1}), Value("CH")});
  nations.Append({Value(int64_t{2}), Value("DE")});
  Catalog catalog{{{"customer", &customers}, {"nation", &nations}}};

  // bag{ {name, nation} | c <- customer, n <- nation,
  //                       c.nationkey = n.nationkey, c.nationkey < 2 }
  auto head = Record({"name", "nation"},
                     {FieldAccess(Var("c"), "name"), FieldAccess(Var("n"), "nation")});
  auto join_pred = Binary(BinaryOp::kEq, FieldAccess(Var("c"), "nationkey"),
                          FieldAccess(Var("n"), "nationkey"));
  auto filter = Binary(BinaryOp::kLt, FieldAccess(Var("c"), "nationkey"), ConstInt(2));
  auto comp = Comprehension(
      "bag", head,
      {Generator("c", Var("customer")), Generator("n", Var("nation")),
       Predicate(join_pred), Predicate(filter)});

  // Interpreter result: bind table contents as env collections.
  Env env{{"customer", DatasetToRecords(customers)},
          {"nation", DatasetToRecords(nations)}};
  auto expected = EvalExpr(comp, env).ValueOrDie();

  // The unnormalized plan of the comprehension: both predicates above a
  // cross join.
  auto plan = ReduceOp(
      SelectOp(SelectOp(JoinOp(Scan("customer", "c"), Scan("nation", "n"), nullptr),
                        join_pred),
               filter),
      "bag", head);
  auto before = EvalPlan(plan, catalog).ValueOrDie();
  ASSERT_EQ(before.AsList().size(), expected.AsList().size());

  // The rewriter must push the one-sided filter (A2) and find the
  // equi-join key (A3) without changing the result.
  RewriteStats stats;
  auto rewritten = RewritePlan(plan, &stats);
  EXPECT_GE(stats.selects_pushed, 1);
  EXPECT_GE(stats.equi_joins_detected, 1);
  auto after = EvalPlan(rewritten, catalog).ValueOrDie();
  EXPECT_EQ(after.AsList().size(), expected.AsList().size());
}

TEST(RewriterTest, FusesStackedSelects) {
  auto plan = SelectOp(SelectOp(Scan("t", "x"), ConstBool(true)), ConstBool(true));
  RewriteStats stats;
  auto rewritten = RewritePlan(plan, &stats);
  EXPECT_EQ(stats.selects_fused, 1);
  EXPECT_EQ(rewritten->kind, AlgKind::kSelect);
  EXPECT_EQ(rewritten->input->kind, AlgKind::kScan);
}

TEST(RewriterTest, CoalescesNestsOverSameInputAndKey) {
  // The Figure-1 BC case: FD check and dedup both group customer by address.
  GroupSpec by_address;
  by_address.algo = FilteringAlgo::kExactKey;
  by_address.term = FieldAccess(Var("c"), "address");

  auto fd_plan = NestOp(
      Scan("customer", "c"), by_address,
      {{"prefixes", "set", Call("prefix", {FieldAccess(Var("c"), "phone")})}},
      Binary(BinaryOp::kGt, Call("count", {Var("prefixes")}), ConstInt(1)));
  auto dedup_plan = NestOp(
      Scan("customer", "c"), by_address, {{"partition", "bag", Var("c")}},
      Binary(BinaryOp::kGt, Call("count", {Var("partition")}), ConstInt(1)));

  RewriteStats stats;
  auto coalesced = CoalesceNests({fd_plan, dedup_plan}, &stats);
  EXPECT_EQ(stats.nests_coalesced, 1);
  EXPECT_EQ(coalesced.groups_merged, 1);
  ASSERT_EQ(coalesced.roots.size(), 2u);

  // Both roots are Selects over the *same* shared Nest node.
  ASSERT_EQ(coalesced.roots[0]->kind, AlgKind::kSelect);
  ASSERT_EQ(coalesced.roots[1]->kind, AlgKind::kSelect);
  EXPECT_EQ(coalesced.roots[0]->input.get(), coalesced.roots[1]->input.get());
  const auto& merged = coalesced.roots[0]->input;
  ASSERT_EQ(merged->kind, AlgKind::kNest);
  EXPECT_EQ(merged->aggs.size(), 2u);
  EXPECT_EQ(merged->having, nullptr);

  // Semantics: each root yields the same groups as its original plan.
  auto customers = MakeCustomers();
  Catalog catalog{{{"customer", &customers}}};
  for (size_t i = 0; i < 2; i++) {
    const AlgOpPtr original = i == 0 ? fd_plan : dedup_plan;
    auto before = EvalPlanTuples(original, catalog).ValueOrDie();
    auto after = EvalPlanTuples(coalesced.roots[i], catalog).ValueOrDie();
    EXPECT_EQ(before.size(), after.size()) << "plan " << i;
  }
}

TEST(RewriterTest, CoalesceRenamesCollidingAggregations) {
  GroupSpec by_address;
  by_address.algo = FilteringAlgo::kExactKey;
  by_address.term = FieldAccess(Var("c"), "address");
  // Same agg name "vals", different definitions → must rename, not merge.
  auto p1 = NestOp(Scan("customer", "c"), by_address,
                   {{"vals", "set", FieldAccess(Var("c"), "phone")}},
                   Binary(BinaryOp::kGt, Call("count", {Var("vals")}), ConstInt(1)));
  auto p2 = NestOp(Scan("customer", "c"), by_address,
                   {{"vals", "set", FieldAccess(Var("c"), "nationkey")}},
                   Binary(BinaryOp::kGt, Call("count", {Var("vals")}), ConstInt(1)));
  auto coalesced = CoalesceNests({p1, p2});
  EXPECT_EQ(coalesced.groups_merged, 1);
  const auto& merged = coalesced.roots[0]->input;
  ASSERT_EQ(merged->aggs.size(), 2u);
  EXPECT_NE(merged->aggs[0].name, merged->aggs[1].name);

  auto customers = MakeCustomers();
  Catalog catalog{{{"customer", &customers}}};
  // p1: addresses with >1 distinct phone (rue de lausanne: 3 phones) → 1.
  // p2: addresses with >1 distinct nationkey (rue de lausanne: 1,1,3) → 1.
  EXPECT_EQ(EvalPlanTuples(coalesced.roots[0], catalog).ValueOrDie().size(), 1u);
  EXPECT_EQ(EvalPlanTuples(coalesced.roots[1], catalog).ValueOrDie().size(), 1u);
}

TEST(RewriterTest, DoesNotCoalesceDifferentKeys) {
  GroupSpec by_address, by_name;
  by_address.algo = FilteringAlgo::kExactKey;
  by_address.term = FieldAccess(Var("c"), "address");
  by_name.algo = FilteringAlgo::kExactKey;
  by_name.term = FieldAccess(Var("c"), "name");
  auto p1 = NestOp(Scan("customer", "c"), by_address, {{"a", "count", Var("c")}});
  auto p2 = NestOp(Scan("customer", "c"), by_name, {{"b", "count", Var("c")}});
  auto coalesced = CoalesceNests({p1, p2});
  EXPECT_EQ(coalesced.groups_merged, 0);
}

TEST(RewriterTest, SharedScanDetection) {
  auto p1 = SelectOp(Scan("customer", "c"), ConstBool(true));
  auto p2 = ReduceOp(Scan("customer", "c"), "count", Var("c"));
  auto p3 = Scan("orders", "o");
  auto shared = SharedScanTables({p1, p2, p3});
  ASSERT_EQ(shared.size(), 1u);
  EXPECT_EQ(shared[0], "customer");
}

TEST(AlgebraTest, ToStringRendersPlanTree) {
  auto plan = ReduceOp(SelectOp(Scan("t", "x"), ConstBool(true)), "count", Var("x"));
  const std::string s = plan->ToString();
  EXPECT_NE(s.find("Reduce"), std::string::npos);
  EXPECT_NE(s.find("Select"), std::string::npos);
  EXPECT_NE(s.find("Scan(t as x)"), std::string::npos);
}

TEST(AlgebraTest, CloneAndEquals) {
  GroupSpec g;
  g.algo = FilteringAlgo::kExactKey;
  g.term = FieldAccess(Var("c"), "address");
  auto plan = NestOp(Scan("customer", "c"), g, {{"n", "count", Var("c")}});
  auto clone = AlgClone(plan);
  EXPECT_TRUE(AlgEquals(plan, clone));
  clone->aggs[0].monoid = "sum";
  EXPECT_FALSE(AlgEquals(plan, clone));
}

}  // namespace
}  // namespace cleanm
