// Tests for the monoid calculus: monoid laws (property-style over every
// registered monoid), the comprehension interpreter, builtin functions, and
// the normalizer — including the key property that normalization preserves
// interpreter semantics.
#include <gtest/gtest.h>

#include "common/random.h"
#include "monoid/eval.h"
#include "monoid/expr.h"
#include "monoid/monoid.h"
#include "monoid/normalize.h"

namespace cleanm {
namespace {

// ---- Monoid laws ----

class MonoidLawTest : public ::testing::TestWithParam<const char*> {};

std::vector<Value> SampleElements(const std::string& monoid) {
  if (monoid == "some" || monoid == "all") {
    return {Value(true), Value(false), Value(true), Value(false), Value(true)};
  }
  return {Value(int64_t{3}), Value(int64_t{-1}), Value(int64_t{3}),
          Value(int64_t{7}), Value(int64_t{0})};
}

TEST_P(MonoidLawTest, IdentityAndAssociativity) {
  const Monoid* m = LookupMonoid(GetParam()).ValueOrDie();
  const auto elements = SampleElements(GetParam());
  for (const auto& e : elements) {
    const Value lifted = m->Unit(e);
    // zero ⊕ x = x ⊕ zero = x
    EXPECT_TRUE(m->Merge(m->zero(), lifted).Equals(lifted)) << m->name();
    EXPECT_TRUE(m->Merge(lifted, m->zero()).Equals(lifted)) << m->name();
  }
  // (a ⊕ b) ⊕ c = a ⊕ (b ⊕ c) over all sampled triples.
  for (const auto& a : elements) {
    for (const auto& b : elements) {
      for (const auto& c : elements) {
        const Value left =
            m->Merge(m->Merge(m->Unit(a), m->Unit(b)), m->Unit(c));
        const Value right =
            m->Merge(m->Unit(a), m->Merge(m->Unit(b), m->Unit(c)));
        EXPECT_TRUE(left.Equals(right)) << m->name();
      }
    }
  }
}

TEST_P(MonoidLawTest, CommutativityMatchesDeclaration) {
  const Monoid* m = LookupMonoid(GetParam()).ValueOrDie();
  if (!m->commutative()) return;  // "list" is declared non-commutative
  // Collections are commutative up to element order (bag/set semantics over
  // an ordered physical representation): compare sorted.
  auto canonical = [](Value v) {
    if (v.type() != ValueType::kList) return v;
    ValueList copy = v.AsList();
    std::sort(copy.begin(), copy.end(),
              [](const Value& x, const Value& y) { return x.Compare(y) < 0; });
    return Value(std::move(copy));
  };
  const auto elements = SampleElements(GetParam());
  for (const auto& a : elements) {
    for (const auto& b : elements) {
      EXPECT_TRUE(canonical(m->Merge(m->Unit(a), m->Unit(b)))
                      .Equals(canonical(m->Merge(m->Unit(b), m->Unit(a)))))
          << m->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, MonoidLawTest,
                         ::testing::Values("sum", "prod", "max", "min", "some",
                                           "all", "count", "bag", "list", "set"));

TEST(MonoidRegistryTest, UnknownNameIsError) {
  EXPECT_FALSE(LookupMonoid("median").ok());
}

TEST(MonoidRegistryTest, CollectionClassification) {
  EXPECT_TRUE(IsCollectionMonoid("bag"));
  EXPECT_TRUE(IsCollectionMonoid("set"));
  EXPECT_FALSE(IsCollectionMonoid("sum"));
}

// ---- Interpreter ----

Value IntList(std::initializer_list<int64_t> xs) {
  ValueList list;
  for (int64_t x : xs) list.emplace_back(x);
  return Value(std::move(list));
}

TEST(EvalTest, PaperSumExample) {
  // +{x | x <- [1,2,10], x < 5} = 3
  Env env{{"input", IntList({1, 2, 10})}};
  auto comp = Comprehension(
      "sum", Var("x"),
      {Generator("x", Var("input")),
       Predicate(Binary(BinaryOp::kLt, Var("x"), ConstInt(5)))});
  EXPECT_EQ(EvalExpr(comp, env).ValueOrDie().AsInt(), 3);
}

TEST(EvalTest, PaperCrossProductExample) {
  // set{(x,y) | x <- {1,2}, y <- {3,4}} has 4 elements.
  Env env{{"xs", IntList({1, 2})}, {"ys", IntList({3, 4})}};
  auto comp = Comprehension(
      "set", Record({"x", "y"}, {Var("x"), Var("y")}),
      {Generator("x", Var("xs")), Generator("y", Var("ys"))});
  EXPECT_EQ(EvalExpr(comp, env).ValueOrDie().AsList().size(), 4u);
}

TEST(EvalTest, NestedComprehensionAndBindings) {
  // sum{ y | x <- [1,2,3], y := x * x } = 14
  Env env{{"xs", IntList({1, 2, 3})}};
  auto comp = Comprehension(
      "sum", Var("y"),
      {Generator("x", Var("xs")),
       Binding("y", Binary(BinaryOp::kMul, Var("x"), Var("x")))});
  EXPECT_EQ(EvalExpr(comp, env).ValueOrDie().AsInt(), 14);
}

TEST(EvalTest, MaxMinOverEmptyIsNull) {
  Env env{{"xs", Value(ValueList{})}};
  auto comp = Comprehension("max", Var("x"), {Generator("x", Var("xs"))});
  EXPECT_TRUE(EvalExpr(comp, env).ValueOrDie().is_null());
}

TEST(EvalTest, FieldAccessOnGeneratedRecords) {
  ValueList people;
  people.push_back(Value(ValueStruct{{"name", Value("ann")}, {"age", Value(int64_t{30})}}));
  people.push_back(Value(ValueStruct{{"name", Value("bob")}, {"age", Value(int64_t{20})}}));
  Env env{{"people", Value(std::move(people))}};
  auto comp = Comprehension(
      "bag", FieldAccess(Var("p"), "name"),
      {Generator("p", Var("people")),
       Predicate(Binary(BinaryOp::kGt, FieldAccess(Var("p"), "age"), ConstInt(25)))});
  auto result = EvalExpr(comp, env).ValueOrDie();
  ASSERT_EQ(result.AsList().size(), 1u);
  EXPECT_EQ(result.AsList()[0].AsString(), "ann");
}

TEST(EvalTest, ErrorsSurfaceAsStatuses) {
  Env env;
  EXPECT_FALSE(EvalExpr(Var("missing"), env).ok());
  EXPECT_FALSE(EvalExpr(Call("no_such_fn", {}), env).ok());
  EXPECT_FALSE(EvalExpr(Binary(BinaryOp::kAdd, ConstBool(true), ConstInt(1)), env).ok());
  auto bad_comp = Comprehension("sum", Var("x"), {Generator("x", ConstInt(3))});
  EXPECT_FALSE(EvalExpr(bad_comp, env).ok());
}

TEST(EvalTest, ShortCircuitBooleans) {
  // (false and (1/0 = 1)) must not evaluate the division.
  Env env;
  auto div = Binary(BinaryOp::kEq,
                    Binary(BinaryOp::kDiv, ConstInt(1), ConstInt(0)), ConstInt(1));
  auto expr = Binary(BinaryOp::kAnd, ConstBool(false), div);
  EXPECT_FALSE(EvalExpr(expr, env).ValueOrDie().AsBool());
}

TEST(EvalTest, NullOrderingIsUnknown) {
  // null < 5 is null, not true; a comprehension predicate skips it, and
  // null propagates through and/or/not and an if condition.
  Env env;
  const ExprPtr lt = Binary(BinaryOp::kLt, Const(Value::Null()), ConstInt(5));
  EXPECT_TRUE(EvalExpr(lt, env).ValueOrDie().is_null());
  EXPECT_TRUE(EvalExpr(Binary(BinaryOp::kAnd, lt, ConstBool(true)), env)
                  .ValueOrDie()
                  .is_null());
  EXPECT_TRUE(EvalExpr(Unary(UnaryOp::kNot, lt), env).ValueOrDie().is_null());
  EXPECT_TRUE(
      EvalExpr(If(lt, ConstInt(1), ConstInt(2)), env).ValueOrDie().is_null());
  env["xs"] = Value(ValueList{Value(int64_t{3}), Value::Null(), Value(int64_t{7})});
  auto below_five = Comprehension(
      "count", Var("x"),
      {Generator("x", Var("xs")),
       Predicate(Binary(BinaryOp::kLt, Var("x"), ConstInt(5)))});
  EXPECT_EQ(EvalExpr(below_five, env).ValueOrDie().AsInt(), 1);
  // Equality stays two-valued, and a non-bool predicate stays an error.
  EXPECT_FALSE(EvalExpr(Binary(BinaryOp::kEq, Const(Value::Null()), ConstInt(5)), env)
                   .ValueOrDie()
                   .AsBool());
  auto bad = Comprehension("count", Var("x"),
                           {Generator("x", Var("xs")), Predicate(ConstInt(1))});
  EXPECT_EQ(EvalExpr(bad, env).status().code(), StatusCode::kTypeError);
}

// ---- Builtins ----

TEST(BuiltinTest, StringFunctions) {
  EXPECT_EQ(EvalBuiltin("prefix", {Value("021-555-1234")}).ValueOrDie().AsString(), "021");
  EXPECT_EQ(EvalBuiltin("prefix", {Value("0215551234")}).ValueOrDie().AsString(), "021");
  EXPECT_EQ(EvalBuiltin("lower", {Value("AbC")}).ValueOrDie().AsString(), "abc");
  EXPECT_EQ(EvalBuiltin("upper", {Value("aBc")}).ValueOrDie().AsString(), "ABC");
  EXPECT_EQ(EvalBuiltin("trim", {Value("  x ")}).ValueOrDie().AsString(), "x");
  EXPECT_EQ(EvalBuiltin("substr", {Value("hello"), Value(int64_t{1}), Value(int64_t{3})})
                .ValueOrDie().AsString(), "ell");
  EXPECT_EQ(EvalBuiltin("length", {Value("hello")}).ValueOrDie().AsInt(), 5);
  EXPECT_TRUE(EvalBuiltin("contains", {Value("hello"), Value("ell")}).ValueOrDie().AsBool());
  EXPECT_EQ(EvalBuiltin("concat", {Value("a"), Value(int64_t{1})}).ValueOrDie().AsString(), "a1");
  for (const int64_t q : {0, -1, 2}) {
    auto grams = EvalBuiltin("tokens", {Value("abc"), Value(q)});
    if (q < 1) {
      EXPECT_EQ(grams.status().code(), StatusCode::kInvalidArgument) << "q=" << q;
    } else {
      EXPECT_EQ(grams.ValueOrDie().ToString(), "[\"ab\",\"bc\"]");
    }
  }
}

TEST(BuiltinTest, SplitAndDateParts) {
  auto parts = EvalBuiltin("split", {Value("1996-03-12"), Value("-")}).ValueOrDie();
  ASSERT_EQ(parts.AsList().size(), 3u);
  EXPECT_EQ(parts.AsList()[0].AsString(), "1996");
  EXPECT_EQ(EvalBuiltin("year", {Value("1996-03-12")}).ValueOrDie().AsInt(), 1996);
  EXPECT_EQ(EvalBuiltin("month", {Value("1996-03-12")}).ValueOrDie().AsInt(), 3);
  EXPECT_EQ(EvalBuiltin("day", {Value("1996-03-12")}).ValueOrDie().AsInt(), 12);
  // A missing or digit-less piece is null; other characters are skipped.
  EXPECT_TRUE(EvalBuiltin("year", {Value("")}).ValueOrDie().is_null());
  EXPECT_TRUE(EvalBuiltin("year", {Value::Null()}).ValueOrDie().is_null());
  EXPECT_TRUE(EvalBuiltin("year", {Value("abc")}).ValueOrDie().is_null());
  EXPECT_TRUE(EvalBuiltin("day", {Value("1994-13")}).ValueOrDie().is_null());
  EXPECT_EQ(EvalBuiltin("day", {Value("1994-01-02 ")}).ValueOrDie().AsInt(), 2);
  EXPECT_FALSE(EvalBuiltin("year", {Value(int64_t{1996})}).ok());
}

TEST(BuiltinTest, SimilarityFunctions) {
  EXPECT_EQ(EvalBuiltin("levenshtein", {Value("kitten"), Value("sitting")})
                .ValueOrDie().AsInt(), 3);
  EXPECT_DOUBLE_EQ(
      EvalBuiltin("similarity", {Value("LD"), Value("abc"), Value("abc")})
          .ValueOrDie().AsDouble(), 1.0);
  EXPECT_TRUE(EvalBuiltin("similar",
                          {Value("LD"), Value("smith"), Value("smyth"), Value(0.8)})
                  .ValueOrDie().AsBool());
  EXPECT_FALSE(EvalBuiltin("similar",
                           {Value("LD"), Value("smith"), Value("zzzzz"), Value(0.8)})
                   .ValueOrDie().AsBool());
  EXPECT_FALSE(EvalBuiltin("similarity", {Value("bogus"), Value("a"), Value("b")}).ok());
}

TEST(BuiltinTest, AggregatesOverLists) {
  EXPECT_EQ(EvalBuiltin("count", {IntList({1, 2, 3})}).ValueOrDie().AsInt(), 3);
  EXPECT_DOUBLE_EQ(EvalBuiltin("avg", {IntList({1, 2, 3})}).ValueOrDie().AsDouble(), 2.0);
  EXPECT_TRUE(EvalBuiltin("avg", {Value(ValueList{})}).ValueOrDie().is_null());
  auto d = EvalBuiltin("distinct", {IntList({1, 1, 2})}).ValueOrDie();
  EXPECT_EQ(d.AsList().size(), 2u);
}

TEST(BuiltinTest, CollectionMerges) {
  auto bc = EvalBuiltin("bag_concat", {IntList({1}), IntList({1, 2})}).ValueOrDie();
  EXPECT_EQ(bc.AsList().size(), 3u);
  auto su = EvalBuiltin("set_union", {IntList({1}), IntList({1, 2})}).ValueOrDie();
  EXPECT_EQ(su.AsList().size(), 2u);
}

// ---- Expression utilities ----

TEST(ExprTest, FreeVarsRespectQualifierScoping) {
  // for(x <- xs, x > y) yield sum x : free = {xs, y}
  auto comp = Comprehension(
      "sum", Var("x"),
      {Generator("x", Var("xs")),
       Predicate(Binary(BinaryOp::kGt, Var("x"), Var("y")))});
  auto free = FreeVars(comp);
  EXPECT_TRUE(free.count("xs"));
  EXPECT_TRUE(free.count("y"));
  EXPECT_FALSE(free.count("x"));
}

TEST(ExprTest, SubstituteAvoidsCapturedVars) {
  // Substituting y := x inside a comprehension that re-binds x must not
  // touch occurrences under the shadowing generator... substituting *for* a
  // shadowed var leaves inner occurrences alone.
  auto comp = Comprehension("sum", Var("x"), {Generator("x", Var("xs"))});
  auto substituted = Substitute(comp, "x", ConstInt(9));
  // x is bound by the generator: head must still reference the generator var.
  EXPECT_TRUE(ExprEquals(substituted, comp));
}

TEST(ExprTest, CloneAndEquals) {
  auto e = Binary(BinaryOp::kAdd, Call("length", {Var("s")}), ConstInt(1));
  auto c = CloneExpr(e);
  EXPECT_TRUE(ExprEquals(e, c));
  c->rhs = ConstInt(2);
  EXPECT_FALSE(ExprEquals(e, c));
}

TEST(ExprTest, ToStringReadable) {
  auto comp = Comprehension(
      "sum", Var("x"),
      {Generator("x", Var("xs")), Predicate(Binary(BinaryOp::kLt, Var("x"), ConstInt(5)))});
  EXPECT_EQ(comp->ToString(), "for(x <- xs, (x < 5)) yield sum x");
}

// ---- Normalization ----

TEST(NormalizeTest, BetaReductionInlinesBindings) {
  auto comp = Comprehension(
      "sum", Var("y"),
      {Generator("x", Var("xs")),
       Binding("y", Binary(BinaryOp::kMul, Var("x"), ConstInt(2)))});
  NormalizeStats stats;
  auto normalized = Normalize(comp, &stats);
  EXPECT_GE(stats.beta_reductions, 1);
  // No bindings remain.
  ASSERT_EQ(normalized->kind, ExprKind::kComprehension);
  for (const auto& q : normalized->comp.qualifiers) {
    EXPECT_NE(q.kind, Qualifier::Kind::kBinding);
  }
}

TEST(NormalizeTest, EmptyGeneratorCollapsesToZero) {
  auto comp = Comprehension(
      "sum", Var("x"), {Generator("x", Const(Value(ValueList{})))});
  NormalizeStats stats;
  auto normalized = Normalize(comp, &stats);
  EXPECT_EQ(stats.empty_generators, 1);
  ASSERT_EQ(normalized->kind, ExprKind::kConst);
  EXPECT_EQ(normalized->literal.AsInt(), 0);
}

TEST(NormalizeTest, SingletonGeneratorBecomesBinding) {
  auto comp = Comprehension(
      "sum", Binary(BinaryOp::kAdd, Var("x"), Var("y")),
      {Generator("x", Var("xs")), Generator("y", Const(IntList({7})))});
  NormalizeStats stats;
  auto normalized = Normalize(comp, &stats);
  EXPECT_GE(stats.singleton_generators, 1);
  // After R2 + R1, the head references the constant directly.
  Env env{{"xs", IntList({1, 2})}};
  EXPECT_EQ(EvalExpr(normalized, env).ValueOrDie().AsInt(), 17);
}

TEST(NormalizeTest, GeneratorUnnestingFlattens) {
  // sum{ y | y <- bag{ x*2 | x <- xs } } → sum{ x*2 | x <- xs }
  auto inner = Comprehension(
      "bag", Binary(BinaryOp::kMul, Var("x"), ConstInt(2)), {Generator("x", Var("xs"))});
  auto outer = Comprehension("sum", Var("y"), {Generator("y", inner)});
  NormalizeStats stats;
  auto normalized = Normalize(outer, &stats);
  EXPECT_GE(stats.generator_unnestings, 1);
  ASSERT_EQ(normalized->kind, ExprKind::kComprehension);
  // Single generator directly over xs; no nested comprehension remains.
  ASSERT_EQ(normalized->comp.qualifiers.size(), 1u);
  EXPECT_EQ(normalized->comp.qualifiers[0].kind, Qualifier::Kind::kGenerator);
  EXPECT_EQ(normalized->comp.qualifiers[0].expr->kind, ExprKind::kVar);
  Env env{{"xs", IntList({1, 2, 3})}};
  EXPECT_EQ(EvalExpr(normalized, env).ValueOrDie().AsInt(), 12);
}

TEST(NormalizeTest, SetGeneratorDoesNotUnnestIntoBag) {
  // Splicing a set into a bag would change multiplicities; R4 must refuse.
  auto inner = Comprehension("set", Var("x"), {Generator("x", Var("xs"))});
  auto outer = Comprehension("bag", Var("y"), {Generator("y", inner)});
  NormalizeStats stats;
  auto normalized = Normalize(outer, &stats);
  EXPECT_EQ(stats.generator_unnestings, 0);
  Env env{{"xs", IntList({1, 1, 2})}};
  EXPECT_EQ(EvalExpr(normalized, env).ValueOrDie().AsList().size(), 2u);
}

TEST(NormalizeTest, ExistentialUnnestsIntoIdempotentMonoid) {
  // set{ x | x <- xs, some{ x = y | y <- ys } }
  auto exists = Comprehension(
      "some", Binary(BinaryOp::kEq, Var("x"), Var("y")), {Generator("y", Var("ys"))});
  auto outer = Comprehension(
      "set", Var("x"), {Generator("x", Var("xs")), Predicate(exists)});
  NormalizeStats stats;
  auto normalized = Normalize(outer, &stats);
  EXPECT_GE(stats.existential_unnestings, 1);
  Env env{{"xs", IntList({1, 2, 3})}, {"ys", IntList({2, 3, 4})}};
  EXPECT_EQ(EvalExpr(normalized, env).ValueOrDie().AsList().size(), 2u);
}

TEST(NormalizeTest, ExistentialStaysUnderNonIdempotentMonoid) {
  auto exists = Comprehension(
      "some", Binary(BinaryOp::kEq, Var("x"), Var("y")), {Generator("y", Var("ys"))});
  auto outer = Comprehension(
      "sum", Var("x"), {Generator("x", Var("xs")), Predicate(exists)});
  NormalizeStats stats;
  auto normalized = Normalize(outer, &stats);
  EXPECT_EQ(stats.existential_unnestings, 0);
  // Semantics check: 2 and 3 match, each counted once despite ys dupes.
  Env env{{"xs", IntList({1, 2, 3})}, {"ys", IntList({2, 2, 3})}};
  EXPECT_EQ(EvalExpr(normalized, env).ValueOrDie().AsInt(), 5);
}

TEST(NormalizeTest, ConstantPredicates) {
  auto keep = Comprehension(
      "sum", Var("x"), {Generator("x", Var("xs")), Predicate(ConstBool(true))});
  NormalizeStats s1;
  auto n1 = Normalize(keep, &s1);
  EXPECT_GE(s1.predicate_simplifications, 1);
  ASSERT_EQ(n1->kind, ExprKind::kComprehension);
  EXPECT_EQ(n1->comp.qualifiers.size(), 1u);

  auto drop = Comprehension(
      "sum", Var("x"), {Generator("x", Var("xs")), Predicate(ConstBool(false))});
  NormalizeStats s2;
  auto n2 = Normalize(drop, &s2);
  ASSERT_EQ(n2->kind, ExprKind::kConst);
  EXPECT_EQ(n2->literal.AsInt(), 0);
}

TEST(NormalizeTest, ConstantFoldingAndBooleanIdentities) {
  auto e = Binary(BinaryOp::kAdd, ConstInt(2), ConstInt(3));
  auto n = Normalize(e);
  ASSERT_EQ(n->kind, ExprKind::kConst);
  EXPECT_EQ(n->literal.AsInt(), 5);

  auto idand = Binary(BinaryOp::kAnd, ConstBool(true), Var("p"));
  EXPECT_TRUE(ExprEquals(Normalize(idand), Var("p")));
  auto annihilate = Binary(BinaryOp::kAnd, Var("p"), ConstBool(false));
  auto na = Normalize(annihilate);
  ASSERT_EQ(na->kind, ExprKind::kConst);
  EXPECT_FALSE(na->literal.AsBool());
  // Calls over constants fold too.
  auto call = Call("lower", {ConstString("ABC")});
  auto nc = Normalize(call);
  ASSERT_EQ(nc->kind, ExprKind::kConst);
  EXPECT_EQ(nc->literal.AsString(), "abc");
}

TEST(NormalizeTest, IfSplitOnSumHead) {
  // sum{ if x > 2 then x else 0 | x <- xs } splits into two filtered sums.
  auto comp = Comprehension(
      "sum",
      If(Binary(BinaryOp::kGt, Var("x"), ConstInt(2)), Var("x"), ConstInt(0)),
      {Generator("x", Var("xs"))});
  NormalizeStats stats;
  auto normalized = Normalize(comp, &stats);
  EXPECT_GE(stats.if_splits, 1);
  Env env{{"xs", IntList({1, 2, 3, 4})}};
  EXPECT_EQ(EvalExpr(normalized, env).ValueOrDie().AsInt(), 7);
}

TEST(NormalizeTest, FilterPushdownMovesPredicateBeforeLaterGenerators) {
  // for(x <- xs, y <- ys, x > 1) — the predicate only needs x, so it must
  // move before the y generator.
  auto comp = Comprehension(
      "sum", Binary(BinaryOp::kAdd, Var("x"), Var("y")),
      {Generator("x", Var("xs")), Generator("y", Var("ys")),
       Predicate(Binary(BinaryOp::kGt, Var("x"), ConstInt(1)))});
  NormalizeStats stats;
  auto normalized = Normalize(comp, &stats);
  EXPECT_GE(stats.filters_pushed, 1);
  ASSERT_EQ(normalized->kind, ExprKind::kComprehension);
  const auto& quals = normalized->comp.qualifiers;
  ASSERT_EQ(quals.size(), 3u);
  EXPECT_EQ(quals[0].kind, Qualifier::Kind::kGenerator);
  EXPECT_EQ(quals[1].kind, Qualifier::Kind::kPredicate);
  EXPECT_EQ(quals[2].kind, Qualifier::Kind::kGenerator);
  // Only x = 2 survives the filter: (2+10) + (2+20) = 34.
  Env env{{"xs", IntList({1, 2})}, {"ys", IntList({10, 20})}};
  EXPECT_EQ(EvalExpr(normalized, env).ValueOrDie().AsInt(), 34);
}

// ---- Property: normalization preserves semantics on random programs ----

/// Builds a random comprehension over the environment {xs, ys, k}.
ExprPtr RandomComprehension(Rng* rng, int depth);

ExprPtr RandomScalarExpr(Rng* rng, const std::vector<std::string>& vars, int depth) {
  if (depth <= 0 || rng->Chance(0.3)) {
    if (!vars.empty() && rng->Chance(0.6)) return Var(vars[rng->Uniform(vars.size())]);
    return ConstInt(static_cast<int64_t>(rng->Uniform(5)));
  }
  switch (rng->Uniform(3)) {
    case 0:
      return Binary(rng->Chance(0.5) ? BinaryOp::kAdd : BinaryOp::kMul,
                    RandomScalarExpr(rng, vars, depth - 1),
                    RandomScalarExpr(rng, vars, depth - 1));
    case 1:
      return If(Binary(BinaryOp::kLt, RandomScalarExpr(rng, vars, depth - 1),
                       RandomScalarExpr(rng, vars, depth - 1)),
                RandomScalarExpr(rng, vars, depth - 1),
                RandomScalarExpr(rng, vars, depth - 1));
    default:
      return Binary(BinaryOp::kSub, RandomScalarExpr(rng, vars, depth - 1),
                    RandomScalarExpr(rng, vars, depth - 1));
  }
}

ExprPtr RandomComprehension(Rng* rng, int depth) {
  std::vector<std::string> vars;
  std::vector<Qualifier> quals;
  const int n_quals = 1 + static_cast<int>(rng->Uniform(3));
  int gen_count = 0;
  for (int i = 0; i < n_quals; i++) {
    const uint64_t kind = rng->Uniform(3);
    if (kind == 0 || gen_count == 0) {
      std::string var = "v" + std::to_string(rng->Next() % 1000);
      // Source: base collection, or (rarely) a nested bag comprehension.
      ExprPtr source;
      if (depth > 0 && rng->Chance(0.3)) {
        source = RandomComprehension(rng, depth - 1);
        if (source->comp.monoid != "bag") {
          source = Comprehension("bag", source->comp.head, source->comp.qualifiers);
        }
      } else {
        source = Var(rng->Chance(0.5) ? "xs" : "ys");
      }
      quals.push_back(Generator(var, std::move(source)));
      vars.push_back(var);
      gen_count++;
    } else if (kind == 1) {
      quals.push_back(Predicate(
          Binary(BinaryOp::kLt, RandomScalarExpr(rng, vars, 1),
                 RandomScalarExpr(rng, vars, 1))));
    } else {
      std::string var = "b" + std::to_string(rng->Next() % 1000);
      quals.push_back(Binding(var, RandomScalarExpr(rng, vars, 1)));
      vars.push_back(var);
    }
  }
  const char* monoids[] = {"sum", "bag", "set", "max", "count"};
  return Comprehension(monoids[rng->Uniform(5)],
                       RandomScalarExpr(rng, vars, 2), std::move(quals));
}

TEST(NormalizePropertyTest, PreservesSemanticsOnRandomComprehensions) {
  Env env{{"xs", IntList({1, 2, 3})}, {"ys", IntList({0, 2, 4, 6})}};
  int compared = 0;
  for (uint64_t seed = 0; seed < 300; seed++) {
    Rng rng(seed);
    auto program = RandomComprehension(&rng, 2);
    auto before = EvalExpr(program, env);
    if (!before.ok()) continue;  // e.g. type error in random program
    auto normalized = Normalize(program);
    auto after = EvalExpr(normalized, env);
    ASSERT_TRUE(after.ok()) << "normalization broke evaluation of "
                            << program->ToString() << "\n  -> "
                            << normalized->ToString() << "\n  error: "
                            << after.status().ToString();
    // Bags may reorder under qualifier reordering: compare as multisets.
    Value b = before.ValueOrDie();
    Value a = after.ValueOrDie();
    if (b.type() == ValueType::kList) {
      auto sorted = [](const Value& v) {
        ValueList copy = v.AsList();
        std::sort(copy.begin(), copy.end(),
                  [](const Value& x, const Value& y) { return x.Compare(y) < 0; });
        return copy;
      };
      auto sb = sorted(b), sa = sorted(a);
      ASSERT_EQ(sb.size(), sa.size()) << program->ToString();
      for (size_t i = 0; i < sb.size(); i++) {
        ASSERT_TRUE(sb[i].Equals(sa[i])) << program->ToString();
      }
    } else {
      ASSERT_TRUE(b.Equals(a))
          << program->ToString() << "\n  -> " << normalized->ToString()
          << "\n  before: " << b.ToString() << " after: " << a.ToString();
    }
    compared++;
  }
  // Make sure the property actually exercised a meaningful sample.
  EXPECT_GT(compared, 100);
}

}  // namespace
}  // namespace cleanm
