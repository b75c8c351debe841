// End-to-end pipeline tests: drive the full stack — CleanM text → parser →
// monoid comprehensions (normalization) → nested algebra (translation +
// rewriting) → physical plans → virtual-cluster execution — and cross-check
// the engine's answers against the single-threaded reference algebra
// evaluator on every scenario (dedup, term validation, denial constraints,
// FD checks), at every morsel size. Shuffle-traffic metrics must be nonzero
// (the plans really repartition) and stable run to run (execution is
// deterministic).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "algebra/algebra_eval.h"
#include "algebra/rewriter.h"
#include "algebra/translate.h"
#include "cleaning/cleandb.h"
#include "cleaning/plan_builder.h"
#include "cleaning/prepared_query.h"
#include "cleaning/select_builder.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "monoid/eval.h"
#include "monoid/normalize.h"
#include "support/fixtures.h"

namespace cleanm {
namespace {

using testsupport::DatasetToRecords;
using testsupport::FastCleanDBOptions;
using testsupport::FastClusterOptions;
using testsupport::kMorselSizes;
using testsupport::MetricsSnapshot;
using testsupport::ShuffledNonzero;
using testsupport::Snapshot;
using testsupport::SnapshotsEqual;

// ---- Cross-evaluator comparison helpers ----

/// Renders a Value with struct fields sorted by name and list elements
/// sorted lexicographically, so that two evaluators' tuples compare equal
/// regardless of field ordering or of the merge-tree shape that built an
/// aggregated collection.
std::string CanonicalString(const Value& v) {
  if (v.type() == ValueType::kStruct) {
    std::vector<std::pair<std::string, std::string>> fields;
    for (const auto& [name, field] : v.AsStruct()) {
      fields.emplace_back(name, CanonicalString(field));
    }
    std::sort(fields.begin(), fields.end());
    std::string out = "{";
    for (const auto& [name, repr] : fields) out += name + ":" + repr + ",";
    return out + "}";
  }
  if (v.type() == ValueType::kList) {
    std::vector<std::string> elems;
    for (const auto& e : v.AsList()) elems.push_back(CanonicalString(e));
    std::sort(elems.begin(), elems.end());
    std::string out = "[";
    for (const auto& e : elems) out += e + ",";
    return out + "]";
  }
  return v.ToString();
}

std::multiset<std::string> CanonicalTuples(const Value& list_value) {
  std::multiset<std::string> tuples;
  for (const auto& t : list_value.AsList()) tuples.insert(CanonicalString(t));
  return tuples;
}

/// Runs `plan` on a fresh virtual cluster at every morsel size and checks
/// the collected tuples equal the reference evaluator's, as canonical
/// multisets, and are bit-identical across morsel sizes. Returns the engine
/// result and, via `metrics`, the traffic snapshot of the default-size run.
Value RunEngineAgainstReference(const AlgOpPtr& plan, const Catalog& catalog,
                                MetricsSnapshot* metrics = nullptr,
                                const PhysicalOptions& popts = {}) {
  const auto reference = CanonicalTuples(EvalPlan(plan, catalog).ValueOrDie());
  Value result;
  for (size_t morsel_rows : kMorselSizes) {
    engine::Cluster cluster(FastClusterOptions());
    PartitionCache cache;
    Executor exec{&cluster, &catalog, popts, &cache};
    Value engine_result = exec.RunToValue(plan, morsel_rows).ValueOrDie();
    EXPECT_EQ(CanonicalTuples(engine_result), reference)
        << "diverged from the reference at morsel_rows=" << morsel_rows;
    if (morsel_rows != kMorselSizes[0]) {
      EXPECT_EQ(engine_result.ToString(), result.ToString())
          << "not bit-identical at morsel_rows=" << morsel_rows;
    }
    result = std::move(engine_result);
    if (metrics) *metrics = Snapshot(cluster.metrics());
  }
  return result;
}

// ---- Scenario 1: deduplication ----

Dataset DedupCustomers() {
  datagen::CustomerOptions copts;
  copts.base_rows = 250;
  copts.duplicate_fraction = 0.1;
  copts.max_duplicates = 4;
  copts.fd_violation_fraction = 0;
  return datagen::MakeCustomer(copts);
}

TEST(E2EDedupTest, ParsedQueryMatchesReferenceEvaluator) {
  const char* query_text =
      "SELECT * FROM customer c DEDUP(exact, LD, 0.8, c.address)";
  auto query = ParseCleanM(query_text).ValueOrDie();
  ASSERT_EQ(query.dedups.size(), 1u);

  auto customers = DedupCustomers();
  Catalog catalog{{{"customer", &customers}}};
  auto cp = BuildDedupPlan("customer", "c", query.dedups[0], FilteringOptions{})
                .ValueOrDie();

  // The rewriter must leave the violation set unchanged.
  RewriteStats stats;
  auto rewritten = RewritePlan(cp.plan, &stats);

  MetricsSnapshot first, second;
  auto violations = RunEngineAgainstReference(rewritten, catalog, &first);
  EXPECT_GT(violations.AsList().size(), 0u);  // datagen injected duplicates
  EXPECT_EQ(CanonicalTuples(violations),
            CanonicalTuples(EvalPlan(cp.plan, catalog).ValueOrDie()));

  // Every reported pair is two distinct records sharing the blocking key.
  for (const auto& pair : violations.AsList()) {
    const Value p1 = pair.GetField("p1").ValueOrDie();
    const Value p2 = pair.GetField("p2").ValueOrDie();
    EXPECT_FALSE(p1.Equals(p2));
    EXPECT_TRUE(p1.GetField("address").ValueOrDie().Equals(
        p2.GetField("address").ValueOrDie()));
  }

  // Traffic: grouping by address repartitions rows, and a second identical
  // run moves exactly the same traffic.
  EXPECT_TRUE(ShuffledNonzero(first));
  (void)RunEngineAgainstReference(rewritten, catalog, &second);
  EXPECT_TRUE(SnapshotsEqual(first, second));

  // Full-stack cross-check: CleanDB::Execute on the same query text reports
  // the same number of duplicate pairs.
  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("customer", customers);
  auto result = db.Execute(query_text).ValueOrDie();
  ASSERT_EQ(result.ops.size(), 1u);
  EXPECT_EQ(result.ops[0].violations.size(), violations.AsList().size());
  EXPECT_GT(result.metrics.rows_shuffled, 0u);
}

// ---- Scenario 2: term validation ----

/// Author corpus: every clean dictionary name occurs verbatim, and every
/// third name also occurs with character noise (the dirty occurrences).
void MakeAuthorCorpus(Dataset* data, Dataset* dict, size_t* dirty_count) {
  *dict = datagen::MakeAuthorDictionary(60);
  Dataset corpus(Schema{{"author", ValueType::kString}});
  Rng rng(7);
  size_t dirty = 0;
  for (size_t i = 0; i < dict->num_rows(); i++) {
    const std::string clean = dict->row(i)[0].AsString();
    corpus.Append({Value(clean)});
    if (i % 3 == 0) {
      corpus.Append({Value(datagen::AddNoise(clean, 0.15, &rng))});
      dirty++;
    }
  }
  *data = std::move(corpus);
  *dirty_count = dirty;
}

TEST(E2ETermValidationTest, ParsedQueryMatchesReferenceEvaluator) {
  const char* query_text = R"(
    SELECT * FROM authors a, dictionary d
    CLUSTER BY(tf, LD, 0.8, a.author)
  )";
  auto query = ParseCleanM(query_text).ValueOrDie();
  ASSERT_EQ(query.cluster_bys.size(), 1u);
  ASSERT_EQ(query.from[1].table, "dictionary");

  Dataset data, dict;
  size_t dirty_count = 0;
  MakeAuthorCorpus(&data, &dict, &dirty_count);
  Catalog catalog{{{"authors", &data}, {"dictionary", &dict}}};

  auto cp = BuildTermValidationPlan("authors", "a", "dictionary", "d", "name",
                                    query.cluster_bys[0], FilteringOptions{})
                .ValueOrDie();

  MetricsSnapshot first, second;
  auto violations = RunEngineAgainstReference(cp.plan, catalog, &first);
  EXPECT_TRUE(ShuffledNonzero(first));
  (void)RunEngineAgainstReference(cp.plan, catalog, &second);
  EXPECT_TRUE(SnapshotsEqual(first, second));

  // The plan flags similar-but-not-identical (term, dictionary) couples;
  // noised variants must be among the flagged terms.
  EXPECT_GT(violations.AsList().size(), 0u);
  for (const auto& v : violations.AsList()) {
    const Value term = v.GetField("term").ValueOrDie();
    const Value suggestion = v.GetField("suggestion").ValueOrDie();
    EXPECT_FALSE(term.Equals(suggestion));
  }
}

TEST(E2ETermValidationTest, CleanDBSuggestsExactlyTheInjectedRepairs) {
  // Deterministic three-name corpus: CleanDB's ValidateTerms pre-filters
  // verbatim dictionary hits, so exactly the misspelling is flagged.
  CleanDB db(FastCleanDBOptions());
  Dataset data(Schema{{"name", ValueType::kString}});
  data.Append({Value("jonathan smith")});
  data.Append({Value("jonathan smyth")});
  data.Append({Value("mary jones")});
  Dataset dict(Schema{{"name", ValueType::kString}});
  dict.Append({Value("jonathan smith")});
  dict.Append({Value("mary jones")});
  db.RegisterTable("data", data);
  db.RegisterTable("dict", dict);

  auto cb_query = ParseCleanM(
                      "SELECT * FROM data c, dict d CLUSTER BY(tf, LD, 0.8, c.name)")
                      .ValueOrDie();
  auto result =
      db.ValidateTerms("data", "c", "dict", "name", cb_query.cluster_bys[0])
          .ValueOrDie();
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].GetField("term").ValueOrDie().AsString(),
            "jonathan smyth");
  EXPECT_EQ(result.violations[0].GetField("suggestion").ValueOrDie().AsString(),
            "jonathan smith");
}

// ---- Scenario 3: denial constraints ----

TEST(E2EDenialConstraintTest, ThetaSelfJoinMatchesReferenceAcrossAlgorithms) {
  datagen::LineitemOptions lopts;
  lopts.rows = 300;
  lopts.noise_fraction = 0.1;
  auto lineitem = datagen::MakeLineitem(lopts);
  Catalog catalog{{{"lineitem", &lineitem}}};

  // Rule ψ parsed from CleanM expression text.
  auto pred = ParseCleanMExpr(
                  "t1.price < t2.price AND t1.discount > t2.discount")
                  .ValueOrDie();
  auto plan = SelectOp(
      JoinOp(Scan("lineitem", "t1"), Scan("lineitem", "t2"), CloneExpr(pred)),
      ParseCleanMExpr("t1.price < 905").ValueOrDie());

  // The rewriter pushes the one-sided prefilter below the theta join.
  RewriteStats stats;
  auto rewritten = RewritePlan(plan, &stats);
  EXPECT_GE(stats.selects_pushed, 1);

  auto reference = EvalPlan(rewritten, catalog).ValueOrDie();
  ASSERT_GT(reference.AsList().size(), 0u);

  for (auto algo : {engine::ThetaJoinAlgo::kCartesian, engine::ThetaJoinAlgo::kMinMax,
                    engine::ThetaJoinAlgo::kMatrix}) {
    SCOPED_TRACE(engine::ThetaJoinAlgoName(algo));
    PhysicalOptions popts;
    popts.theta_algo = algo;
    MetricsSnapshot metrics;
    (void)RunEngineAgainstReference(rewritten, catalog, &metrics, popts);
    EXPECT_GT(metrics.comparisons, 0u);
  }

  // Full-stack: CleanDB's programmatic DC API agrees on the violation count.
  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("lineitem", lineitem);
  auto result = db.CheckDenialConstraint(
                      "lineitem", CloneExpr(pred),
                      ParseCleanMExpr("t1.price < 905").ValueOrDie())
                    .ValueOrDie();
  EXPECT_EQ(result.violations.size(), reference.AsList().size());
}

// ---- Scenario 4: FD check through the monoid layer ----

TEST(E2EFdTest, ComprehensionNormalizationAndPlanAgree) {
  datagen::CustomerOptions copts;
  copts.base_rows = 300;
  copts.duplicate_fraction = 0;
  copts.fd_violation_fraction = 0.05;
  auto customers = datagen::MakeCustomer(copts);
  Catalog catalog{{{"customer", &customers}}};

  auto query = ParseCleanM(
                   "SELECT * FROM customer c FD(c.address, prefix(c.phone))")
                   .ValueOrDie();
  ASSERT_EQ(query.fds.size(), 1u);

  // Monoid layer: the Section-4.4 comprehension yields one element per
  // violating *record*; normalization must preserve that bag.
  auto comp = FdComprehension("customer", "c", query.fds[0]);
  Env env{{"customer", DatasetToRecords(customers)}};
  auto interpreted = EvalExpr(comp, env).ValueOrDie();
  auto normalized_result = EvalExpr(Normalize(comp), env).ValueOrDie();
  ASSERT_GT(interpreted.AsList().size(), 0u);
  EXPECT_EQ(CanonicalString(interpreted), CanonicalString(normalized_result));

  // Algebra + engine: the Nest plan yields one tuple per violating *group*;
  // its partitions cover exactly the comprehension's violating records.
  auto cp = BuildFdPlan("customer", "c", query.fds[0]).ValueOrDie();
  MetricsSnapshot metrics;
  auto groups = RunEngineAgainstReference(cp.plan, catalog, &metrics);
  EXPECT_TRUE(ShuffledNonzero(metrics));
  size_t records_in_groups = 0;
  for (const auto& g : groups.AsList()) {
    records_in_groups += g.GetField("partition").ValueOrDie().AsList().size();
  }
  EXPECT_EQ(records_in_groups, interpreted.AsList().size());
}

// ---- Scenario 5: plain SELECT through parse → monoid → algebra → engine ----

TEST(E2ESelectTest, ParsedSelectAgreesAcrossInterpreterReferenceAndEngine) {
  auto customers = testsupport::MakeCustomers();
  Catalog catalog{{{"customer", &customers}}};

  auto query =
      ParseCleanM("SELECT c.name FROM customer c WHERE c.nationkey = 1")
          .ValueOrDie();
  ASSERT_NE(query.where, nullptr);

  // Assemble the query's monoid comprehension from the parsed pieces.
  auto comp = Comprehension(
      "bag", CloneExpr(query.select_list[0].expr),
      {Generator(query.from[0].alias, Var(query.from[0].table)),
       Predicate(CloneExpr(query.where))});

  Env env{{"customer", DatasetToRecords(customers)}};
  auto interpreted = EvalExpr(comp, env).ValueOrDie();
  ASSERT_EQ(interpreted.AsList().size(), 2u);  // alice and bob

  auto plan = TranslateComprehension(Normalize(comp)).ValueOrDie();
  auto rewritten = RewritePlan(plan);
  auto reference = EvalPlan(rewritten, catalog).ValueOrDie();
  EXPECT_EQ(CanonicalString(reference), CanonicalString(interpreted));

  auto engine_result = RunEngineAgainstReference(rewritten, catalog);
  EXPECT_EQ(CanonicalString(engine_result), CanonicalString(interpreted));
}

// ---- Scenario 6: the unified multi-clause query, metrics stability ----

TEST(E2EUnifiedQueryTest, CoalescedExecutionIsStableAndShuffles) {
  const char* query_text = R"(
    SELECT * FROM customer c
    FD(c.address, prefix(c.phone))
    FD(c.address, c.nationkey)
    DEDUP(exact, c.address)
  )";
  datagen::CustomerOptions copts;
  copts.base_rows = 400;
  copts.duplicate_fraction = 0.05;
  copts.max_duplicates = 4;
  auto customers = datagen::MakeCustomer(copts);

  auto run_once = [&]() {
    CleanDB db(FastCleanDBOptions());
    db.RegisterTable("customer", customers);
    return db.Execute(query_text).ValueOrDie();
  };
  auto first = run_once();
  auto second = run_once();

  // All three clauses share the grouping on address.
  EXPECT_EQ(first.nests_coalesced, 2);
  ASSERT_EQ(first.ops.size(), 3u);
  EXPECT_GT(first.dirty_entities.size(), 0u);

  // Nonzero, run-to-run stable shuffle traffic and identical violations.
  EXPECT_GT(first.metrics.rows_shuffled, 0u);
  EXPECT_GT(first.metrics.bytes_shuffled, 0u);
  EXPECT_TRUE(SnapshotsEqual(first.metrics, second.metrics));
  for (size_t i = 0; i < first.ops.size(); i++) {
    EXPECT_EQ(first.ops[i].violations.size(), second.ops[i].violations.size());
  }
  EXPECT_EQ(first.dirty_entities.size(), second.dirty_entities.size());
}

// ---- Scenario 7: user GROUP BY / HAVING through the full pipeline ----
//
// Parser → select_builder (monoid normalization + aggregate extraction) →
// Nest/Reduce algebra → physical compile → clustered engine, cross-checked
// against the reference algebra evaluator.

/// Lineitem-style rows with known group structure: 3 orders; order 1 has 3
/// lines (prices 10, 20, 30), order 2 has 2 (prices 5, 5), order 3 has 1
/// (price 100).
Dataset GroupedLineitems() {
  Dataset d(Schema{{"orderkey", ValueType::kInt},
                   {"linenumber", ValueType::kInt},
                   {"price", ValueType::kDouble}});
  d.Append({Value(int64_t{1}), Value(int64_t{1}), Value(10.0)});
  d.Append({Value(int64_t{1}), Value(int64_t{2}), Value(20.0)});
  d.Append({Value(int64_t{1}), Value(int64_t{3}), Value(30.0)});
  d.Append({Value(int64_t{2}), Value(int64_t{1}), Value(5.0)});
  d.Append({Value(int64_t{2}), Value(int64_t{2}), Value(5.0)});
  d.Append({Value(int64_t{3}), Value(int64_t{1}), Value(100.0)});
  return d;
}

/// Prepares + executes `query_text` on a fresh session at every morsel
/// size and cross-checks the SELECT op's rows against the reference
/// evaluator running the same lowered plan, and against each other bit for
/// bit. Returns the engine rows.
ValueList RunSelectAgainstReference(const std::string& query_text,
                                    const Dataset& data,
                                    const std::string& table = "lineitem") {
  auto query = ParseCleanM(query_text).ValueOrDie();
  auto sp = BuildSelectPlan(query, nullptr).ValueOrDie();
  Catalog catalog{{{table, &data}}};
  const auto reference = CanonicalTuples(EvalPlan(sp.plan.plan, catalog).ValueOrDie());

  ValueList rows;
  for (size_t morsel_rows : kMorselSizes) {
    CleanDB db(FastCleanDBOptions());
    db.RegisterTable(table, data);
    auto prepared = db.Prepare(query_text);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    ExecOptions opts;
    opts.morsel_rows = morsel_rows;
    auto result = prepared.value().Execute(opts).ValueOrDie();
    EXPECT_EQ(result.ops.size(), 1u);
    EXPECT_EQ(result.ops.back().op_name, "SELECT");
    EXPECT_EQ(CanonicalTuples(Value(result.ops.back().violations)), reference)
        << "diverged from the reference at morsel_rows=" << morsel_rows;
    if (morsel_rows != kMorselSizes[0]) {
      EXPECT_EQ(Value(result.ops.back().violations).ToString(), Value(rows).ToString())
          << "not bit-identical at morsel_rows=" << morsel_rows;
    }
    rows = result.ops.back().violations;
  }
  return rows;
}

TEST(E2EGroupByTest, SingleKeyGroupingWithAggregates) {
  auto rows = RunSelectAgainstReference(
      "SELECT l.orderkey AS k, count(l) AS n, sum(l.price) AS total, "
      "avg(l.price) AS mean, max(l.price) AS top "
      "FROM lineitem l GROUP BY l.orderkey",
      GroupedLineitems());
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    const int64_t k = row.GetField("k").ValueOrDie().AsInt();
    const int64_t n = row.GetField("n").ValueOrDie().AsInt();
    const double total = row.GetField("total").ValueOrDie().ToDouble();
    const double mean = row.GetField("mean").ValueOrDie().AsDouble();
    if (k == 1) {
      EXPECT_EQ(n, 3);
      EXPECT_DOUBLE_EQ(total, 60.0);
      EXPECT_DOUBLE_EQ(mean, 20.0);
      EXPECT_DOUBLE_EQ(row.GetField("top").ValueOrDie().AsDouble(), 30.0);
    }
    if (k == 2) {
      EXPECT_EQ(n, 2);
      EXPECT_DOUBLE_EQ(total, 10.0);
    }
    if (k == 3) {
      EXPECT_EQ(n, 1);
    }
  }
}

TEST(E2EGroupByTest, MultiKeyGrouping) {
  // (orderkey, linenumber) is a key of this table: every group is a
  // singleton, and both key components project back out of the group key.
  auto rows = RunSelectAgainstReference(
      "SELECT l.orderkey AS ok, l.linenumber AS ln, count(l) AS n "
      "FROM lineitem l GROUP BY l.orderkey, l.linenumber",
      GroupedLineitems());
  ASSERT_EQ(rows.size(), 6u);
  for (const auto& row : rows) {
    EXPECT_EQ(row.GetField("n").ValueOrDie().AsInt(), 1);
    EXPECT_GE(row.GetField("ok").ValueOrDie().AsInt(), 1);
    EXPECT_GE(row.GetField("ln").ValueOrDie().AsInt(), 1);
  }
}

TEST(E2EGroupByTest, HavingOverAliasedAggregate) {
  auto rows = RunSelectAgainstReference(
      "SELECT l.orderkey AS k, count(l) AS n "
      "FROM lineitem l GROUP BY l.orderkey HAVING n >= 2",
      GroupedLineitems());
  ASSERT_EQ(rows.size(), 2u);  // orders 1 and 2
  for (const auto& row : rows) {
    EXPECT_NE(row.GetField("k").ValueOrDie().AsInt(), 3);
  }
}

TEST(E2EGroupByTest, HavingCanFilterEveryGroupAndWhereCanEmptyTheInput) {
  // No group reaches count 10 → empty result, not an error.
  auto none = RunSelectAgainstReference(
      "SELECT l.orderkey AS k, count(l) AS n "
      "FROM lineitem l GROUP BY l.orderkey HAVING n > 10",
      GroupedLineitems());
  EXPECT_EQ(none.size(), 0u);

  // WHERE excludes every row → no groups at all (the empty-group edge:
  // groups never materialize with zero members).
  auto empty_input = RunSelectAgainstReference(
      "SELECT l.orderkey AS k, count(l) AS n "
      "FROM lineitem l WHERE l.price > 1000 GROUP BY l.orderkey",
      GroupedLineitems());
  EXPECT_EQ(empty_input.size(), 0u);
}

TEST(E2EGroupByTest, HavingWithoutGroupByIsTypeError) {
  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("lineitem", GroupedLineitems());
  auto prepared =
      db.Prepare("SELECT l.orderkey FROM lineitem l HAVING count(l) > 1");
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kTypeError);
  EXPECT_NE(prepared.status().message().find("GROUP BY"), std::string::npos);
}

TEST(E2EGroupByTest, BareColumnOutsideAggregateIsTypeError) {
  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("lineitem", GroupedLineitems());
  auto prepared = db.Prepare(
      "SELECT l.price FROM lineitem l GROUP BY l.orderkey");
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kTypeError);
}

TEST(E2EGroupByTest, GroupByPlanSurvivesRewriterAndMatchesReference) {
  // The full optimizer path: select_builder output through RewritePlan,
  // engine vs reference on the rewritten form.
  auto query = ParseCleanM(
                   "SELECT l.orderkey AS k, sum(l.price) AS total "
                   "FROM lineitem l WHERE l.linenumber >= 1 "
                   "GROUP BY l.orderkey HAVING total > 9")
                   .ValueOrDie();
  auto sp = BuildSelectPlan(query, nullptr).ValueOrDie();
  auto rewritten = RewritePlan(sp.plan.plan);

  auto data = GroupedLineitems();
  Catalog catalog{{{"lineitem", &data}}};
  auto reference = EvalPlan(sp.plan.plan, catalog).ValueOrDie();

  auto engine_result = RunEngineAgainstReference(rewritten, catalog);
  EXPECT_EQ(CanonicalTuples(engine_result), CanonicalTuples(reference));
  EXPECT_EQ(engine_result.AsList().size(), 3u);  // 60, 10, 100 all > 9
}

// ---- Scenario 8: operator-level pipelining (morsel-driven execution) ----
//
// Morsel boundaries must be observationally invisible: the 1- and 7-row
// runs must be *bit-identical* to the 4096-row default — the same violation
// tuples, in the same order, per operation — while really streaming
// (morsels metered). Scenarios 1–4 tie the same clauses (FD, DEDUP, DC,
// term validation) to the reference evaluator.

Dataset PipelineCustomers() {
  datagen::CustomerOptions copts;
  copts.base_rows = 300;
  copts.duplicate_fraction = 0.10;
  copts.max_duplicates = 6;
  copts.fd_violation_fraction = 0.08;
  return datagen::MakeCustomer(copts);
}

/// Violations of every operation rendered in emission order — the
/// bit-exact comparison key (no canonicalization: order and structure both
/// count).
std::vector<std::string> RenderedViolations(const QueryResult& result) {
  std::vector<std::string> out;
  for (const auto& op : result.ops) {
    for (const auto& v : op.violations) {
      out.push_back(op.op_name + "|" + v.ToString());
    }
  }
  return out;
}

std::vector<std::string> RenderedDirtyEntities(const QueryResult& result) {
  std::vector<std::string> out;
  for (const auto& [entity, ops] : result.dirty_entities) {
    std::string line = entity.ToString() + "|";
    for (const auto& op : ops) line += op + ",";
    out.push_back(std::move(line));
  }
  return out;
}

/// One cold execution on a fresh session at the given morsel size.
QueryResult ExecuteAtMorselSize(const Dataset& data, const std::string& query,
                                size_t morsel_rows) {
  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("customer", data);
  auto prepared = db.Prepare(query);
  EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
  ExecOptions opts;
  opts.morsel_rows = morsel_rows;
  return prepared.value().Execute(opts).ValueOrDie();
}

TEST(E2EMorselPipelineTest, FdAndDedupBitIdenticalAcrossMorselSizes) {
  const char* query = R"(
    SELECT * FROM customer c
    FD(c.address, prefix(c.phone))
    FD(c.address, c.nationkey)
    DEDUP(exact, LD, 0.8, c.address)
  )";
  const Dataset data = PipelineCustomers();
  const QueryResult baseline = ExecuteAtMorselSize(data, query, 4096);
  const auto baseline_violations = RenderedViolations(baseline);
  const auto baseline_entities = RenderedDirtyEntities(baseline);
  ASSERT_GT(baseline_violations.size(), 0u);
  EXPECT_GT(baseline.metrics.morsels_processed, 0u);

  // Morsel boundaries must never change results: a degenerate 1-row morsel
  // and a prime size that straddles every partition match the default.
  for (size_t morsel_rows : {size_t{1}, size_t{7}}) {
    const QueryResult piped = ExecuteAtMorselSize(data, query, morsel_rows);
    EXPECT_EQ(RenderedViolations(piped), baseline_violations)
        << "violations diverged at morsel_rows=" << morsel_rows;
    EXPECT_EQ(RenderedDirtyEntities(piped), baseline_entities)
        << "dirty entities diverged at morsel_rows=" << morsel_rows;
    EXPECT_GT(piped.metrics.morsels_processed, 0u);
  }
}

TEST(E2EMorselPipelineTest, TermValidationBitIdenticalAcrossMorselSizes) {
  // Data and dictionary share the column name so the CLUSTER BY clause
  // binds both sides.
  Dataset dict = datagen::MakeAuthorDictionary(40);
  Dataset data(Schema{{"name", ValueType::kString}});
  Rng rng(11);
  for (size_t i = 0; i < dict.num_rows(); i++) {
    const std::string clean = dict.row(i)[0].AsString();
    data.Append({Value(clean)});
    if (i % 3 == 0) data.Append({Value(datagen::AddNoise(clean, 0.15, &rng))});
  }
  Dataset named_dict(Schema{{"name", ValueType::kString}});
  for (const auto& row : dict.rows()) named_dict.Append(row);

  const char* query = "SELECT * FROM data c, dict d CLUSTER BY(tf, LD, 0.8, c.name)";
  auto run = [&](size_t morsel_rows) {
    CleanDB db(FastCleanDBOptions());
    db.RegisterTable("data", data);
    db.RegisterTable("dict", named_dict);
    auto prepared = db.Prepare(query);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    ExecOptions opts;
    opts.morsel_rows = morsel_rows;
    return prepared.value().Execute(opts).ValueOrDie();
  };
  const auto baseline = RenderedViolations(run(4096));
  ASSERT_GT(baseline.size(), 0u);  // the noised variants are flagged
  for (size_t morsel_rows : {size_t{1}, size_t{7}}) {
    EXPECT_EQ(RenderedViolations(run(morsel_rows)), baseline)
        << "term validation diverged at morsel_rows=" << morsel_rows;
  }
}

TEST(E2EMorselPipelineTest, JoinOverNestsSurvivesTinyCacheBudget) {
  // Term validation joins two Nest outputs. Under a byte budget small
  // enough that admitting the second Nest's output evicts the first's,
  // the pipelined join must not stream from the evicted entry (regression
  // test: borrowed cache pointers are detached before the other side may
  // mutate the cache).
  Dataset dict(Schema{{"name", ValueType::kString}});
  dict.Append({Value("jonathan smith")});
  dict.Append({Value("mary jones")});
  Dataset data(Schema{{"name", ValueType::kString}});
  data.Append({Value("jonathan smyth")});
  data.Append({Value("mary jones")});
  data.Append({Value("jonathan smith")});

  const char* query = "SELECT * FROM data c, dict d CLUSTER BY(tf, LD, 0.8, c.name)";
  auto run = [&](size_t cache_bytes) {
    CleanDBOptions opts = FastCleanDBOptions();
    opts.partition_cache_bytes = cache_bytes;
    CleanDB db(opts);
    db.RegisterTable("data", data);
    db.RegisterTable("dict", dict);
    auto prepared = db.Prepare(query);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    ExecOptions eo;
    eo.morsel_rows = 1;
    return prepared.value().Execute(eo).ValueOrDie();
  };
  const auto unbounded = RenderedViolations(run(0));
  EXPECT_EQ(RenderedViolations(run(1)), unbounded);  // evicts every Put
}

TEST(E2EMorselPipelineTest, DenialConstraintBitIdenticalAcrossMorselSizes) {
  const Dataset data = PipelineCustomers();
  auto run = [&](size_t morsel_rows) {
    CleanDB db(FastCleanDBOptions());
    db.RegisterTable("customer", data);
    auto prepared = db.PrepareDenialConstraint(
        "customer",
        ParseCleanMExpr("t1.address = t2.address AND t1.custkey < t2.custkey "
                        "AND t1.nationkey <> t2.nationkey")
            .ValueOrDie());
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    ExecOptions opts;
    opts.morsel_rows = morsel_rows;
    return prepared.value().Execute(opts).ValueOrDie();
  };
  const auto baseline = RenderedViolations(run(4096));
  ASSERT_GT(baseline.size(), 0u);
  for (size_t morsel_rows : {size_t{1}, size_t{7}}) {
    EXPECT_EQ(RenderedViolations(run(morsel_rows)), baseline)
        << "denial constraint diverged at morsel_rows=" << morsel_rows;
  }
}

TEST(E2EMorselPipelineTest, SinkAbortsMidMorselAndStopsTheStream) {
  class AbortingSink : public ViolationSink {
   public:
    Status OnViolation(const std::string&, const Value&) override {
      seen++;
      if (seen >= 3) return Status::IOError("sink full after 3 violations");
      return Status::OK();
    }
    Status OnDirtyEntity(const Value&, const std::vector<std::string>&) override {
      ADD_FAILURE() << "aborted execution must not reach the entity join";
      return Status::OK();
    }
    int seen = 0;
  };

  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("customer", PipelineCustomers());
  auto prepared = db.Prepare("SELECT * FROM customer c DEDUP(exact, c.address)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  // morsel_rows = 7 with the abort on the 3rd violation: the sink dies in
  // the middle of a morsel, and the pipeline must stop there — not finish
  // the morsel, not finish the operator.
  AbortingSink sink;
  ExecOptions opts;
  opts.morsel_rows = 7;
  auto status = prepared.value().ExecuteInto(sink, opts);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(sink.seen, 3);
}

TEST(E2EMorselPipelineTest, MetricsMonotonicity) {
  const char* query = R"(
    SELECT * FROM customer c
    FD(c.address, prefix(c.phone))
    DEDUP(exact, LD, 0.8, c.address)
  )";
  const Dataset data = PipelineCustomers();
  const QueryResult piped_fine = ExecuteAtMorselSize(data, query, 7);
  const QueryResult piped_coarse = ExecuteAtMorselSize(data, query, 4096);

  // Execution always streams, and finer morsels mean strictly more of them.
  EXPECT_GT(piped_coarse.metrics.morsels_processed, 0u);
  EXPECT_GT(piped_fine.metrics.morsels_processed,
            piped_coarse.metrics.morsels_processed);
  // Peak transient memory is nonzero (real work happened).
  EXPECT_GT(piped_fine.metrics.peak_bytes_materialized, 0u);

  // Identical work otherwise: the shuffle/scan/group counters agree across
  // morsel sizes (only the pipelining counters may differ).
  auto without_pipelining_counters = [](MetricsSnapshot m) {
    m.peak_bytes_materialized = 0;
    m.morsels_processed = 0;
    return m;
  };
  EXPECT_TRUE(SnapshotsEqual(without_pipelining_counters(piped_fine.metrics),
                             without_pipelining_counters(piped_coarse.metrics)));
}

}  // namespace
}  // namespace cleanm
