// Tests for the CleanM parser, the clause desugaring, the CleanDB facade
// (end-to-end queries including the paper's motivating example), and the
// baseline simulators' documented restrictions.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baselines.h"
#include "cleaning/cleandb.h"
#include "datagen/generators.h"
#include "support/fixtures.h"

namespace cleanm {
namespace {

CleanDBOptions FastOptions() { return testsupport::FastCleanDBOptions(4); }

// ---- Parser ----

TEST(ParserTest, MotivatingExampleQuery) {
  const char* query = R"(
    SELECT c.name, c.address, *
    FROM customer c, dictionary d
    FD(c.address, prefix(c.phone))
    DEDUP(token filtering, LD, 0.8, c.address)
    CLUSTER BY(token filtering, LD, 0.8, c.name)
  )";
  auto q = ParseCleanM(query).ValueOrDie();
  ASSERT_EQ(q.from.size(), 2u);
  EXPECT_EQ(q.from[0].table, "customer");
  EXPECT_EQ(q.from[0].alias, "c");
  EXPECT_EQ(q.from[1].alias, "d");
  ASSERT_EQ(q.select_list.size(), 3u);
  EXPECT_TRUE(q.select_list[2].star);
  ASSERT_EQ(q.fds.size(), 1u);
  EXPECT_EQ(q.fds[0].rhs[0]->kind, ExprKind::kCall);
  EXPECT_EQ(q.fds[0].rhs[0]->name, "prefix");
  ASSERT_EQ(q.dedups.size(), 1u);
  EXPECT_EQ(q.dedups[0].op, FilteringAlgo::kTokenFiltering);
  EXPECT_EQ(q.dedups[0].metric, SimilarityMetric::kLevenshtein);
  EXPECT_DOUBLE_EQ(q.dedups[0].theta, 0.8);
  ASSERT_EQ(q.cluster_bys.size(), 1u);
  EXPECT_EQ(q.cluster_bys[0].term->name, "name");
}

TEST(ParserTest, WhereGroupByHaving) {
  auto q = ParseCleanM(
               "SELECT l.orderkey FROM lineitem l WHERE l.price > 100 AND "
               "l.discount <= 0.05 GROUP BY l.orderkey HAVING count(l.orderkey) > 2")
               .ValueOrDie();
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->bin_op, BinaryOp::kAnd);
  ASSERT_EQ(q.group_by.size(), 1u);
  ASSERT_NE(q.having, nullptr);
}

TEST(ParserTest, MultiAttributeFdAndDefaults) {
  auto q = ParseCleanM(
               "SELECT * FROM lineitem l FD((l.orderkey, l.linenumber), l.suppkey) "
               "DEDUP(exact, l.name)")
               .ValueOrDie();
  ASSERT_EQ(q.fds.size(), 1u);
  EXPECT_EQ(q.fds[0].lhs.size(), 2u);
  ASSERT_EQ(q.dedups.size(), 1u);
  EXPECT_EQ(q.dedups[0].op, FilteringAlgo::kExactKey);
  // Defaults kept when metric/theta omitted.
  EXPECT_DOUBLE_EQ(q.dedups[0].theta, 0.8);
}

TEST(ParserTest, DistinctAndExpressions) {
  auto q = ParseCleanM("SELECT DISTINCT c.name AS n FROM t c WHERE NOT (c.x = 1)")
               .ValueOrDie();
  EXPECT_TRUE(q.distinct);
  EXPECT_EQ(q.select_list[0].alias, "n");
  EXPECT_EQ(q.where->kind, ExprKind::kUnary);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseCleanM("FROM t").ok());
  EXPECT_FALSE(ParseCleanM("SELECT * FROM").ok());
  EXPECT_FALSE(ParseCleanM("SELECT * FROM t FD(a.b)").ok());          // missing RHS
  EXPECT_FALSE(ParseCleanM("SELECT * FROM t DEDUP(bogus_algo, x)").ok());
  EXPECT_FALSE(ParseCleanM("SELECT * FROM t trailing garbage ,").ok());
}

TEST(ParserTest, SimilarityThresholdOutsideUnitIntervalIsPositionedError) {
  const std::pair<const char*, const char*> cases[] = {
      {"SELECT * FROM t c DEDUP(tf, LD, 1.5, c.name)", "column 33"},
      {"SELECT * FROM a x, d y CLUSTER BY(tf, LD, -0.5, x.name)", "column 43"}};
  for (const auto& [query, column] : cases) {
    auto q = ParseCleanM(query);
    ASSERT_FALSE(q.ok()) << query;
    EXPECT_EQ(q.status().code(), StatusCode::kParseError);
    EXPECT_NE(q.status().message().find("[0, 1]"), std::string::npos)
        << q.status().ToString();
    EXPECT_NE(q.status().message().find(column), std::string::npos)
        << q.status().ToString();
  }
  // The bounds themselves are thresholds.
  EXPECT_TRUE(ParseCleanM("SELECT * FROM t c DEDUP(tf, LD, 1, c.name)").ok());
  EXPECT_TRUE(ParseCleanM("SELECT * FROM t c DEDUP(tf, LD, 0, c.name)").ok());
}

TEST(ParserTest, StandaloneExpressions) {
  auto e = ParseCleanMExpr("prefix(c.phone)").ValueOrDie();
  EXPECT_EQ(e->kind, ExprKind::kCall);
  EXPECT_EQ(e->args[0]->ToString(), "c.phone");
  EXPECT_FALSE(ParseCleanMExpr("1 +").ok());
  auto num = ParseCleanMExpr("0.8").ValueOrDie();
  EXPECT_DOUBLE_EQ(num->literal.AsDouble(), 0.8);
}

// ---- CleanDB end-to-end ----

TEST(CleanDBTest, FdCheckFindsInjectedViolations) {
  CleanDB db(FastOptions());
  datagen::CustomerOptions copts;
  copts.base_rows = 500;
  copts.duplicate_fraction = 0;
  copts.fd_violation_fraction = 0.05;
  db.RegisterTable("customer", datagen::MakeCustomer(copts));

  FdClause fd;
  fd.lhs = {ParseCleanMExpr("c.address").ValueOrDie()};
  fd.rhs = {ParseCleanMExpr("prefix(c.phone)").ValueOrDie()};
  auto result = db.CheckFd("customer", "c", fd).ValueOrDie();
  EXPECT_GT(result.violations.size(), 0u);
  // Every reported group really has > 1 distinct prefix.
  for (const auto& v : result.violations) {
    EXPECT_GT(v.GetField("vals").ValueOrDie().AsList().size(), 1u);
  }
}

TEST(CleanDBTest, CleanDataHasNoFdViolations) {
  CleanDB db(FastOptions());
  datagen::CustomerOptions copts;
  copts.base_rows = 300;
  copts.duplicate_fraction = 0;
  copts.fd_violation_fraction = 0;
  db.RegisterTable("customer", datagen::MakeCustomer(copts));
  FdClause fd;
  fd.lhs = {ParseCleanMExpr("c.address").ValueOrDie()};
  fd.rhs = {ParseCleanMExpr("prefix(c.phone)").ValueOrDie()};
  auto result = db.CheckFd("customer", "c", fd).ValueOrDie();
  EXPECT_EQ(result.violations.size(), 0u);
}

TEST(CleanDBTest, DenialConstraintThetaJoin) {
  CleanDB db(FastOptions());
  Dataset t(Schema{{"price", ValueType::kDouble}, {"discount", ValueType::kDouble}});
  t.Append({Value(10.0), Value(0.05)});
  t.Append({Value(20.0), Value(0.02)});  // violates with row 0
  t.Append({Value(30.0), Value(0.08)});
  db.RegisterTable("items", t);
  auto pred = Binary(
      BinaryOp::kAnd,
      Binary(BinaryOp::kLt, ParseCleanMExpr("t1.price").ValueOrDie(),
             ParseCleanMExpr("t2.price").ValueOrDie()),
      Binary(BinaryOp::kGt, ParseCleanMExpr("t1.discount").ValueOrDie(),
             ParseCleanMExpr("t2.discount").ValueOrDie()));
  auto result = db.CheckDenialConstraint("items", pred).ValueOrDie();
  // (10,0.05)<(20,0.02) violates; (10,0.05)<(30,0.08) does not;
  // (20,0.02)<(30,0.08) does not.
  EXPECT_EQ(result.violations.size(), 1u);
}

TEST(CleanDBTest, DeduplicationFindsInjectedDuplicates) {
  CleanDB db(FastOptions());
  datagen::CustomerOptions copts;
  copts.base_rows = 300;
  copts.duplicate_fraction = 0.1;
  copts.max_duplicates = 5;
  copts.fd_violation_fraction = 0;
  db.RegisterTable("customer", datagen::MakeCustomer(copts));
  DedupClause dedup;
  dedup.op = FilteringAlgo::kExactKey;
  dedup.attributes = {ParseCleanMExpr("c.address").ValueOrDie()};
  dedup.theta = 0.6;
  auto result = db.Deduplicate("customer", "c", dedup).ValueOrDie();
  EXPECT_GT(result.violations.size(), 0u);
  // Every reported pair is really similar.
  for (const auto& v : result.violations) {
    const Value p1 = v.GetField("p1").ValueOrDie();
    const Value p2 = v.GetField("p2").ValueOrDie();
    EXPECT_FALSE(p1.Equals(p2));
  }
}

TEST(CleanDBTest, TermValidationSuggestsCorrectRepairs) {
  CleanDB db(FastOptions());
  Dataset data(Schema{{"name", ValueType::kString}});
  data.Append({Value("jonathan smith")});
  data.Append({Value("jonathan smyth")});  // misspelling
  data.Append({Value("mary jones")});
  Dataset dict(Schema{{"name", ValueType::kString}});
  dict.Append({Value("jonathan smith")});
  dict.Append({Value("mary jones")});
  db.RegisterTable("data", data);
  db.RegisterTable("dict", dict);

  ClusterByClause cb;
  cb.op = FilteringAlgo::kTokenFiltering;
  cb.metric = SimilarityMetric::kLevenshtein;
  cb.theta = 0.8;
  cb.term = ParseCleanMExpr("c.name").ValueOrDie();
  auto result = db.ValidateTerms("data", "c", "dict", "name", cb).ValueOrDie();
  // Exactly the misspelled name is flagged, repaired to the dictionary form.
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].GetField("term").ValueOrDie().AsString(),
            "jonathan smyth");
  EXPECT_EQ(result.violations[0].GetField("suggestion").ValueOrDie().AsString(),
            "jonathan smith");
}

TEST(CleanDBTest, TermValidationUnknownColumnIsKeyError) {
  CleanDB db(FastOptions());
  Dataset names(Schema{{"name", ValueType::kString}});
  names.Append({Value("jonathan smith")});
  db.RegisterTable("data", names);
  db.RegisterTable("dict", names);
  ClusterByClause cb;
  cb.op = FilteringAlgo::kTokenFiltering;
  cb.term = ParseCleanMExpr("c.nope").ValueOrDie();
  auto unknown_term = db.ValidateTerms("data", "c", "dict", "name", cb);
  EXPECT_EQ(unknown_term.status().code(), StatusCode::kKeyError);
  EXPECT_NE(unknown_term.status().message().find("'nope'"), std::string::npos);
  cb.term = ParseCleanMExpr("c.name").ValueOrDie();
  auto unknown_dict = db.ValidateTerms("data", "c", "dict", "nope", cb);
  EXPECT_EQ(unknown_dict.status().code(), StatusCode::kKeyError);
  EXPECT_NE(unknown_dict.status().message().find("'nope'"), std::string::npos);
}

TEST(CleanDBTest, TokenFilteringWithQZeroFailsWithAStatus) {
  CleanDBOptions options = FastOptions();
  options.filtering.q = 0;
  CleanDB db(options);
  Dataset names(Schema{{"name", ValueType::kString}});
  names.Append({Value("jonathan smith")});
  names.Append({Value("jonathan smyth")});
  db.RegisterTable("t", names);
  db.RegisterTable("dict", names);
  EXPECT_EQ(db.Execute("SELECT * FROM t c DEDUP(tf, LD, 0.8, c.name)").status().code(),
            StatusCode::kInvalidArgument);
  DedupClause dedup;
  dedup.op = FilteringAlgo::kTokenFiltering;
  dedup.attributes = {ParseCleanMExpr("c.name").ValueOrDie()};
  EXPECT_EQ(db.Deduplicate("t", "c", dedup).status().code(),
            StatusCode::kInvalidArgument);
  ClusterByClause cb;
  cb.op = FilteringAlgo::kTokenFiltering;
  cb.term = ParseCleanMExpr("c.name").ValueOrDie();
  EXPECT_EQ(db.ValidateTerms("t", "c", "dict", "name", cb).status().code(),
            StatusCode::kInvalidArgument);
  // Exact blocking forms no q-grams, so q does not matter to it.
  dedup.op = FilteringAlgo::kExactKey;
  EXPECT_TRUE(db.Deduplicate("t", "c", dedup).ok());
}

TEST(CleanDBTest, UnifiedQueryCoalescesSharedGroupings) {
  // Figure 5's query: FD1 address→prefix(phone), FD2 address→nationkey,
  // DEDUP on address. All three group by address → two coalescings.
  CleanDB db(FastOptions());
  datagen::CustomerOptions copts;
  copts.base_rows = 400;
  copts.duplicate_fraction = 0.05;
  copts.max_duplicates = 4;
  db.RegisterTable("customer", datagen::MakeCustomer(copts));
  const char* query = R"(
    SELECT * FROM customer c
    FD(c.address, prefix(c.phone))
    FD(c.address, c.nationkey)
    DEDUP(exact, c.address)
  )";
  auto result = db.Execute(query).ValueOrDie();
  EXPECT_EQ(result.nests_coalesced, 2);
  EXPECT_EQ(result.ops.size(), 3u);
  EXPECT_GT(result.dirty_entities.size(), 0u);
  // Unified execution vs standalone: the coalesced run shuffles less.
  CleanDBOptions separate = FastOptions();
  separate.unify_operations = false;
  CleanDB db2(separate);
  db2.RegisterTable("customer", datagen::MakeCustomer(copts));
  auto result2 = db2.Execute(query).ValueOrDie();
  EXPECT_EQ(result2.nests_coalesced, 0);
  EXPECT_LT(result.metrics.rows_shuffled, result2.metrics.rows_shuffled);
  // Same violations either way.
  for (size_t i = 0; i < 3; i++) {
    EXPECT_EQ(result.ops[i].violations.size(), result2.ops[i].violations.size());
  }
}

/// A dataset's rows as sorted canonical strings: Transform returns a bag,
/// its rows in the engine's node-major order.
std::vector<std::string> SortedRows(const Dataset& d) {
  std::vector<std::string> rows;
  for (const auto& row : d.rows()) {
    std::string line;
    for (const auto& cell : row) line += CanonicalString(cell) + "|";
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(CleanDBTest, TransformsSplitDateAndFillMissing) {
  CleanDB db(FastOptions());
  datagen::LineitemOptions lopts;
  lopts.rows = 200;
  lopts.missing_fraction = 0.2;
  lopts.noise_fraction = 0;
  const Dataset input = datagen::MakeLineitem(lopts);
  db.RegisterTable("lineitem", input);

  // Expected outputs, written from the spec: a null quantity becomes the
  // mean of the others (whole numbers, so the sum is exact in any order);
  // a generated "YYYY-MM-DD" date splits into three ints.
  const size_t qty = input.schema().IndexOf("quantity").ValueOrDie();
  const size_t date = input.schema().IndexOf("receiptdate").ValueOrDie();
  double sum = 0;
  size_t present = 0;
  for (const auto& row : input.rows()) {
    if (row[qty].is_null()) continue;
    sum += row[qty].AsDouble();
    present++;
  }
  ASSERT_LT(present, input.num_rows());
  Schema split_schema = input.schema();
  for (const char* part : {"_year", "_month", "_day"}) {
    split_schema.AddField({std::string("receiptdate") + part, ValueType::kInt});
  }
  Dataset filled(input.schema()), split(split_schema), both(split_schema);
  for (const auto& row : input.rows()) {
    Row f = row;
    if (f[qty].is_null()) f[qty] = Value(sum / static_cast<double>(present));
    Row parts;
    const std::string& d = row[date].AsString();
    for (size_t pos : {0, 5, 8}) {
      const int64_t part = std::stoi(d.substr(pos));
      parts.emplace_back(part);
    }
    Row s = row;
    s.insert(s.end(), parts.begin(), parts.end());
    f.insert(f.end(), parts.begin(), parts.end());
    split.Append(std::move(s));
    both.Append(f);
    f.resize(input.schema().fields().size());
    filled.Append(std::move(f));
  }

  CleanDB::TransformSpec split_only, fill_only, spec;
  split_only.split_date_column = "receiptdate";
  fill_only.fill_missing_column = "quantity";
  spec.split_date_column = "receiptdate";
  spec.fill_missing_column = "quantity";
  const Dataset out_split = db.Transform("lineitem", split_only).ValueOrDie();
  const Dataset out_fill = db.Transform("lineitem", fill_only).ValueOrDie();
  const Dataset one_step = db.Transform("lineitem", spec).ValueOrDie();
  EXPECT_EQ(out_split.schema().fields().size(), split_schema.fields().size());
  EXPECT_TRUE(one_step.schema().HasField("receiptdate_day"));
  EXPECT_EQ(SortedRows(out_split), SortedRows(split));
  EXPECT_EQ(SortedRows(out_fill), SortedRows(filled));
  EXPECT_EQ(SortedRows(one_step), SortedRows(both));

  // One step equals the two steps: fill, register the result, split it.
  db.RegisterTable("filled", out_fill);
  EXPECT_EQ(SortedRows(db.Transform("filled", split_only).ValueOrDie()),
            SortedRows(one_step));
  // The identity transform returns the table.
  EXPECT_EQ(SortedRows(db.Transform("lineitem", {}).ValueOrDie()), SortedRows(input));
}

TEST(CleanDBTest, TransformSplitsMalformedDatesToNulls) {
  CleanDB db(FastOptions());
  Dataset dates(Schema{{"d", ValueType::kString}, {"q", ValueType::kDouble}});
  for (const char* d : {"1996-03-12", "1994-01-02 ", "", "abc", "1994-13"}) {
    dates.Append({Value(d), Value(1.0)});
  }
  dates.Append({Value::Null(), Value::Null()});
  db.RegisterTable("dates", dates);
  CleanDB::TransformSpec spec;
  spec.split_date_column = "d";
  spec.fill_missing_column = "q";
  const Dataset out = db.Transform("dates", spec).ValueOrDie();
  // Each part is its piece's digits, null when the piece is missing or
  // has none; the one null q fills with the mean 1.0.
  EXPECT_EQ(SortedRows(out), std::vector<std::string>({
                                 "1994-01-02 |1.0|1994|1|2|",
                                 "1994-13|1.0|1994|13|null|",
                                 "1996-03-12|1.0|1996|3|12|",
                                 "abc|1.0|null|null|null|",
                                 "null|1.0|null|null|null|",
                                 "|1.0|null|null|null|",
                             }));

  CleanDB::TransformSpec unknown;
  unknown.split_date_column = "nope";
  EXPECT_EQ(db.Transform("dates", unknown).status().code(), StatusCode::kKeyError);
  unknown = {};
  unknown.fill_missing_column = "nope";
  EXPECT_EQ(db.Transform("dates", unknown).status().code(), StatusCode::kKeyError);
  EXPECT_EQ(db.Transform("missing", spec).status().code(), StatusCode::kKeyError);
}

TEST(CleanDBTest, ProgrammaticFdAndDedupRejectUnknownColumns) {
  // The programmatic ops prepare the query form, so an unknown column is
  // kKeyError as in `SELECT * FROM c x FD(x.a, x.nope)`.
  CleanDB db(FastOptions());
  Dataset t(Schema{{"a", ValueType::kString}, {"b", ValueType::kString}});
  t.Append({Value("x"), Value("y")});
  db.RegisterTable("c", t);
  EXPECT_EQ(db.Execute("SELECT * FROM c x FD(x.a, x.nope)").status().code(),
            StatusCode::kKeyError);
  FdClause fd;
  fd.lhs = {ParseCleanMExpr("x.a").ValueOrDie()};
  fd.rhs = {ParseCleanMExpr("x.nope").ValueOrDie()};
  EXPECT_EQ(db.CheckFd("c", "x", fd).status().code(), StatusCode::kKeyError);
  DedupClause dedup;
  dedup.op = FilteringAlgo::kExactKey;
  dedup.attributes = {ParseCleanMExpr("x.nope").ValueOrDie()};
  EXPECT_EQ(db.Deduplicate("c", "x", dedup).status().code(), StatusCode::kKeyError);
  fd.rhs = {ParseCleanMExpr("x.b").ValueOrDie()};
  dedup.attributes = {ParseCleanMExpr("x.a").ValueOrDie()};
  EXPECT_TRUE(db.CheckFd("c", "x", fd).ok());
  EXPECT_TRUE(db.Deduplicate("c", "x", dedup).ok());
}

TEST(CleanDBTest, ErrorsSurfaceCleanly) {
  CleanDB db(FastOptions());
  EXPECT_FALSE(db.Execute("SELECT * FROM missing_table FD(c.a, c.b)").ok());
  EXPECT_FALSE(db.Execute("not a query").ok());
  Dataset t(Schema{{"a", ValueType::kInt}});
  db.RegisterTable("t", t);
  // CLUSTER BY without a dictionary table.
  EXPECT_FALSE(db.Execute("SELECT * FROM t c CLUSTER BY(tf, LD, 0.8, c.a)").ok());
}

// ---- Baselines ----

TEST(BaselineTest, BigDansingRejectsComputedAttributes) {
  BigDansingSim bd(FastOptions());
  datagen::CustomerOptions copts;
  copts.base_rows = 100;
  bd.RegisterTable("customer", datagen::MakeCustomer(copts));
  FdClause fd1;
  fd1.lhs = {ParseCleanMExpr("c.address").ValueOrDie()};
  fd1.rhs = {ParseCleanMExpr("prefix(c.phone)").ValueOrDie()};
  auto r1 = bd.CheckFd("customer", "c", fd1);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kNotImplemented);
  // Plain attributes work.
  FdClause fd2;
  fd2.lhs = {ParseCleanMExpr("c.address").ValueOrDie()};
  fd2.rhs = {ParseCleanMExpr("c.nationkey").ValueOrDie()};
  EXPECT_TRUE(bd.CheckFd("customer", "c", fd2).ok());
}

TEST(BaselineTest, SparkSqlCartesianDcAbortsOverBudget) {
  SparkSqlSim spark(FastOptions());
  datagen::LineitemOptions lopts;
  lopts.rows = 2000;
  spark.RegisterTable("lineitem", datagen::MakeLineitem(lopts));
  auto pred = Binary(BinaryOp::kLt, ParseCleanMExpr("t1.price").ValueOrDie(),
                     ParseCleanMExpr("t2.price").ValueOrDie());
  // Tiny budget → "did not terminate".
  auto r = spark.CheckDenialConstraint("lineitem", pred, nullptr, 1000);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("did not terminate"), std::string::npos);
}

TEST(BaselineTest, SparkSqlExecuteQueryReportsItsOwnCounters) {
  // Two cold calls on one simulator: the second must not also report the
  // first one's combination pass. (Re-registering makes the second call
  // partition the table again instead of reading the session's scan cache.)
  SparkSqlSim spark(FastOptions());
  datagen::CustomerOptions copts;
  copts.base_rows = 200;
  copts.fd_violation_fraction = 0.05;
  const Dataset customers = datagen::MakeCustomer(copts);
  const CleanMQuery query =
      ParseCleanM("SELECT * FROM customer c FD(c.address, c.nationkey) "
                  "FD(c.name, c.nationkey)")
          .ValueOrDie();
  spark.RegisterTable("customer", customers);
  const QueryResult first = spark.ExecuteQuery(query).ValueOrDie();
  spark.RegisterTable("customer", customers);
  const QueryResult second = spark.ExecuteQuery(query).ValueOrDie();
  EXPECT_GT(first.metrics.rows_shuffled, 0u);
  EXPECT_EQ(first.metrics, second.metrics)
      << first.metrics.ToString() << "\nvs\n" << second.metrics.ToString();
}

TEST(BaselineTest, BaselinesAgreeWithCleanDBOnViolations) {
  datagen::CustomerOptions copts;
  copts.base_rows = 300;
  copts.fd_violation_fraction = 0.05;
  copts.duplicate_fraction = 0;
  FdClause fd;
  fd.lhs = {ParseCleanMExpr("c.address").ValueOrDie()};
  fd.rhs = {ParseCleanMExpr("c.nationkey").ValueOrDie()};

  CleanDB cleandb(FastOptions());
  cleandb.RegisterTable("customer", datagen::MakeCustomer(copts));
  auto expected = cleandb.CheckFd("customer", "c", fd).ValueOrDie();

  SparkSqlSim spark(FastOptions());
  spark.RegisterTable("customer", datagen::MakeCustomer(copts));
  auto spark_result = spark.CheckFd("customer", "c", fd).ValueOrDie();
  EXPECT_EQ(spark_result.violations.size(), expected.violations.size());

  BigDansingSim bd(FastOptions());
  bd.RegisterTable("customer", datagen::MakeCustomer(copts));
  auto bd_result = bd.CheckFd("customer", "c", fd).ValueOrDie();
  EXPECT_EQ(bd_result.violations.size(), expected.violations.size());
}

// ---- Data generators ----

TEST(DatagenTest, CustomerShapesAndFds) {
  datagen::CustomerOptions copts;
  copts.base_rows = 500;
  copts.duplicate_fraction = 0.1;
  copts.max_duplicates = 10;
  auto d = datagen::MakeCustomer(copts);
  EXPECT_GT(d.num_rows(), 500u);  // duplicates added
  EXPECT_TRUE(d.Validate().ok());
}

TEST(DatagenTest, DblpNoiseBookkeeping) {
  datagen::DblpOptions dopts;
  dopts.rows = 500;
  dopts.noise_fraction = 0.2;
  std::vector<std::pair<std::string, std::string>> noisy;
  auto d = datagen::MakeDblp(dopts, &noisy);
  EXPECT_GT(d.num_rows(), 500u);  // duplicates
  EXPECT_GT(noisy.size(), 0u);
  for (const auto& [dirty, clean] : noisy) EXPECT_NE(dirty, clean);
}

TEST(DatagenTest, MagHasDuplicatesAndMissingDois) {
  datagen::MagOptions mopts;
  mopts.rows = 1000;
  auto d = datagen::MakeMag(mopts);
  EXPECT_GT(d.num_rows(), 1000u);
  const size_t doi = d.schema().IndexOf("doi").ValueOrDie();
  int missing = 0;
  for (const auto& row : d.rows()) {
    if (row[doi].is_null()) missing++;
  }
  EXPECT_GT(missing, 0);
}

TEST(DatagenTest, AddNoiseEditsApproximatelyFactorChars) {
  Rng rng(1);
  const std::string s = "abcdefghijklmnopqrst";  // 20 chars
  const std::string noisy = datagen::AddNoise(s, 0.2, &rng);
  EXPECT_EQ(noisy.size(), s.size());
  size_t diff = 0;
  for (size_t i = 0; i < s.size(); i++) {
    if (s[i] != noisy[i]) diff++;
  }
  EXPECT_LE(diff, 4u);  // at most `edits` positions actually changed
  EXPECT_GE(diff, 1u);
}

}  // namespace
}  // namespace cleanm
