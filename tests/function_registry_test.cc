// Function-registry + repair subsystem tests: registration rules, scalar /
// aggregate / repair UDFs called from CleanM text and executed on the
// clustered engine, Prepare-time signature checking with positioned
// errors, the udf_calls / repairs_applied counters, and the full
// detect → repair → re-register loop (repaired tables are first-class
// query inputs with correct generation / partition-cache invalidation).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algebra/algebra_eval.h"
#include "cleaning/prepared_query.h"
#include "cleaning/select_builder.h"
#include "functions/function_registry.h"
#include "repair/repair_sink.h"
#include "support/fixtures.h"

namespace cleanm {
namespace {

using testsupport::FastCleanDBOptions;
using testsupport::MakeCustomers;

// ---- Shared registrations ----

/// double_it(x) = 2 * x over ints/doubles.
Status RegisterDoubleIt(FunctionRegistry& functions) {
  return functions.RegisterScalar(
      "double_it", 1, [](const std::vector<Value>& args) -> Result<Value> {
        if (!args[0].is_numeric()) return Status::TypeError("double_it: non-numeric");
        if (args[0].type() == ValueType::kInt) return Value(args[0].AsInt() * 2);
        return Value(args[0].AsDouble() * 2);
      });
}

/// usum: a user-written clone of the builtin sum monoid (identity 0,
/// unit = id, merge = +), for built-in-vs-registered equivalence checks.
Status RegisterUsum(FunctionRegistry& functions) {
  return functions.RegisterAggregate(
      "usum", Value(int64_t{0}), [](const Value& v) { return v; },
      [](Value a, const Value& b) {
        if (!a.is_numeric() || !b.is_numeric()) return a;
        if (a.type() == ValueType::kInt && b.type() == ValueType::kInt) {
          return Value(a.AsInt() + b.AsInt());
        }
        return Value(a.ToDouble() + b.ToDouble());
      });
}

/// umean: accumulates a {sum, count} pair and finalizes to sum/count — the
/// canonical "not itself a monoid, but monoid + finalize" aggregate.
Status RegisterUmean(FunctionRegistry& functions) {
  return functions.RegisterAggregate(
      "umean", Value(ValueList{Value(0.0), Value(int64_t{0})}),
      [](const Value& v) {
        if (!v.is_numeric()) {
          return Value(ValueList{Value(0.0), Value(int64_t{0})});
        }
        return Value(ValueList{Value(v.ToDouble()), Value(int64_t{1})});
      },
      [](Value a, const Value& b) {
        auto& acc = a.MutableList();
        const auto& other = b.AsList();
        acc[0] = Value(acc[0].AsDouble() + other[0].AsDouble());
        acc[1] = Value(acc[1].AsInt() + other[1].AsInt());
        return a;
      },
      /*finalize=*/
      [](const std::vector<Value>& acc) -> Result<Value> {
        const auto& pair = acc[0].AsList();
        if (pair[1].AsInt() == 0) return Value::Null();
        return Value(pair[0].AsDouble() / static_cast<double>(pair[1].AsInt()));
      });
}

/// Region prefix of a phone ("021-555-0001" → "021"), in C++.
std::string PhonePrefix(const std::string& phone) {
  const size_t dash = phone.find('-');
  return dash == std::string::npos ? phone.substr(0, 3) : phone.substr(0, dash);
}

/// fix_phone_prefix(partition): majority-vote repair over one address
/// group — every member whose phone prefix deviates from the group's
/// minimal prefix gets the prefix rewritten. Returns a list of
/// repair-action structs per the registry contract.
Status RegisterFixPhonePrefix(FunctionRegistry& functions) {
  return functions.RegisterRepair(
      "fix_phone_prefix", 1, [](const std::vector<Value>& args) -> Result<Value> {
        if (args[0].type() != ValueType::kList) {
          return Status::TypeError("fix_phone_prefix expects the group partition");
        }
        std::string target;
        bool have_target = false;
        for (const auto& rec : args[0].AsList()) {
          auto phone = rec.GetField("phone");
          if (!phone.ok() || phone.value().type() != ValueType::kString) continue;
          const std::string p = PhonePrefix(phone.value().AsString());
          if (!have_target || p < target) {
            target = p;
            have_target = true;
          }
        }
        ValueList actions;
        for (const auto& rec : args[0].AsList()) {
          auto phone = rec.GetField("phone");
          if (!phone.ok() || phone.value().type() != ValueType::kString) continue;
          const std::string& full = phone.value().AsString();
          if (PhonePrefix(full) == target) continue;
          const size_t dash = full.find('-');
          const std::string fixed =
              target + (dash == std::string::npos ? "" : full.substr(dash));
          actions.push_back(Value(ValueStruct{
              {"entity", rec},
              {"set", Value(ValueStruct{{"phone", Value(fixed)}})}}));
        }
        return Value(std::move(actions));
      });
}

// ---- Registration rules ----

TEST(FunctionRegistryTest, RejectsShadowingAndDuplicates) {
  FunctionRegistry functions;
  auto ok = [](const std::vector<Value>&) -> Result<Value> { return Value::Null(); };

  EXPECT_EQ(functions.RegisterScalar("", 1, ok).code(),
            StatusCode::kInvalidArgument);
  // Builtin function and builtin monoid names are off limits.
  EXPECT_EQ(functions.RegisterScalar("prefix", 1, ok).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(functions.RegisterScalar("sum", 1, ok).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(functions
                .RegisterAggregate("avg", Value(int64_t{0}),
                                   [](const Value& v) { return v; },
                                   [](Value a, const Value&) { return a; })
                .code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(functions.RegisterScalar("mine", 1, ok).ok());
  EXPECT_EQ(functions.RegisterScalar("mine", 2, ok).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(functions
                .RegisterAggregate("mine", Value(int64_t{0}),
                                   [](const Value& v) { return v; },
                                   [](Value a, const Value&) { return a; })
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(FunctionRegistryTest, ValidateCallCoversAllInterpretations) {
  FunctionRegistry functions;
  ASSERT_TRUE(RegisterDoubleIt(functions).ok());
  ASSERT_TRUE(RegisterUsum(functions).ok());

  EXPECT_TRUE(functions.ValidateCall("prefix", 1).ok());    // builtin
  EXPECT_TRUE(functions.ValidateCall("concat", 7).ok());    // variadic builtin
  EXPECT_TRUE(functions.ValidateCall("double_it", 1).ok()); // registered scalar
  EXPECT_TRUE(functions.ValidateCall("usum", 1).ok());      // registered aggregate
  EXPECT_TRUE(functions.ValidateCall("sum", 1).ok());       // builtin monoid

  EXPECT_EQ(functions.ValidateCall("no_such_fn", 1).code(), StatusCode::kKeyError);
  EXPECT_EQ(functions.ValidateCall("prefix", 2).code(), StatusCode::kKeyError);
  EXPECT_EQ(functions.ValidateCall("double_it", 3).code(), StatusCode::kKeyError);
  EXPECT_EQ(functions.ValidateCall("usum", 2).code(), StatusCode::kKeyError);
}

// ---- Prepare-time signature checking (positioned) ----

TEST(FunctionRegistryTest, UnknownFunctionIsPositionedKeyErrorAtPrepare) {
  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("customer", MakeCustomers());

  auto prepared = db.Prepare(
      "SELECT c.name,\n"
      "       no_such_fn(c.phone) AS x\n"
      "FROM customer c");
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kKeyError);
  const std::string& msg = prepared.status().message();
  EXPECT_NE(msg.find("no_such_fn"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("column 8"), std::string::npos) << msg;
}

TEST(FunctionRegistryTest, ArityMismatchIsPositionedKeyErrorAtPrepare) {
  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("customer", MakeCustomers());
  ASSERT_TRUE(RegisterDoubleIt(db.functions()).ok());

  auto prepared =
      db.Prepare("SELECT double_it(c.nationkey, 2) FROM customer c");
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kKeyError);
  const std::string& msg = prepared.status().message();
  EXPECT_NE(msg.find("double_it"), std::string::npos) << msg;
  EXPECT_NE(msg.find("2 argument"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;

  // Builtin arity mistakes are caught the same way (WHERE position).
  auto bad_builtin =
      db.Prepare("SELECT * FROM customer c WHERE contains(c.name) ");
  ASSERT_FALSE(bad_builtin.ok());
  EXPECT_EQ(bad_builtin.status().code(), StatusCode::kKeyError);
}

// ---- Scalar UDFs in query text, executed on the engine ----

TEST(FunctionRegistryTest, ScalarUdfRunsInSelectAndWhere) {
  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("customer", MakeCustomers());
  ASSERT_TRUE(RegisterDoubleIt(db.functions()).ok());

  auto prepared = db.Prepare(
      "SELECT c.name, double_it(c.nationkey) AS dk FROM customer c "
      "WHERE double_it(c.nationkey) >= 2");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto result = prepared.value().Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_EQ(result.value().ops.size(), 1u);
  EXPECT_EQ(result.value().ops[0].op_name, "SELECT");
  const auto& rows = result.value().ops[0].violations;
  ASSERT_EQ(rows.size(), 4u);  // every nationkey ≥ 1 → doubled ≥ 2
  for (const auto& row : rows) {
    const int64_t dk = row.GetField("dk").ValueOrDie().AsInt();
    EXPECT_EQ(dk % 2, 0);
    EXPECT_GE(dk, 2);
  }
  // The registered function really ran (4 rows × SELECT + WHERE calls),
  // surfaced through the QueryResult metrics snapshot.
  EXPECT_GE(result.value().metrics.udf_calls, 8u);
}

// ---- UDF aggregates: distribution + finalize ----

TEST(FunctionRegistryTest, RegisteredAggregateMatchesBuiltinAcrossNodes) {
  CleanDB db(FastCleanDBOptions(/*nodes=*/4));
  db.RegisterTable("customer", MakeCustomers());
  ASSERT_TRUE(RegisterUsum(db.functions()).ok());

  auto with_udf = db.Execute(
      "SELECT c.address AS addr, usum(c.nationkey) AS total "
      "FROM customer c GROUP BY c.address");
  auto with_builtin = db.Execute(
      "SELECT c.address AS addr, sum(c.nationkey) AS total "
      "FROM customer c GROUP BY c.address");
  ASSERT_TRUE(with_udf.ok()) << with_udf.status().ToString();
  ASSERT_TRUE(with_builtin.ok()) << with_builtin.status().ToString();

  auto totals = [](const QueryResult& r) {
    std::vector<std::pair<std::string, int64_t>> out;
    for (const auto& row : r.ops[0].violations) {
      out.emplace_back(row.GetField("addr").ValueOrDie().AsString(),
                       row.GetField("total").ValueOrDie().AsInt());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(totals(with_udf.value()), totals(with_builtin.value()));
  // rue de lausanne 1 → 1 + 1 + 3 = 5; bahnhofstrasse 3 → 2.
  EXPECT_EQ(totals(with_udf.value())[1].second, 5);
  EXPECT_GT(with_udf.value().metrics.udf_calls, 0u);
  EXPECT_EQ(with_builtin.value().metrics.udf_calls, 0u);
}

TEST(FunctionRegistryTest, AggregateFinalizeMapsAccumulator) {
  CleanDB db(FastCleanDBOptions(/*nodes=*/4));
  db.RegisterTable("customer", MakeCustomers());
  ASSERT_TRUE(RegisterUmean(db.functions()).ok());

  auto result = db.Execute(
      "SELECT c.address AS addr, umean(c.nationkey) AS mean, "
      "avg(c.nationkey) AS builtin_mean "
      "FROM customer c GROUP BY c.address");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const auto& row : result.value().ops[0].violations) {
    const double mean = row.GetField("mean").ValueOrDie().AsDouble();
    const double builtin_mean = row.GetField("builtin_mean").ValueOrDie().AsDouble();
    EXPECT_DOUBLE_EQ(mean, builtin_mean);
  }
}

TEST(FunctionRegistryTest, EngineMatchesReferenceEvaluatorOnUdfPlans) {
  CleanDB db(FastCleanDBOptions(/*nodes=*/4));
  db.RegisterTable("customer", MakeCustomers());
  ASSERT_TRUE(RegisterUsum(db.functions()).ok());
  ASSERT_TRUE(RegisterDoubleIt(db.functions()).ok());

  auto query = ParseCleanM(
                   "SELECT c.address AS addr, usum(double_it(c.nationkey)) AS t "
                   "FROM customer c GROUP BY c.address HAVING t > 2")
                   .ValueOrDie();
  auto sp = BuildSelectPlan(query, &db.functions());
  ASSERT_TRUE(sp.ok()) << sp.status().ToString();

  auto customers = MakeCustomers();
  Catalog catalog{{{"customer", &customers}}};
  catalog.functions = &db.functions();
  auto reference = EvalPlan(sp.value().plan.plan, catalog).ValueOrDie();

  auto engine_result = db.Execute(
      "SELECT c.address AS addr, usum(double_it(c.nationkey)) AS t "
      "FROM customer c GROUP BY c.address HAVING t > 2");
  ASSERT_TRUE(engine_result.ok()) << engine_result.status().ToString();

  auto canon = [](const ValueList& rows) {
    std::vector<std::string> out;
    for (const auto& r : rows) out.push_back(r.ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(canon(engine_result.value().ops[0].violations),
            canon(reference.AsList()));
  // lausanne group: (1+1+3)*2 = 10 > 2; bahnhofstrasse: 2*2 = 4 > 2.
  EXPECT_EQ(engine_result.value().ops[0].violations.size(), 2u);
}

// ---- Repair actions: unit-level application ----

TEST(RepairApplyTest, AppliesCellWiseAndCountsUnmatched) {
  Dataset customers = MakeCustomers();
  const Value bob = RowToRecord(customers.schema(), customers.row(1));

  std::vector<RepairAction> actions;
  actions.push_back({bob, ValueStruct{{"phone", Value("021-555-0002")}}});
  // An entity that matches no row.
  actions.push_back(
      {Value(ValueStruct{{"name", Value("nobody")}}), ValueStruct{{"phone", Value("x")}}});

  RepairSummary summary;
  QueryMetrics metrics;
  auto repaired = ApplyRepairActions(customers, actions, &summary, &metrics);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_EQ(summary.actions, 2u);
  EXPECT_EQ(summary.rows_changed, 1u);
  EXPECT_EQ(summary.cells_changed, 1u);
  EXPECT_EQ(summary.unmatched, 1u);
  EXPECT_EQ(metrics.repairs_applied.load(), 1u);
  EXPECT_EQ(repaired.value().row(1)[2].AsString(), "021-555-0002");
  // Untouched cells are bit-identical.
  EXPECT_TRUE(repaired.value().row(0)[2].Equals(customers.row(0)[2]));
}

TEST(RepairApplyTest, UnknownColumnIsKeyError) {
  Dataset customers = MakeCustomers();
  const Value alice = RowToRecord(customers.schema(), customers.row(0));
  std::vector<RepairAction> actions{{alice, ValueStruct{{"no_col", Value("x")}}}};
  RepairSummary summary;
  auto repaired = ApplyRepairActions(customers, actions, &summary);
  ASSERT_FALSE(repaired.ok());
  EXPECT_EQ(repaired.status().code(), StatusCode::kKeyError);
}

TEST(RepairApplyTest, ExtractRecognizesActionShapes) {
  const Value action(ValueStruct{
      {"entity", Value("e")}, {"set", Value(ValueStruct{{"c", Value(int64_t{1})}})}});
  const Value tuple(ValueStruct{
      {"addr", Value("somewhere")},                 // plain data: ignored
      {"one", action},                              // single action
      {"many", Value(ValueList{action, action})},   // list of actions
      {"nums", Value(ValueList{Value(int64_t{3})})}  // non-action list: ignored
  });
  EXPECT_EQ(ExtractRepairActions(tuple).size(), 3u);

  // The scoped form only harvests the named fields, so action-shaped
  // values elsewhere (e.g. a data column that happens to carry {entity,
  // set} structs) are never mistaken for repairs.
  const std::vector<std::string> fields{"many"};
  EXPECT_EQ(ExtractRepairActions(tuple, &fields).size(), 2u);
}

TEST(FunctionRegistryTest, UngroupedAggregateIsTypeErrorAtPrepare) {
  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("customer", MakeCustomers());
  ASSERT_TRUE(RegisterUsum(db.functions()).ok());

  // Monoid-only names (sum) and registered aggregates (usum) need a GROUP
  // BY — caught at Prepare, not as an execution-time "unknown builtin".
  for (const char* text :
       {"SELECT sum(c.nationkey) AS t FROM customer c",
        "SELECT usum(c.nationkey) AS t FROM customer c",
        "SELECT * FROM customer c WHERE sum(c.nationkey) > 1"}) {
    auto prepared = db.Prepare(text);
    ASSERT_FALSE(prepared.ok()) << text;
    EXPECT_EQ(prepared.status().code(), StatusCode::kTypeError) << text;
    EXPECT_NE(prepared.status().message().find("GROUP BY"), std::string::npos);
  }
  // Dual-natured names stay legal as scalars: count over a list value.
  auto ok = db.Prepare("SELECT count(split(c.phone, '-')) AS parts "
                       "FROM customer c");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

// ---- The full detect → repair → re-register loop ----

TEST(RepairLoopTest, GroupedRepairQueryRepairsAndReRegisters) {
  CleanDB db(FastCleanDBOptions(/*nodes=*/4));
  db.RegisterTable("customer", MakeCustomers());
  ASSERT_TRUE(RegisterFixPhonePrefix(db.functions()).ok());

  // One CleanM query detects the violating groups (GROUP BY + HAVING) and
  // computes their repairs (registered repair function in SELECT position).
  const char* detect_and_repair =
      "SELECT c.address AS addr, fix_phone_prefix(bag(c)) AS fixes "
      "FROM customer c "
      "GROUP BY c.address "
      "HAVING length(set(prefix(c.phone))) > 1";
  auto prepared = db.Prepare(detect_and_repair);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared.value().repair_table(), "customer");
  ASSERT_EQ(prepared.value().repair_fields().size(), 1u);
  EXPECT_EQ(prepared.value().repair_fields()[0], "fixes");

  // A second PreparedQuery over the same table, prepared *before* the
  // repair commits: lazy binding must pick up the repaired generation.
  auto recheck = db.Prepare(detect_and_repair);
  ASSERT_TRUE(recheck.ok());

  const uint64_t generation_before = db.TableGeneration("customer");

  RepairSink sink(&db, prepared.value());
  ASSERT_TRUE(prepared.value().ExecuteInto(sink).ok());
  // The engine (not the reference evaluator) executed this: the clustered
  // metrics saw the scan and the UDF invocations.
  EXPECT_GT(db.cluster().metrics().rows_scanned.load(), 0u);
  EXPECT_GT(db.cluster().metrics().udf_calls.load(), 0u);
  // Only bob deviates from the majority prefix of "rue de lausanne 1".
  ASSERT_EQ(sink.actions().size(), 1u);

  auto summary = sink.Commit();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary.value().table, "customer");
  EXPECT_EQ(summary.value().rows_changed, 1u);
  EXPECT_EQ(summary.value().cells_changed, 1u);
  EXPECT_EQ(summary.value().unmatched, 0u);
  EXPECT_EQ(summary.value().new_generation, generation_before + 1);
  EXPECT_EQ(db.TableGeneration("customer"), generation_before + 1);
  EXPECT_GE(db.cluster().metrics().repairs_applied.load(), 1u);

  // The repaired table is a first-class query input: the pre-prepared
  // re-check binds the new generation and finds nothing left to repair.
  auto after = recheck.value().Execute();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().ops[0].violations.size(), 0u);
  // The re-registration invalidated the cached partitionings: this
  // execution had to re-partition (scan misses, not hits-only).
  EXPECT_GT(after.value().cache.scan_misses, 0u);

  // And the data really is clean now.
  auto table = db.GetTableShared("customer").ValueOrDie();
  EXPECT_EQ(table->row(1)[2].AsString(), "021-555-0002");
  EXPECT_EQ(table->row(0)[2].AsString(), "021-555-0001");
}

TEST(RepairLoopTest, UngroupedRepairInSelectPosition) {
  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("customer", MakeCustomers());
  // Row-wise repair: uppercase every name (entity = the row record).
  ASSERT_TRUE(db.functions().RegisterRepair(
      "upcase_name", 1, [](const std::vector<Value>& args) -> Result<Value> {
        auto name = args[0].GetField("name");
        if (!name.ok()) return Status::TypeError("upcase_name expects the record");
        std::string upper = name.value().AsString();
        for (auto& ch : upper) ch = static_cast<char>(std::toupper(ch));
        return Value(ValueStruct{
            {"entity", args[0]},
            {"set", Value(ValueStruct{{"name", Value(upper)}})}});
      }).ok());

  auto prepared = db.Prepare("SELECT upcase_name(c) AS fix FROM customer c");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  RepairSink sink(&db, prepared.value(), "customer_clean");
  ASSERT_TRUE(prepared.value().ExecuteInto(sink).ok());
  EXPECT_EQ(sink.actions().size(), 4u);

  auto summary = sink.Commit();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary.value().table, "customer_clean");
  EXPECT_EQ(summary.value().rows_changed, 4u);

  // Repaired into a *new* table: the source is untouched, the target is
  // registered and queryable.
  EXPECT_EQ(db.GetTableShared("customer").ValueOrDie()->row(0)[0].AsString(), "alice");
  EXPECT_EQ(db.GetTableShared("customer_clean").ValueOrDie()->row(0)[0].AsString(),
            "ALICE");
  auto roundtrip = db.Execute("SELECT cc.name FROM customer_clean cc");
  ASSERT_TRUE(roundtrip.ok());
  EXPECT_EQ(roundtrip.value().ops[0].violations.size(), 4u);
}

// ---- Coalescing: a user GROUP BY shares the built-in grouping pass ----

TEST(FunctionRegistryTest, UserGroupByCoalescesWithFdNest) {
  CleanDB db(FastCleanDBOptions());
  db.RegisterTable("customer", MakeCustomers());

  // FD(c.address, prefix(c.phone)) groups by c.address; so does the user
  // query — one shared Nest pass under unification.
  auto prepared = db.Prepare(
      "SELECT c.address AS addr, count(c) AS n FROM customer c "
      "GROUP BY c.address HAVING n > 1 "
      "FD(c.address, prefix(c.phone))");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared.value().num_operations(), 2u);
  EXPECT_EQ(prepared.value().nests_coalesced(), 1);

  auto result = prepared.value().Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // FD: lausanne group has prefixes {021, 022} → violations reported.
  EXPECT_GT(result.value().ops[0].violations.size(), 0u);
  // User plan: only the lausanne group has > 1 member.
  ASSERT_EQ(result.value().ops[1].violations.size(), 1u);
  EXPECT_EQ(result.value()
                .ops[1]
                .violations[0]
                .GetField("addr")
                .ValueOrDie()
                .AsString(),
            "rue de lausanne 1");
  EXPECT_EQ(
      result.value().ops[1].violations[0].GetField("n").ValueOrDie().AsInt(), 3);
}

}  // namespace
}  // namespace cleanm
