// Custom repairs: extend CleanM with user-defined functions and close the
// detect → repair → re-register loop in one session.
//
//   1. Register a scalar function (normalize_phone), a monoid-annotated
//      aggregate (distinct_prefixes: set-of-prefixes with a count
//      finalize), and a repair function (fix_phone_prefix).
//   2. Run a user-written GROUP BY / HAVING query that detects the
//      violating address groups on the clustered engine and computes the
//      repairs in SELECT position.
//   3. Stream the repair actions into a RepairSink, Commit() — the
//      repaired table is re-registered under a bumped generation — and
//      show that re-running the same prepared query now finds nothing.
//
//   build/examples/example_custom_repairs
#include <cstdio>

#include "cleaning/prepared_query.h"
#include "repair/repair_sink.h"

using namespace cleanm;

namespace {

std::string TrimSpaces(const std::string& s) {
  const size_t b = s.find_first_not_of(' ');
  if (b == std::string::npos) return std::string();
  const size_t e = s.find_last_not_of(' ');
  return s.substr(b, e - b + 1);
}

std::string PhonePrefix(const std::string& phone) {
  const std::string p = TrimSpaces(phone);
  const size_t dash = p.find('-');
  return dash == std::string::npos ? p.substr(0, 3) : p.substr(0, dash);
}

Dataset MakeCustomers() {
  Dataset d(Schema{{"name", ValueType::kString},
                   {"address", ValueType::kString},
                   {"phone", ValueType::kString}});
  d.Append({Value("alice"), Value("rue de lausanne 1"), Value("021-555-0001")});
  d.Append({Value("bob"), Value("rue de lausanne 1"), Value(" 022-555-0002 ")});
  d.Append({Value("carol"), Value("bahnhofstrasse 3"), Value("044-555-0003")});
  d.Append({Value("alicia"), Value("rue de lausanne 1"), Value("021-555-0004")});
  d.Append({Value("dan"), Value("bahnhofstrasse 3"), Value("044-555-0005")});
  return d;
}

void RegisterFunctions(CleanDB& db) {
  // Scalar: trim stray whitespace off a phone before comparing prefixes.
  Status st = db.functions()
      .RegisterScalar("normalize_phone", 1,
                      [](const std::vector<Value>& args) -> Result<Value> {
                        if (args[0].type() != ValueType::kString) return args[0];
                        const std::string& s = args[0].AsString();
                        const size_t b = s.find_first_not_of(' ');
                        if (b == std::string::npos) return Value(std::string());
                        const size_t e = s.find_last_not_of(' ');
                        return Value(s.substr(b, e - b + 1));
                      });
  CLEANM_CHECK(st.ok());

  // Aggregate with the full monoid annotation: zero = empty set, unit =
  // singleton set, merge = set union — so it pre-aggregates locally on
  // every node and merges partials, like the built-ins — plus a finalize
  // mapping the set to its size.
  st = db.functions()
      .RegisterAggregate(
          "distinct_prefixes", Value(ValueList{}),
          /*unit=*/
          [](const Value& v) {
            if (v.type() != ValueType::kString) return Value(ValueList{});
            return Value(ValueList{Value(PhonePrefix(v.AsString()))});
          },
          /*merge=*/
          [](Value a, const Value& b) {
            auto& set = a.MutableList();
            for (const auto& v : b.AsList()) {
              bool found = false;
              for (const auto& existing : set) {
                if (existing.Equals(v)) {
                  found = true;
                  break;
                }
              }
              if (!found) set.push_back(v);
            }
            return a;
          },
          /*finalize=*/
          [](const std::vector<Value>& acc) -> Result<Value> {
            return Value(static_cast<int64_t>(acc[0].AsList().size()));
          },
          /*commutative=*/true, /*idempotent=*/true);
  CLEANM_CHECK(st.ok());

  // Repair: rewrite every deviating phone in a group to the group's
  // majority (here: minimal) prefix. Returns repair actions per the
  // contract in functions/function_registry.h.
  st = db.functions()
      .RegisterRepair(
          "fix_phone_prefix", 1,
          [](const std::vector<Value>& args) -> Result<Value> {
            std::string target;
            bool have_target = false;
            for (const auto& rec : args[0].AsList()) {
              auto phone = rec.GetField("phone");
              if (!phone.ok()) continue;
              const std::string p = PhonePrefix(phone.value().AsString());
              if (!have_target || p < target) {
                target = p;
                have_target = true;
              }
            }
            ValueList actions;
            for (const auto& rec : args[0].AsList()) {
              auto phone = rec.GetField("phone");
              if (!phone.ok()) continue;
              const std::string full = TrimSpaces(phone.value().AsString());
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
  CLEANM_CHECK(st.ok());
}

void PrintTable(const CleanDB& db, const char* name) {
  std::shared_ptr<const Dataset> t = db.GetTableShared(name).ValueOrDie();
  for (const auto& row : t->rows()) {
    std::printf("  %-8s %-20s %s\n", row[0].AsString().c_str(),
                row[1].AsString().c_str(), row[2].ToString().c_str());
  }
}

}  // namespace

int main() {
  CleanDBOptions options;
  options.num_nodes = 4;
  CleanDB db(options);
  db.RegisterTable("customer", MakeCustomers());
  RegisterFunctions(db);

  std::printf("== customer (dirty) ==\n");
  PrintTable(db, "customer");

  // Detect + repair in one CleanM query: GROUP BY address, keep groups
  // whose (normalized) phones span more than one prefix, and compute the
  // cell-wise fixes with the registered repair function.
  const char* query =
      "SELECT c.address AS addr, "
      "       distinct_prefixes(normalize_phone(c.phone)) AS prefixes, "
      "       fix_phone_prefix(bag(c)) AS fixes "
      "FROM customer c "
      "GROUP BY c.address "
      "HAVING prefixes > 1";
  auto prepared_r = db.Prepare(query);
  CLEANM_CHECK(prepared_r.ok());
  PreparedQuery& prepared = prepared_r.value();

  RepairSink sink(&db, prepared);
  Status st = prepared.ExecuteInto(sink);
  if (!st.ok()) {
    std::printf("execution failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\n== detected ==\n  %zu repair action(s); engine counters: %s\n",
              sink.actions().size(),
              db.cluster().metrics().Snapshot().ToString().c_str());

  auto summary = sink.Commit().ValueOrDie();
  std::printf("\n== repaired ==\n"
              "  table '%s' re-registered at generation %llu: %zu row(s), "
              "%zu cell(s) changed\n",
              summary.table.c_str(),
              static_cast<unsigned long long>(summary.new_generation),
              summary.rows_changed, summary.cells_changed);

  std::printf("\n== customer (clean) ==\n");
  PrintTable(db, "customer");

  // The repaired table is a first-class input: the same prepared query,
  // re-executed, binds the new generation and finds nothing left.
  auto after = prepared.Execute().ValueOrDie();
  std::printf("\n== re-check ==\n  violating groups after repair: %zu\n",
              after.ops.back().violations.size());
  return after.ops.back().violations.empty() ? 0 : 1;
}
