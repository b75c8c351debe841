// The observability surface: EXPLAIN golden texts, EXPLAIN ANALYZE
// (QueryProfile) determinism and counter reconciliation, per-node skew
// flags, Chrome-trace export, Prometheus metrics text, and the
// profiling-off zero-span guarantee.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "cleaning/prepared_query.h"
#include "cleaning/query_profile.h"
#include "common/trace.h"
#include "language/parser.h"
#include "support/fixtures.h"

namespace cleanm {
namespace {

CleanDBOptions FastOptions() { return testsupport::FastCleanDBOptions(4); }

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

// ---- EXPLAIN golden texts ----

TEST(ExplainTest, FdPlanGolden) {
  CleanDB db(FastOptions());
  db.RegisterTable("customer", testsupport::MakeCustomers());
  auto prepared =
      db.Prepare("SELECT * FROM customer c FD(c.address, prefix(c.phone))");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared.value().Explain(),
            "PreparedQuery: 1 operation(s), unify=on\n"
            "== FD ==\n"
            "Select[(count(vals) > 1)]\n"
            "  Nest[by exact(c.address), vals=set(prefix(c.phone)), "
            "partition=bag(c)]\n"
            "    Scan(customer as c)  [generation 1; partitioned at execute]\n");
}

TEST(ExplainTest, ScanResidencyFollowsTheCache) {
  // EXPLAIN reads the cache without touching it: before an execution
  // nothing is cached, after one the wrapped scan is, and neither
  // rendering counts a hit or a miss.
  CleanDB db(FastOptions());
  db.RegisterTable("customer", testsupport::MakeCustomers());
  auto prepared =
      db.Prepare("SELECT * FROM customer c FD(c.address, prefix(c.phone))");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(prepared.value().Execute().ok());
  const PartitionCache::Stats before = db.partition_cache().stats();
  EXPECT_EQ(prepared.value().Explain(),
            "PreparedQuery: 1 operation(s), unify=on\n"
            "== FD ==\n"
            "Select[(count(vals) > 1)]\n"
            "  Nest[by exact(c.address), vals=set(prefix(c.phone)), "
            "partition=bag(c)]\n"
            "    Scan(customer as c)  [generation 1; wrapped scan cached]\n");
  const PartitionCache::Stats after = db.partition_cache().stats();
  EXPECT_EQ(after.scan_hits, before.scan_hits);
  EXPECT_EQ(after.scan_misses, before.scan_misses);

  // A second variable over the same table finds the base scan but not
  // its own wrap.
  auto dc = db.PrepareDenialConstraint(
      "customer",
      ParseCleanMExpr("t1.address = t2.address AND t1.nationkey <> t2.nationkey")
          .ValueOrDie());
  ASSERT_TRUE(dc.ok()) << dc.status().ToString();
  EXPECT_NE(dc.value().Explain().find(
                "Scan(customer as t1)  [generation 1; scan cached; wrapped at "
                "execute]"),
            std::string::npos)
      << dc.value().Explain();
}

TEST(ExplainTest, DedupPlanGolden) {
  CleanDB db(FastOptions());
  db.RegisterTable("customer", testsupport::MakeCustomers());
  auto prepared =
      db.Prepare("SELECT * FROM customer c DEDUP(exact, LD, 0.8, c.address)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared.value().Explain(),
            "PreparedQuery: 1 operation(s), unify=on\n"
            "== DEDUP ==\n"
            "Select[((p1 < p2) and similar(\"LD\", to_string(p1), "
            "to_string(p2), 0.8))]\n"
            "  Unnest[p2 <- partition]\n"
            "    Unnest[p1 <- partition]\n"
            "      Select[(count(partition) > 1)]\n"
            "        Nest[by exact(c.address), partition=bag(c)]\n"
            "          Scan(customer as c)  [generation 1; partitioned at "
            "execute]\n");
}

TEST(ExplainTest, DenialConstraintPlanGolden) {
  CleanDB db(FastOptions());
  db.RegisterTable("customer", testsupport::MakeCustomers());
  auto prepared = db.PrepareDenialConstraint(
      "customer",
      ParseCleanMExpr("t1.address = t2.address AND t1.nationkey <> t2.nationkey")
          .ValueOrDie());
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared.value().Explain(),
            "PreparedQuery: 1 operation(s), unify=on\n"
            "== DC ==\n"
            "Join[((t1.address = t2.address) and (t1.nationkey != "
            "t2.nationkey))]\n"
            "  Scan(customer as t1)  [generation 1; partitioned at execute]\n"
            "  Scan(customer as t2)  [generation 1; partitioned at execute]\n");
}

TEST(ExplainTest, SelectPlanGolden) {
  CleanDB db(FastOptions());
  db.RegisterTable("customer", testsupport::MakeCustomers());
  auto prepared = db.Prepare(
      "SELECT c.address, count(c.name) FROM customer c GROUP BY c.address");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared.value().Explain(),
            "PreparedQuery: 1 operation(s), unify=on\n"
            "== SELECT ==\n"
            "Reduce[list / {address: key, count: agg0}]\n"
            "  Nest[by exact(c.address), agg0=count(c.name)]\n"
            "    Scan(customer as c)  [generation 1; partitioned at execute]\n");
}

TEST(ExplainTest, SharedNestMarkedWhenUnified) {
  // Two FDs over the same grouping term coalesce; the shared Nest must be
  // marked in the unified rendering and absent from the standalone one.
  CleanDB db(FastOptions());
  db.RegisterTable("customer", testsupport::MakeCustomers());
  auto prepared = db.Prepare(
      "SELECT * FROM customer c "
      "FD(c.address, prefix(c.phone)) FD(c.address, c.nationkey)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const std::string unified = prepared.value().Explain();
  EXPECT_NE(unified.find("[shared S1: executed once"), std::string::npos)
      << unified;
  EXPECT_NE(unified.find("[shared S1: see above]"), std::string::npos) << unified;
  EXPECT_NE(unified.find("Nest stage(s) coalesced"), std::string::npos) << unified;

  ExecOptions standalone;
  standalone.unify_operations = false;
  const std::string plain = prepared.value().Explain(standalone);
  EXPECT_EQ(plain.find("[shared"), std::string::npos) << plain;
}

TEST(ExplainTest, UnregisteredTableAnnotated) {
  CleanDB db(FastOptions());
  auto prepared =
      db.Prepare("SELECT * FROM customer c FD(c.address, prefix(c.phone))");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_NE(prepared.value().Explain().find("not registered yet"),
            std::string::npos);
}

// ---- Profiling (EXPLAIN ANALYZE) ----

/// The per-operator row signature of a profile: (name, label, rows_in,
/// rows_out) in tree order.
std::vector<std::string> RowSignature(const QueryProfile& profile) {
  std::vector<std::string> out;
  std::function<void(size_t)> walk = [&](size_t idx) {
    const OperatorProfile& op = profile.operators()[idx];
    out.push_back(op.name + "/" + op.label + ":" + std::to_string(op.rows_in) +
                  "->" + std::to_string(op.rows_out));
    for (size_t c : op.children) walk(c);
  };
  for (size_t r : profile.roots()) walk(r);
  return out;
}

TEST(QueryProfileTest, RowsDeterministicAcrossRunsAndReconciled) {
  CleanDB db(FastOptions());
  db.RegisterTable("customer", testsupport::MakeCustomers());
  auto prepared = db.Prepare(
      "SELECT * FROM customer c "
      "FD(c.address, prefix(c.phone)) FD(c.address, c.nationkey) "
      "DEDUP(exact, LD, 0.8, c.address)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedQuery& pq = prepared.value();

  for (size_t morsel : {size_t{1}, size_t{7}, size_t{4096}}) {
    ExecOptions opts;
    opts.profile = true;
    opts.morsel_rows = morsel;
    auto first = pq.Execute(opts);
    auto second = pq.Execute(opts);
    ASSERT_TRUE(first.ok() && second.ok());
    ASSERT_NE(first.value().profile, nullptr);
    ASSERT_NE(second.value().profile, nullptr);

    // Bit-identical per-operator rows across runs at this morsel size.
    EXPECT_EQ(RowSignature(*first.value().profile),
              RowSignature(*second.value().profile))
        << "morsel_rows=" << morsel;

    // Exact reconciliation: the profile's summed self-counters equal the
    // execution's flat counters for everything that moves inside the run
    // (the out-of-core folds land after the root span closes by design).
    for (const auto& result : {&first.value(), &second.value()}) {
      const MetricsCounters totals = result->profile->totals();
      EXPECT_EQ(totals.rows_scanned, result->metrics.rows_scanned);
      EXPECT_EQ(totals.groups_built, result->metrics.groups_built);
      EXPECT_EQ(totals.rows_shuffled, result->metrics.rows_shuffled);
      EXPECT_EQ(totals.comparisons, result->metrics.comparisons);
      EXPECT_EQ(totals.morsels_processed, result->metrics.morsels_processed);
    }

    // The rendered tree carries the root and the per-plan operators.
    const std::string tree = first.value().profile->ToString();
    EXPECT_NE(tree.find("-> execute"), std::string::npos) << tree;
    EXPECT_NE(tree.find("[FD]"), std::string::npos) << tree;
    EXPECT_NE(tree.find("[DEDUP]"), std::string::npos) << tree;
  }
}

TEST(QueryProfileTest, ProfileOffRecordsZeroSpansAndNoProfile) {
  CleanDB db(FastOptions());
  db.RegisterTable("customer", testsupport::MakeCustomers());
  auto prepared =
      db.Prepare("SELECT * FROM customer c FD(c.address, prefix(c.phone))");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  const uint64_t before = TraceRecorder::TotalSpansRecorded();
  auto result = prepared.value().Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().profile, nullptr);
  EXPECT_EQ(TraceRecorder::TotalSpansRecorded(), before)
      << "profiling off must record literally zero spans";
}

TEST(QueryProfileTest, SessionDefaultProfileKnob) {
  CleanDBOptions options = FastOptions();
  options.profile = true;
  CleanDB db(options);
  db.RegisterTable("customer", testsupport::MakeCustomers());
  auto result =
      db.Execute("SELECT * FROM customer c FD(c.address, prefix(c.phone))");
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result.value().profile, nullptr);
  EXPECT_FALSE(result.value().profile->spans().empty());
}

TEST(QueryProfileTest, SkewedNestFlagsImbalance) {
  // Every row shares one grouping key, so Nest routes all of them to a
  // single node: ImbalanceFactor = node count > the 2.0 default threshold.
  CleanDB db(FastOptions());
  Dataset skewed(Schema{{"name", ValueType::kString},
                        {"address", ValueType::kString},
                        {"phone", ValueType::kString},
                        {"nationkey", ValueType::kInt}});
  for (int i = 0; i < 64; i++) {
    skewed.Append(Row{Value("customer#" + std::to_string(i)),
                      Value("rue de lausanne 1"),
                      Value(std::to_string(100 + i) + "-555"),
                      Value(static_cast<int64_t>(i % 7))});
  }
  db.RegisterTable("customer", std::move(skewed));
  auto prepared =
      db.Prepare("SELECT * FROM customer c FD(c.address, prefix(c.phone))");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ExecOptions opts;
  opts.profile = true;
  auto result = prepared.value().Execute(opts);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result.value().profile, nullptr);

  bool found_skewed_nest = false;
  for (const auto& op : result.value().profile->operators()) {
    if (op.name != "Nest" || op.node_rows.empty()) continue;
    found_skewed_nest = true;
    EXPECT_GT(op.imbalance, 2.0);
    EXPECT_TRUE(op.skew_warning);
  }
  EXPECT_TRUE(found_skewed_nest);
  EXPECT_NE(result.value().profile->ToString().find("SKEW"), std::string::npos);
}

TEST(QueryProfileTest, ChromeTraceFileAndJsonRender) {
  CleanDB db(FastOptions());
  db.RegisterTable("customer", testsupport::MakeCustomers());
  auto prepared =
      db.Prepare("SELECT * FROM customer c FD(c.address, prefix(c.phone))");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  const std::string path =
      (std::filesystem::temp_directory_path() / "cleanm_trace_test.json")
          .string();
  ExecOptions opts;
  opts.profile = true;
  opts.trace_path = path;
  auto result = prepared.value().Execute(opts);
  ASSERT_TRUE(result.ok());

  const std::string trace = ReadFileOrDie(path);
  EXPECT_EQ(trace.front(), '[');
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"execute\""), std::string::npos);
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  std::remove(path.c_str());

  const std::string json = result.value().profile->ToJson();
  EXPECT_NE(json.find("\"operators\":"), std::string::npos);
  EXPECT_NE(json.find("\"totals\":"), std::string::npos);
  EXPECT_NE(json.find("\"rows_scanned\":"), std::string::npos);
}

TEST(MetricsExportTest, PrometheusTextFormat) {
  CleanDB db(FastOptions());
  db.RegisterTable("customer", testsupport::MakeCustomers());
  ASSERT_TRUE(
      db.Execute("SELECT * FROM customer c FD(c.address, prefix(c.phone))").ok());
  const std::string text = db.ExportMetricsText();
  EXPECT_NE(text.find("# TYPE cleandb_rows_scanned_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE cleandb_peak_bytes_materialized gauge"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cleandb_bytes_materialized_now 0"), std::string::npos)
      << text;
  // The session accumulated this execution's scan work.
  bool scanned_nonzero = false;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("cleandb_rows_scanned_total ", 0) == 0) {
      scanned_nonzero = line != "cleandb_rows_scanned_total 0";
    }
  }
  EXPECT_TRUE(scanned_nonzero) << text;
}

}  // namespace
}  // namespace cleanm
