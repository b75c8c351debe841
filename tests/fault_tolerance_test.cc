// Fault-tolerant execution: deterministic fault injection, task retry with
// partition re-execution, node blacklisting, deadlines/cancellation, and
// the poison-row quarantine (DESIGN.md, "Fault model & recovery").
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cleaning/prepared_query.h"
#include "engine/fault.h"
#include "support/fixtures.h"

namespace cleanm {
namespace {

using testsupport::FastCleanDBOptions;
using testsupport::Snapshot;

const char* kFdQuery =
    "SELECT * FROM customer c "
    "FD(c.address, prefix(c.phone)) "
    "FD(c.address, c.nationkey)";

/// Bit-identical comparison: same operations, every violation Value equal
/// pairwise, equal dirty-entity sets.
void ExpectBitIdentical(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); i++) {
    ASSERT_EQ(a.ops[i].violations.size(), b.ops[i].violations.size())
        << "operation " << a.ops[i].op_name;
    for (size_t v = 0; v < a.ops[i].violations.size(); v++) {
      EXPECT_TRUE(a.ops[i].violations[v].Equals(b.ops[i].violations[v]))
          << a.ops[i].op_name << " violation " << v;
    }
  }
  EXPECT_EQ(a.dirty_entities.size(), b.dirty_entities.size());
}

/// Order-insensitive violation-set equality, for scenarios (blacklist
/// re-routing) where partition placement legitimately changes output order.
void ExpectSameViolationSets(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.ops.size(), b.ops.size());
  auto sorted = [](const ValueList& vs) {
    std::vector<std::string> out;
    for (const auto& v : vs) out.push_back(v.ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  for (size_t i = 0; i < a.ops.size(); i++) {
    EXPECT_EQ(sorted(a.ops[i].violations), sorted(b.ops[i].violations))
        << "operation " << a.ops[i].op_name;
  }
  EXPECT_EQ(a.dirty_entities.size(), b.dirty_entities.size());
}

// ---- FaultInjector unit behavior ----

TEST(FaultInjectorTest, DecisionsAreDeterministicInSeedNodeAttempt) {
  engine::FaultOptions fo;
  fo.failure_probability = 0.5;
  fo.seed = 42;
  engine::FaultInjector a(4, fo);
  engine::FaultInjector b(4, fo);
  std::vector<bool> fails_a, fails_b;
  size_t failures = 0;
  for (int round = 0; round < 200; round++) {
    for (size_t n = 0; n < 4; n++) {
      const bool f = a.OnTaskAttempt(n).fail;
      fails_a.push_back(f);
      failures += f;
    }
  }
  for (int round = 0; round < 200; round++) {
    for (size_t n = 0; n < 4; n++) fails_b.push_back(b.OnTaskAttempt(n).fail);
  }
  EXPECT_EQ(fails_a, fails_b);
  // ~50% of 800 draws; loose bounds, deterministic given the seed.
  EXPECT_GT(failures, 300u);
  EXPECT_LT(failures, 500u);

  fo.seed = 43;
  engine::FaultInjector c(4, fo);
  std::vector<bool> fails_c;
  for (int round = 0; round < 200; round++) {
    for (size_t n = 0; n < 4; n++) fails_c.push_back(c.OnTaskAttempt(n).fail);
  }
  EXPECT_NE(fails_a, fails_c);
}

TEST(FaultInjectorTest, TargetedNodeBlacklistsAfterConsecutiveFailures) {
  engine::FaultOptions fo;
  fo.target_node = 2;
  fo.fail_first_attempts = 100;  // node 2 fails every attempt until benched
  fo.node_blacklist_threshold = 3;
  engine::FaultInjector inj(4, fo);
  EXPECT_TRUE(inj.OnTaskAttempt(2).fail);
  EXPECT_TRUE(inj.OnTaskAttempt(2).fail);
  const auto third = inj.OnTaskAttempt(2);
  EXPECT_TRUE(third.fail);
  EXPECT_TRUE(third.newly_blacklisted);
  EXPECT_TRUE(inj.blacklisted(2));
  EXPECT_TRUE(inj.AnyBlacklisted());
  // Out of service: its work runs clean (simulated re-execution on the
  // surviving pool), no further failures injected.
  EXPECT_FALSE(inj.OnTaskAttempt(2).fail);
  // Untargeted nodes never fail.
  EXPECT_FALSE(inj.OnTaskAttempt(0).fail);
  EXPECT_FALSE(inj.blacklisted(0));
}

TEST(QuarantineSinkTest, CapEndsTheQuarantine) {
  engine::QuarantineSink sink(2);
  EXPECT_TRUE(sink.Record({"t", 0, 0, "bad"}).ok());
  EXPECT_TRUE(sink.Record({"t", 1, 3, "bad"}).ok());
  const Status full = sink.Record({"t", 2, 5, "bad"});
  EXPECT_EQ(full.code(), StatusCode::kInternal);
  EXPECT_NE(full.message().find("cap exceeded"), std::string::npos);
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.TakeRows().size(), 2u);
}

// ---- Engine-level retry ----

TEST(ClusterFaultTest, RetriesReExecuteTheFailedNodesTaskExactly) {
  auto copts = testsupport::FastClusterOptions(4);
  copts.fault.target_node = 1;
  copts.fault.fail_first_attempts = 2;  // node 1's first two attempts fail
  copts.fault.max_task_retries = 3;
  copts.fault.retry_backoff_ns = 1000;
  engine::Cluster cluster(copts);
  std::vector<int> runs(4, 0);
  cluster.RunOnNodes([&](size_t n) { runs[n]++; });
  // Injection fires before the body, so failed attempts have no side
  // effects: every node's body ran exactly once.
  EXPECT_EQ(runs, (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(cluster.metrics().tasks_failed.load(), 2u);
  EXPECT_EQ(cluster.metrics().tasks_retried.load(), 2u);
  EXPECT_EQ(cluster.metrics().nodes_blacklisted.load(), 0u);
}

TEST(ClusterFaultTest, RetriesExhaustedThrowUnavailable) {
  auto copts = testsupport::FastClusterOptions(4);
  copts.fault.target_node = 3;
  copts.fault.fail_first_attempts = 100;
  copts.fault.max_task_retries = 2;
  copts.fault.retry_backoff_ns = 0;
  engine::Cluster cluster(copts);
  try {
    cluster.RunOnNodes([&](size_t) {});
    FAIL() << "expected NodeUnavailableError";
  } catch (const engine::StatusException& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(cluster.metrics().tasks_failed.load(), 3u);  // initial + 2 retries
  EXPECT_EQ(cluster.metrics().tasks_retried.load(), 2u);
}

// ---- Session-level: injected failures vs a clean run ----

TEST(FaultToleranceTest, InjectedFailuresRetryToBitIdenticalResults) {
  const Dataset customers = testsupport::MakeCustomers();

  CleanDB clean_db(FastCleanDBOptions(4));
  clean_db.RegisterTable("customer", customers);
  const QueryResult clean = clean_db.Execute(kFdQuery).ValueOrDie();
  ASSERT_GT(clean.ops[0].violations.size(), 0u);
  EXPECT_EQ(clean.metrics.tasks_failed, 0u);
  EXPECT_EQ(clean.metrics.tasks_retried, 0u);

  auto opts = FastCleanDBOptions(4);
  opts.fault.failure_probability = 0.25;
  opts.fault.seed = 11;
  opts.fault.max_task_retries = 12;
  opts.fault.retry_backoff_ns = 1000;
  CleanDB faulty_db(opts);
  faulty_db.RegisterTable("customer", customers);
  const QueryResult faulty = faulty_db.Execute(kFdQuery).ValueOrDie();

  ExpectBitIdentical(clean, faulty);
  EXPECT_GT(faulty.metrics.tasks_failed, 0u);
  EXPECT_GT(faulty.metrics.tasks_retried, 0u);
  EXPECT_EQ(faulty.metrics.nodes_blacklisted, 0u);

  // A prepared query's re-execution reads cached partitionings, so it runs
  // fewer epochs, but the violation select still fans out: attempts (and
  // with p=0.25, some failures) still happen, and the retried result stays
  // bit-identical.
  auto prepared = faulty_db.Prepare(kFdQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(prepared.value().Execute().ok());
  const QueryResult warm = prepared.value().Execute().ValueOrDie();
  ExpectBitIdentical(clean, warm);
  EXPECT_GT(warm.metrics.tasks_failed, 0u);
  EXPECT_GT(warm.metrics.tasks_retried, 0u);
}

TEST(FaultToleranceTest, RetriesExhaustedSurfaceUnavailable) {
  auto opts = FastCleanDBOptions(4);
  opts.fault.target_node = 1;
  opts.fault.fail_first_attempts = 1000000;  // node 1 never recovers
  opts.fault.max_task_retries = 2;
  opts.fault.retry_backoff_ns = 0;
  CleanDB db(opts);
  db.RegisterTable("customer", testsupport::MakeCustomers());
  auto r = db.Execute(kFdQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  // All workers joined: the session stays usable (a fault-free db would
  // deadlock here if producers leaked).
  EXPECT_GT(db.cluster().session_metrics().tasks_failed.load(), 0u);
}

TEST(FaultToleranceTest, BlacklistedNodeIsRoutedAroundAndExecutionSucceeds) {
  auto opts = FastCleanDBOptions(4);
  opts.fault.target_node = 1;
  opts.fault.fail_first_attempts = 1000000;
  opts.fault.node_blacklist_threshold = 2;  // benched before retries run out
  opts.fault.max_task_retries = 5;
  opts.fault.retry_backoff_ns = 1000;
  CleanDB db(opts);
  db.RegisterTable("customer", testsupport::MakeCustomers());
  const QueryResult result = db.Execute(kFdQuery).ValueOrDie();
  EXPECT_EQ(result.metrics.nodes_blacklisted, 1u);
  EXPECT_GE(result.metrics.tasks_retried, 2u);
  EXPECT_TRUE(db.cluster().NodeBlacklisted(1));
  EXPECT_FALSE(db.cluster().NodeBlacklisted(0));

  // Degraded-mode output equals the clean run as a *set* (re-routing moves
  // partitions, so order may differ; blacklisting is graceful degradation,
  // not the bit-identical retry path).
  CleanDB clean_db(FastCleanDBOptions(4));
  clean_db.RegisterTable("customer", testsupport::MakeCustomers());
  ExpectSameViolationSets(clean_db.Execute(kFdQuery).ValueOrDie(), result);

  // New partitionings route around the blacklisted node for the rest of
  // the session.
  const QueryResult again = db.Execute(kFdQuery).ValueOrDie();
  ExpectSameViolationSets(result, again);
}

// ---- Deadlines and cancellation ----

TEST(FaultToleranceTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  CleanDB db(FastCleanDBOptions(4));
  db.RegisterTable("customer", testsupport::MakeCustomers());
  auto prepared = db.Prepare(kFdQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedQuery& pq = prepared.value();

  const uint64_t cancelled_before =
      db.cluster().session_metrics().executions_cancelled.load();
  ExecOptions dopts;
  dopts.deadline_ns = 1;  // elapses before the first epoch boundary check
  auto r = pq.Execute(dopts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(db.cluster().session_metrics().executions_cancelled.load(),
            cancelled_before + 1);

  // Workers joined and state intact: the same query runs fine afterwards.
  EXPECT_TRUE(pq.Execute().ok());
}

TEST(FaultToleranceTest, CancelTokenCancelsAndResets) {
  CleanDB db(FastCleanDBOptions(4));
  db.RegisterTable("customer", testsupport::MakeCustomers());
  auto prepared = db.Prepare(kFdQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedQuery& pq = prepared.value();

  pq.cancel_token().Cancel();
  auto r = pq.Execute();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  // Sticky until Reset.
  EXPECT_EQ(pq.Execute().status().code(), StatusCode::kCancelled);

  pq.cancel_token().Reset();
  auto ok = pq.Execute();
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_GT(ok.ValueOrDie().ops[0].violations.size(), 0u);
}

// ---- Poison-row quarantine ----

/// 300 clean rows (numeric val) + 100 poison rows whose val is a string —
/// to_num(c.val) throws ValueCoercionError on exactly the poison rows.
Dataset PoisonTable() {
  Dataset t(Schema{{"address", ValueType::kString}, {"val", ValueType::kDouble}});
  for (int i = 0; i < 300; i++) {
    t.Append({Value("addr" + std::to_string(i % 50)),
              Value(static_cast<double>(i % 7))});
  }
  for (int i = 0; i < 100; i++) {
    t.Append({Value("poison" + std::to_string(i)), Value("not-a-number")});
  }
  return t;
}

Status RegisterToNum(CleanDB& db) {
  return db.functions().RegisterScalar(
      "to_num", 1, [](const std::vector<Value>& args) -> Result<Value> {
        return Value(args[0].ToDouble());  // throws on non-numeric
      });
}

const char* kPoisonQuery = "SELECT * FROM t c FD(c.address, to_num(c.val))";

TEST(FaultToleranceTest, QuarantineSkipsPoisonRowsAndReportsThem) {
  // The throwing UDF in four per-row positions: an FD right-hand side (Nest
  // fold), an ungrouped projection (Reduce head), a WHERE predicate
  // (transform chain), and a grouped aggregate.
  for (const char* query :
       {kPoisonQuery, "SELECT to_num(c.val) AS v FROM t c",
        "SELECT c.address AS a FROM t c WHERE to_num(c.val) >= 0",
        "SELECT c.address AS a, sum(to_num(c.val)) AS s FROM t c "
        "GROUP BY c.address"}) {
    SCOPED_TRACE(query);
    CleanDB db(FastCleanDBOptions(4));
    ASSERT_TRUE(RegisterToNum(db).ok());
    db.RegisterTable("t", PoisonTable());
    auto prepared = db.Prepare(query);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

    ExecOptions qopts;
    qopts.max_quarantined_rows = 150;
    auto r = prepared.value().Execute(qopts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const QueryResult& result = r.value();
    // Acceptance: all 100 poison rows skipped, the query succeeds, and the
    // clean rows' results still come out.
    EXPECT_EQ(result.metrics.rows_quarantined, 100u);
    ASSERT_EQ(result.quarantined.size(), 100u);
    EXPECT_GT(result.ops[0].violations.size(), 0u);
    for (const auto& q : result.quarantined) {
      EXPECT_EQ(q.table, "t");
      EXPECT_NE(q.error.find("cannot read string value as numeric"),
                std::string::npos);
    }
  }
}

TEST(FaultToleranceTest, QuarantineOffPoisonRowFailsTheExecution) {
  CleanDB db(FastCleanDBOptions(4));
  ASSERT_TRUE(RegisterToNum(db).ok());
  db.RegisterTable("t", PoisonTable());
  auto r = db.Execute(kPoisonQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().message().find("cannot read string value as numeric"),
            std::string::npos);
}

TEST(FaultToleranceTest, QuarantineCapExceededFailsTheExecution) {
  CleanDB db(FastCleanDBOptions(4));
  ASSERT_TRUE(RegisterToNum(db).ok());
  db.RegisterTable("t", PoisonTable());
  auto prepared = db.Prepare(kPoisonQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ExecOptions qopts;
  qopts.max_quarantined_rows = 50;  // 100 poison rows overflow the cap
  auto r = prepared.value().Execute(qopts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().message().find("cap exceeded"), std::string::npos);
}

}  // namespace
}  // namespace cleanm
