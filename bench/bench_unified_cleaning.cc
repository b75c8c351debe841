// E4 — Figure 5: unified data cleaning on the customer table.
//
// Query: FD1 address → prefix(phone), FD2 address → nationkey, and DEDUP on
// address — run (a) as three standalone operations and (b) as one unified
// query, on CleanDB, Spark SQL, and BigDansing.
//
// Paper shape: CleanDB detects the shared grouping on `address` and runs a
// single aggregation pass, so unified < separate; Spark SQL cannot combine
// the operations (unified costs *more* than separate due to the outer-join
// combination pass); BigDansing runs one rule at a time and rejects FD1
// (prefix() is a computed attribute).
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/baselines.h"
#include "cleaning/prepared_query.h"
#include "cleaning/query_profile.h"
#include "common/timer.h"
#include "common/trace.h"
#include "datagen/generators.h"
#include "repair/repair_sink.h"

namespace cleanm {
namespace {

// Set by --smoke: tiny sizes so CTest can verify the bench end to end.
size_t g_base_rows = 12000;
// --nonet: zero simulated network cost (pure compute, for dispatch A/B).
bool g_nonet = false;
// --legacy: spawn-per-call threads + unbatched shuffles (the pre-pool
// execution model, kept for before/after comparison).
bool g_legacy = false;

CleanDBOptions BenchOptions() {
  CleanDBOptions opts;
  opts.num_nodes = 8;
  // Effective per-byte cost of a shuffle hop including serialization —
  // shuffles dominate cleaning jobs on real clusters (see DESIGN.md).
  opts.shuffle_ns_per_byte = g_nonet ? 0.0 : 40.0;
  if (g_legacy) {
    opts.use_worker_pool = false;
    opts.shuffle_batch_rows = 1;
  }
  return opts;
}

Dataset MakeData() {
  datagen::CustomerOptions copts;
  copts.base_rows = g_base_rows;
  copts.duplicate_fraction = 0.10;
  copts.max_duplicates = 40;
  copts.fd_violation_fraction = 0.05;
  return datagen::MakeCustomer(copts);
}

const char* kQuery = R"(
  SELECT * FROM customer c
  FD(c.address, prefix(c.phone))
  FD(c.address, c.nationkey)
  DEDUP(exact, LD, 0.8, c.address)
)";

struct SystemTimes {
  double fd1 = -1, fd2 = -1, dedup = -1, unified = -1;
};

SystemTimes RunCleanDB(bool unify) {
  CleanDBOptions opts = BenchOptions();
  opts.unify_operations = unify;
  CleanDB db(opts);
  db.RegisterTable("customer", MakeData());
  SystemTimes t;
  auto result = db.Execute(kQuery).ValueOrDie();
  t.fd1 = result.ops[0].seconds;
  t.fd2 = result.ops[1].seconds;
  t.dedup = result.ops[2].seconds;
  t.unified = result.total_seconds;
  return t;
}

SystemTimes RunSparkSql() {
  SparkSqlSim spark(BenchOptions());
  spark.RegisterTable("customer", MakeData());
  auto query = ParseCleanM(kQuery).ValueOrDie();
  SystemTimes t;
  auto result = spark.ExecuteQuery(query).ValueOrDie();
  t.fd1 = result.ops[0].seconds;
  t.fd2 = result.ops[1].seconds;
  t.dedup = result.ops[2].seconds;
  t.unified = result.total_seconds;
  return t;
}

SystemTimes RunBigDansing() {
  BigDansingSim bd(BenchOptions());
  bd.RegisterTable("customer", MakeData());
  SystemTimes t;
  FdClause fd1;
  fd1.lhs = {ParseCleanMExpr("c.address").ValueOrDie()};
  fd1.rhs = {ParseCleanMExpr("prefix(c.phone)").ValueOrDie()};
  auto r1 = bd.CheckFd("customer", "c", fd1);
  t.fd1 = r1.ok() ? r1.value().seconds : -1;  // -1 = unsupported
  FdClause fd2;
  fd2.lhs = {ParseCleanMExpr("c.address").ValueOrDie()};
  fd2.rhs = {ParseCleanMExpr("c.nationkey").ValueOrDie()};
  t.fd2 = bd.CheckFd("customer", "c", fd2).ValueOrDie().seconds;
  DedupClause dedup;
  dedup.op = FilteringAlgo::kExactKey;
  dedup.theta = 0.8;
  dedup.attributes = {ParseCleanMExpr("c.address").ValueOrDie()};
  t.dedup = bd.Deduplicate("customer", "c", dedup).ValueOrDie().seconds;
  // BigDansing has no unified mode: total = sum of rules it can run.
  t.unified = t.fd2 + t.dedup + (t.fd1 > 0 ? t.fd1 : 0);
  return t;
}

// Substrate A/B — a *many-operator* unified plan: eight FD clauses compile
// into a deep operator DAG (scans, groupings, joins) whose per-operator
// dispatch cost is what the persistent worker pool amortizes. Runs at zero
// simulated network cost (pure compute), pool+batching vs. the legacy
// spawn-per-call model, in-process.
const char* kManyOpQuery = R"(
  SELECT * FROM customer c
  FD(c.address, c.nationkey)
  FD(c.address, prefix(c.phone))
  FD(c.name, c.nationkey)
  FD(c.phone, c.nationkey)
  FD(c.name, c.address)
  FD(c.phone, c.address)
  FD(c.name, c.phone)
  FD(c.custkey, c.nationkey)
)";

Dataset ManyOpData() {
  // Fixed small table regardless of --smoke: per-operator dispatch must
  // stay the dominant cost for these A/Bs to isolate the substrate.
  datagen::CustomerOptions copts;
  copts.base_rows = 400;
  copts.duplicate_fraction = 0.10;
  copts.max_duplicates = 40;
  copts.fd_violation_fraction = 0.05;
  return datagen::MakeCustomer(copts);
}

CleanDBOptions ManyOpOptions(bool legacy) {
  CleanDBOptions opts;
  opts.num_nodes = 8;
  opts.shuffle_ns_per_byte = 0;
  if (legacy) {
    opts.use_worker_pool = false;
    opts.shuffle_batch_rows = 1;
  }
  return opts;
}

double RunManyOpPlan(bool legacy) {
  CleanDB db(ManyOpOptions(legacy));
  db.RegisterTable("customer", ManyOpData());
  double best = -1;
  for (int rep = 0; rep < 3; rep++) {
    Timer timer;
    auto result = db.Execute(kManyOpQuery).ValueOrDie();
    CLEANM_CHECK(result.ops.size() == 8);
    const double s = timer.ElapsedSeconds();
    if (best < 0 || s < best) best = s;
  }
  return best;
}

// ---- Prepared-query A/B: cold one-shot Execute (fresh session: construct,
// register, parse, plan, partition — the only way to run a query before the
// Prepare/Execute split) vs. re-executing one PreparedQuery on a live
// session (plans + partition cache warm). 8-FD unified plan, pure compute.

struct PreparedAb {
  double cold_s = 0;
  double reexec_s = 0;
  double speedup = 0;
  uint64_t reexec_repartitions = 0;  ///< scan+nest misses across timed reps
};

PreparedAb RunPreparedAb() {
  const Dataset data = ManyOpData();
  const int reps = 5;
  PreparedAb ab;

  double cold_best = -1;
  for (int rep = 0; rep < reps; rep++) {
    Timer timer;
    CleanDB db(ManyOpOptions(/*legacy=*/false));
    db.RegisterTable("customer", data);
    auto result = db.Execute(kManyOpQuery).ValueOrDie();
    CLEANM_CHECK(result.ops.size() == 8);
    const double s = timer.ElapsedSeconds();
    if (cold_best < 0 || s < cold_best) cold_best = s;
  }

  CleanDB db(ManyOpOptions(/*legacy=*/false));
  db.RegisterTable("customer", data);
  auto prepared = db.Prepare(kManyOpQuery);
  CLEANM_CHECK(prepared.ok());
  (void)prepared.value().Execute().ValueOrDie();  // populate the cache
  double reexec_best = -1;
  for (int rep = 0; rep < reps; rep++) {
    Timer timer;
    auto result = prepared.value().Execute().ValueOrDie();
    CLEANM_CHECK(result.ops.size() == 8);
    const double s = timer.ElapsedSeconds();
    if (reexec_best < 0 || s < reexec_best) reexec_best = s;
    ab.reexec_repartitions += result.cache.scan_misses + result.cache.nest_misses;
  }

  ab.cold_s = cold_best;
  ab.reexec_s = reexec_best;
  ab.speedup = reexec_best > 0 ? cold_best / reexec_best : 0;
  return ab;
}

// ---- UDF / repair A/B: the function-registry subsystem must not tax the
// engine. Three measurements on the customer table, pure compute:
//   1. a GROUP BY with a *registered* monoid-annotated aggregate (usum, a
//      user-written clone of sum) vs. the equivalent built-in aggregate —
//      CI-gated at ≤ 1.3× (the registry dispatch must stay in the noise);
//   2. the same UDF GROUP BY pooled vs. use_worker_pool=false (the
//      registry path must ride the substrate wins of PR 2);
//   3. a registered repair function driving the detect→repair loop vs. a
//      hand-rolled driver-side traversal computing the identical repairs.

std::string BenchPhonePrefix(const std::string& phone) {
  const size_t dash = phone.find('-');
  return dash == std::string::npos ? phone.substr(0, 3) : phone.substr(0, dash);
}

void RegisterBenchFunctions(CleanDB& db) {
  Status st = db.functions().RegisterAggregate(
      "usum", Value(int64_t{0}), [](const Value& v) { return v; },
      [](Value a, const Value& b) {
        if (!a.is_numeric() || !b.is_numeric()) return a;
        return Value(a.AsInt() + b.AsInt());
      });
  CLEANM_CHECK(st.ok());
  st = db.functions().RegisterRepair(
      "fix_phone_prefix", 1, [](const std::vector<Value>& args) -> Result<Value> {
        std::string target;
        bool have_target = false;
        for (const auto& rec : args[0].AsList()) {
          auto phone = rec.GetField("phone");
          if (!phone.ok() || phone.value().type() != ValueType::kString) continue;
          const std::string p = BenchPhonePrefix(phone.value().AsString());
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
          if (BenchPhonePrefix(full) == target) continue;
          const size_t dash = full.find('-');
          actions.push_back(Value(ValueStruct{
              {"entity", rec},
              {"set", Value(ValueStruct{
                          {"phone", Value(target + (dash == std::string::npos
                                                        ? ""
                                                        : full.substr(dash)))}})}}));
        }
        return Value(std::move(actions));
      });
  CLEANM_CHECK(st.ok());
}

const char* kUdfAggQuery =
    "SELECT c.nationkey AS k, usum(c.custkey) AS t "
    "FROM customer c GROUP BY c.nationkey";
const char* kBuiltinAggQuery =
    "SELECT c.nationkey AS k, sum(c.custkey) AS t "
    "FROM customer c GROUP BY c.nationkey";
const char* kRepairQuery =
    "SELECT c.address AS addr, fix_phone_prefix(bag(c)) AS fixes "
    "FROM customer c GROUP BY c.address "
    "HAVING length(set(prefix(c.phone))) > 1";

struct UdfAb {
  double builtin_agg_s = 0;
  double udf_agg_s = 0;
  double agg_ratio = 0;          ///< udf / builtin (≤ 1.3 gated)
  double udf_agg_legacy_s = 0;   ///< UDF GROUP BY, spawn-per-call + batch 1
  double repair_registered_s = 0;
  double repair_manual_s = 0;
  size_t repairs_applied = 0;
  size_t repairs_manual = 0;
};

/// Best-of-reps execution time of `query` on a warm session. One-shot
/// Executes on purpose: a transient plan keeps its Nest output out of the
/// session cache, so every rep really re-runs the aggregation (scans stay
/// cached — the A/B isolates aggregate compute, not partitioning).
double TimeGroupByQuery(const Dataset& data, const char* query, bool legacy,
                        size_t* violations = nullptr) {
  CleanDBOptions opts = ManyOpOptions(legacy);
  CleanDB db(opts);
  RegisterBenchFunctions(db);
  db.RegisterTable("customer", data);
  (void)db.Execute(query).ValueOrDie();  // warm the scan cache
  double best = -1;
  for (int rep = 0; rep < 7; rep++) {
    Timer timer;
    auto result = db.Execute(query).ValueOrDie();
    const double s = timer.ElapsedSeconds();
    if (best < 0 || s < best) best = s;
    if (violations) *violations = result.ops.back().violations.size();
  }
  return best;
}

UdfAb RunUdfAb() {
  // A larger slice than the many-op table: aggregate throughput, not
  // dispatch, is what the 1.3× gate compares.
  datagen::CustomerOptions copts;
  copts.base_rows = std::max<size_t>(g_base_rows, 2000);
  copts.duplicate_fraction = 0.10;
  copts.max_duplicates = 40;
  copts.fd_violation_fraction = 0.05;
  const Dataset data = datagen::MakeCustomer(copts);

  UdfAb ab;
  ab.builtin_agg_s = TimeGroupByQuery(data, kBuiltinAggQuery, /*legacy=*/false);
  ab.udf_agg_s = TimeGroupByQuery(data, kUdfAggQuery, /*legacy=*/false);
  ab.agg_ratio = ab.builtin_agg_s > 0 ? ab.udf_agg_s / ab.builtin_agg_s : 0;
  ab.udf_agg_legacy_s = TimeGroupByQuery(data, kUdfAggQuery, /*legacy=*/true);

  // Registered repair loop: detect on the engine, apply + re-register.
  {
    CleanDB db(ManyOpOptions(/*legacy=*/false));
    RegisterBenchFunctions(db);
    db.RegisterTable("customer", data);
    auto prepared = db.Prepare(kRepairQuery);
    CLEANM_CHECK(prepared.ok());
    Timer timer;
    RepairSink sink(&db, prepared.value());
    CLEANM_CHECK(prepared.value().ExecuteInto(sink).ok());
    auto summary = sink.Commit().ValueOrDie();
    ab.repair_registered_s = timer.ElapsedSeconds();
    ab.repairs_applied = summary.cells_changed;
  }

  // Hand-rolled baseline: a driver-side traversal computing the identical
  // majority-prefix repair (group, pick min prefix, rewrite deviants).
  {
    Timer timer;
    const auto& schema = data.schema();
    const size_t addr_idx = schema.IndexOf("address").ValueOrDie();
    const size_t phone_idx = schema.IndexOf("phone").ValueOrDie();
    std::map<std::string, std::string> min_prefix;
    std::map<std::string, std::set<std::string>> prefixes;
    for (const auto& row : data.rows()) {
      if (row[addr_idx].type() != ValueType::kString ||
          row[phone_idx].type() != ValueType::kString) {
        continue;
      }
      const std::string& addr = row[addr_idx].AsString();
      const std::string p = BenchPhonePrefix(row[phone_idx].AsString());
      prefixes[addr].insert(p);
      auto it = min_prefix.find(addr);
      if (it == min_prefix.end() || p < it->second) min_prefix[addr] = p;
    }
    Dataset repaired(schema);
    size_t cells = 0;
    for (const auto& row : data.rows()) {
      Row r = row;
      if (r[addr_idx].type() == ValueType::kString &&
          r[phone_idx].type() == ValueType::kString) {
        const std::string& addr = r[addr_idx].AsString();
        if (prefixes[addr].size() > 1) {
          const std::string& full = r[phone_idx].AsString();
          if (BenchPhonePrefix(full) != min_prefix[addr]) {
            const size_t dash = full.find('-');
            r[phone_idx] = Value(min_prefix[addr] +
                                 (dash == std::string::npos ? "" : full.substr(dash)));
            cells++;
          }
        }
      }
      repaired.Append(std::move(r));
    }
    ab.repair_manual_s = timer.ElapsedSeconds();
    ab.repairs_manual = cells;
  }
  return ab;
}

// ---- Pipeline gate: one cold run of the 8-FD unified plan, gated on an
// absolute memory bound. QueryMetrics::peak_bytes_materialized is the
// high-water mark of transient buffers (breaker outputs and in-flight
// morsels); it must stay within 2x the table's logical footprint.
// Materializing every operator output instead (each FD's keyed Nest
// expansion) peaks at several times the footprint, so a regression to
// materialization fails the gate. The run pins morsel_rows so a morsel is
// a small fraction of a per-node partition at bench scale — the
// scaled-down equivalent of the 4096-row default on production-size tables
// (a morsel only bounds memory when it is smaller than the partition it
// streams from).

struct PipelineRun {
  uint64_t peak_bytes = 0;
  uint64_t footprint_bytes = 0;
  double peak_over_footprint = 0;  ///< peak / footprint (≤ 2 gated)
  uint64_t morsels = 0;
  double seconds = 0;
};

PipelineRun RunPipelineGate() {
  datagen::CustomerOptions copts;
  copts.base_rows = std::max<size_t>(g_base_rows, 2000);
  copts.duplicate_fraction = 0.10;
  copts.max_duplicates = 40;
  copts.fd_violation_fraction = 0.05;
  const Dataset data = datagen::MakeCustomer(copts);
  const size_t kGateMorselRows = 32;

  PipelineRun run;
  run.footprint_bytes = data.ByteSize();
  CleanDB db(ManyOpOptions(/*legacy=*/false));
  db.RegisterTable("customer", data);
  auto prepared = db.Prepare(kManyOpQuery);
  CLEANM_CHECK(prepared.ok());
  ExecOptions eo;
  eo.morsel_rows = kGateMorselRows;
  Timer timer;
  auto result = prepared.value().Execute(eo).ValueOrDie();
  run.seconds = timer.ElapsedSeconds();
  CLEANM_CHECK(result.ops.size() == 8);
  run.peak_bytes = result.metrics.peak_bytes_materialized;
  run.morsels = result.metrics.morsels_processed;
  run.peak_over_footprint = static_cast<double>(run.peak_bytes) /
                            static_cast<double>(run.footprint_bytes);
  return run;
}

// ---- Out-of-core A/B: the 8-FD unified plan fully in-memory vs under a
// buffer pool budgeted at 1/8 of the dataset footprint. The budgeted run
// scans the table through paged chunks, spills Nest partials past the
// budget, and re-reads every spill generation for the merge — and must
// still produce *bit-identical* violations (same tuples, same order,
// compared on the full rendered structure). Gates: identical violations,
// bytes actually spilled (the budget really bit), pool peak residency
// within the budget, and wall-clock within 2× of in-memory. Small pages
// and morsels keep bench-scale data producing several spill generations.

struct OutOfCoreAb {
  uint64_t footprint_bytes = 0;
  uint64_t budget_bytes = 0;
  uint64_t bytes_spilled = 0;
  uint64_t pages_evicted = 0;
  uint64_t pool_peak_resident = 0;
  bool within_budget = false;
  double in_memory_s = 0;
  double out_of_core_s = 0;
  double slowdown = 0;  ///< out_of_core / in_memory (≤ 2 gated)
  size_t violations = 0;
  bool identical = false;
};

OutOfCoreAb RunOutOfCoreAb() {
  datagen::CustomerOptions copts;
  copts.base_rows = std::max<size_t>(g_base_rows, 2000);
  copts.duplicate_fraction = 0.10;
  copts.max_duplicates = 40;
  copts.fd_violation_fraction = 0.05;
  const Dataset data = datagen::MakeCustomer(copts);
  const size_t kPageBytes = 4096;

  OutOfCoreAb ab;
  ab.footprint_bytes = data.ByteSize();
  ab.budget_bytes = ab.footprint_bytes / 8;
  std::vector<std::string> rendered[2];
  for (int ooc = 0; ooc <= 1; ooc++) {
    CleanDBOptions options = ManyOpOptions(/*legacy=*/false);
    if (ooc != 0) {
      options.buffer_pool_bytes = ab.budget_bytes;
      options.page_bytes = kPageBytes;
      options.morsel_rows = 512;  // several aggregator spill generations
    }
    CleanDB db(options);
    db.RegisterTable("customer", data);
    auto prepared = db.Prepare(kManyOpQuery);
    CLEANM_CHECK(prepared.ok());
    Timer timer;
    auto result = prepared.value().Execute().ValueOrDie();
    const double s = timer.ElapsedSeconds();
    CLEANM_CHECK(result.ops.size() == 8);
    for (const auto& op : result.ops) {
      for (const auto& v : op.violations) rendered[ooc].push_back(v.ToString());
    }
    if (ooc != 0) {
      ab.out_of_core_s = s;
      ab.bytes_spilled = result.metrics.bytes_spilled;
      ab.pages_evicted = result.metrics.pages_evicted;
      const BufferPool::Stats pool = db.buffer_pool()->stats();
      ab.pool_peak_resident = pool.peak_resident_bytes;
      // The pool admits a single over-budget payload alone, so the bound
      // is max(budget, one oversized chunk).
      ab.within_budget = pool.peak_resident_bytes <=
                         std::max<uint64_t>(ab.budget_bytes, 2 * kPageBytes);
    } else {
      ab.in_memory_s = s;
    }
  }
  ab.violations = rendered[0].size();
  ab.identical = rendered[0] == rendered[1];
  ab.slowdown = ab.in_memory_s > 0 ? ab.out_of_core_s / ab.in_memory_s : 0;
  return ab;
}

// ---- Concurrency A/B: 8 prepared sessions serialized vs 8 concurrent
// driver threads on ONE shared CleanDB. Each session owns its own table
// copy and its own PreparedQuery, and every table is re-registered
// (generation bump -> partition-cache miss) before each arm, so every
// execution in both arms genuinely re-partitions and pays the simulated
// network. (A single shared warm PreparedQuery would serve every shuffle
// from the partition cache — the prepared_reexec gate above proves
// re-executions do zero re-partitioning — leaving nothing to overlap.)
// The session layer's claim: concurrent executions overlap those network
// waits (each shuffle hop sleeps on its own driver/worker/spawned thread)
// while staying bit-identical to the serial baseline — snapshot visibility
// and per-execution metrics make the interleaving invisible in the results.
// The workload is deliberately sleep-dominated (tiny table, steep ns/byte):
// on a single-core runner compute cannot overlap, so the A/B isolates
// exactly what the session layer controls — whether one session's network
// wait blocks another's. This section also deliberately ignores --nonet:
// with zero network cost there is nothing to overlap, and the A/B would
// merely measure the scheduler. The network-simulated regime is the
// paper's cluster setting anyway.

struct ConcurrencyAb {
  size_t sessions = 8;
  double serial_s = 0;
  double concurrent_s = 0;
  double speedup = 0;      ///< serial / concurrent (≥ 2 gated)
  size_t violations = 0;   ///< per-execution violation tuples (baseline)
  bool identical = false;  ///< all 16 executions bit-identical to baseline
};

ConcurrencyAb RunConcurrencyAb() {
  ConcurrencyAb ab;
  CleanDBOptions opts;
  opts.num_nodes = 8;
  opts.shuffle_ns_per_byte = 150000.0;  // sleep-dominated on purpose (see above)
  CleanDB db(opts);
  datagen::CustomerOptions copts;
  copts.base_rows = std::min<size_t>(g_base_rows, 150);
  copts.duplicate_fraction = 0.10;
  copts.max_duplicates = 40;
  copts.fd_violation_fraction = 0.05;
  // One identical table copy per session (datagen is deterministic, so all
  // eight carry the same rows and yield the same violations). Re-running
  // this before an arm bumps every generation, invalidating the partition
  // cache so the arm's executions re-partition from scratch.
  auto reseed = [&] {
    for (size_t i = 0; i < ab.sessions; i++) {
      db.RegisterTable("customer" + std::to_string(i),
                       datagen::MakeCustomer(copts));
    }
  };
  reseed();
  std::vector<PreparedQuery> sessions;
  sessions.reserve(ab.sessions);
  for (size_t i = 0; i < ab.sessions; i++) {
    std::string q = kQuery;
    const std::string from = "FROM customer";
    q.replace(q.find(from), from.size(), from + std::to_string(i));
    auto prepared = db.Prepare(q);
    CLEANM_CHECK(prepared.ok());
    sessions.push_back(std::move(prepared.value()));
  }

  auto render = [](const QueryResult& r) {
    std::string out;
    for (const auto& op : r.ops) {
      for (const auto& v : op.violations) {
        out += v.ToString();
        out += '\n';
      }
    }
    return out;
  };
  auto warm = sessions[0].Execute().ValueOrDie();
  const std::string baseline = render(warm);
  for (const auto& op : warm.ops) ab.violations += op.violations.size();
  bool all_identical = true;

  {
    reseed();  // all sessions cold: every execution pays the network
    Timer timer;
    for (size_t i = 0; i < ab.sessions; i++) {
      auto result = sessions[i].Execute().ValueOrDie();
      if (render(result) != baseline) all_identical = false;
    }
    ab.serial_s = timer.ElapsedSeconds();
  }
  {
    reseed();  // cold again: the concurrent arm repartitions the same work
    std::atomic<int> mismatches{0};
    std::vector<std::thread> drivers;
    drivers.reserve(ab.sessions);
    Timer timer;
    for (size_t i = 0; i < ab.sessions; i++) {
      drivers.emplace_back([&, i] {
        auto result = sessions[i].Execute();
        if (!result.ok() || render(result.value()) != baseline) mismatches++;
      });
    }
    for (auto& t : drivers) t.join();
    ab.concurrent_s = timer.ElapsedSeconds();
    if (mismatches.load() != 0) all_identical = false;
  }
  ab.identical = all_identical;
  ab.speedup = ab.concurrent_s > 0 ? ab.serial_s / ab.concurrent_s : 0;
  return ab;
}

// ---- Fault-tolerance A/B: the recovery machinery must keep results exact
// and cheap. Two arms:
//   1. Injected failures: the 8-FD unified plan (pure compute) clean vs
//      5% per-task injected kUnavailable with a fixed seed — retries must
//      re-execute failed partitions to *bit-identical* violations at ≤1.5×
//      the clean wall-clock (a failed attempt aborts before the task body,
//      so the overhead is re-execution, not corruption).
//   2. Deadline: a network-simulated cold execution (this arm deliberately
//      ignores --nonet — with zero network cost the run finishes before any
//      realistic deadline) re-run with deadline_ns at 10% of its clean
//      wall-clock must return kDeadlineExceeded promptly instead of running
//      to completion.

struct FaultAb {
  double clean_s = 0;
  double faulted_s = 0;
  double overhead = 0;  ///< faulted / clean (≤ 1.5 gated)
  uint64_t tasks_failed = 0;
  uint64_t tasks_retried = 0;
  size_t violations = 0;
  bool identical = false;
  double deadline_clean_s = 0;
  double deadline_run_s = 0;
  bool deadline_exceeded = false;
  uint64_t executions_cancelled = 0;
};

FaultAb RunFaultAb() {
  datagen::CustomerOptions copts;
  copts.base_rows = std::max<size_t>(g_base_rows, 2000);
  copts.duplicate_fraction = 0.10;
  copts.max_duplicates = 40;
  copts.fd_violation_fraction = 0.05;
  const Dataset data = datagen::MakeCustomer(copts);

  FaultAb ab;
  auto render = [](const QueryResult& r) {
    std::vector<std::string> out;
    for (const auto& op : r.ops) {
      for (const auto& v : op.violations) out.push_back(v.ToString());
    }
    return out;
  };

  // Arm 1: clean vs 5% injected task failures on the 8-FD unified plan.
  std::vector<std::string> rendered[2];
  for (int faulty = 0; faulty <= 1; faulty++) {
    CleanDBOptions opts = ManyOpOptions(/*legacy=*/false);
    if (faulty != 0) {
      opts.fault.failure_probability = 0.05;
      opts.fault.seed = 1234;  // fixed: the failure schedule is part of the A/B
      opts.fault.max_task_retries = 8;
      opts.fault.retry_backoff_ns = 0;  // measure re-execution, not sleeps
    }
    CleanDB db(opts);
    db.RegisterTable("customer", data);
    double best = -1;
    for (int rep = 0; rep < 3; rep++) {
      Timer timer;
      auto result = db.Execute(kManyOpQuery).ValueOrDie();
      const double s = timer.ElapsedSeconds();
      if (best < 0 || s < best) best = s;
      CLEANM_CHECK(result.ops.size() == 8);
      rendered[faulty] = render(result);
      if (faulty != 0) {
        ab.tasks_failed += result.metrics.tasks_failed;
        ab.tasks_retried += result.metrics.tasks_retried;
      }
    }
    (faulty != 0 ? ab.faulted_s : ab.clean_s) = best;
  }
  ab.violations = rendered[0].size();
  ab.identical = rendered[0] == rendered[1];
  ab.overhead = ab.clean_s > 0 ? ab.faulted_s / ab.clean_s : 0;

  // Arm 2: deadline at 10% of a cold network-simulated execution.
  CleanDBOptions dopts;
  dopts.num_nodes = 8;
  dopts.shuffle_ns_per_byte = 150000.0;  // sleep-dominated (see concurrency A/B)
  CleanDB db(dopts);
  datagen::CustomerOptions small = copts;
  small.base_rows = std::min<size_t>(g_base_rows, 150);
  db.RegisterTable("customer", datagen::MakeCustomer(small));
  auto prepared = db.Prepare(kQuery);
  CLEANM_CHECK(prepared.ok());
  {
    Timer timer;
    (void)prepared.value().Execute().ValueOrDie();
    ab.deadline_clean_s = timer.ElapsedSeconds();
  }
  // Re-register: the generation bump empties the partition cache, so the
  // deadline run pays the same network waits the clean timing did.
  db.RegisterTable("customer", datagen::MakeCustomer(small));
  ExecOptions eo;
  eo.deadline_ns = static_cast<uint64_t>(ab.deadline_clean_s * 0.1 * 1e9);
  {
    Timer timer;
    auto r = prepared.value().Execute(eo);
    ab.deadline_run_s = timer.ElapsedSeconds();
    ab.deadline_exceeded =
        !r.ok() && r.status().code() == StatusCode::kDeadlineExceeded;
  }
  ab.executions_cancelled =
      db.cluster().session_metrics().executions_cancelled.load();
  return ab;
}

// ---- Observability A/B: the 8-FD unified plan with profiling off vs on,
// same cold-session config as the pipeline gate run (fresh CleanDB per
// rep, morsel 32, best of 3). Tracing is compiled in unconditionally;
// with no recorder installed every TraceScope is a few-branch no-op, so
// the off arm must record literally zero spans and track the pipeline
// gate run's wall-clock (≤2%, advisory — both run profiling-off, so the
// ratio bounds instrumentation-plus-noise). The profiled arm pays span
// recording and the profile build (≤10% over off, advisory) and must
// reconcile exactly: Σ self_counters over the operator tree equals the
// flat QueryResult::metrics for every row-moving counter (hard gate —
// if attribution drifts, the ANALYZE tree lies).

struct ObservabilityAb {
  double off_s = 0;
  double profile_s = 0;
  double off_overhead = 0;      ///< off_s / pipeline gate run's s (≤1.02 advisory)
  double profile_overhead = 0;  ///< profile_s / off_s (≤1.10 advisory)
  uint64_t spans_off = 0;       ///< spans recorded during the off arm (0 gated)
  size_t operator_spans = 0;    ///< operator-span instances, root excluded (≥6 gated)
  size_t spans_total = 0;       ///< all spans in the profiled run
  bool rows_reconciled = false; ///< profile totals() == flat metrics (gated)
  uint64_t profile_rows_scanned = 0;
  uint64_t flat_rows_scanned = 0;
  std::string trace_path;       ///< set once a Chrome trace was written
};

ObservabilityAb RunObservabilityAb(double pipelined_baseline_s,
                                   const std::string& trace_out) {
  datagen::CustomerOptions copts;
  copts.base_rows = std::max<size_t>(g_base_rows, 2000);
  copts.duplicate_fraction = 0.10;
  copts.max_duplicates = 40;
  copts.fd_violation_fraction = 0.05;
  const Dataset data = datagen::MakeCustomer(copts);
  const size_t kGateMorselRows = 32;

  ObservabilityAb ab;
  for (int profiled = 0; profiled <= 1; profiled++) {
    const uint64_t spans_before = TraceRecorder::TotalSpansRecorded();
    double best = -1;
    for (int rep = 0; rep < 3; rep++) {
      CleanDB db(ManyOpOptions(/*legacy=*/false));
      db.RegisterTable("customer", data);
      auto prepared = db.Prepare(kManyOpQuery);
      CLEANM_CHECK(prepared.ok());
      ExecOptions eo;
      eo.morsel_rows = kGateMorselRows;
      eo.profile = profiled != 0;
      Timer timer;
      auto result = prepared.value().Execute(eo).ValueOrDie();
      const double s = timer.ElapsedSeconds();
      if (best < 0 || s < best) best = s;
      CLEANM_CHECK(result.ops.size() == 8);
      if (profiled != 0 && rep == 2) {
        CLEANM_CHECK(result.profile != nullptr);
        const QueryProfile& prof = *result.profile;
        for (const auto& op : prof.operators()) {
          if (op.name != "execute") ab.operator_spans++;
        }
        ab.spans_total = prof.spans().size();
        const MetricsCounters totals = prof.totals();
        ab.profile_rows_scanned = totals.rows_scanned;
        ab.flat_rows_scanned = result.metrics.rows_scanned;
        // The out-of-core folds and cancellation counts land after the
        // root span closes; the row-moving counters below are the ones
        // attribution is exact for (see query_profile.h).
        ab.rows_reconciled =
            totals.rows_scanned == result.metrics.rows_scanned &&
            totals.groups_built == result.metrics.groups_built &&
            totals.rows_shuffled == result.metrics.rows_shuffled &&
            totals.comparisons == result.metrics.comparisons &&
            totals.morsels_processed == result.metrics.morsels_processed;
        if (!trace_out.empty()) {
          CLEANM_CHECK(prof.WriteChromeTrace(trace_out).ok());
          ab.trace_path = trace_out;
        }
      }
    }
    if (profiled == 0) {
      ab.off_s = best;
      ab.spans_off = TraceRecorder::TotalSpansRecorded() - spans_before;
    } else {
      ab.profile_s = best;
    }
  }
  ab.off_overhead =
      pipelined_baseline_s > 0 ? ab.off_s / pipelined_baseline_s : 0;
  ab.profile_overhead = ab.off_s > 0 ? ab.profile_s / ab.off_s : 0;
  return ab;
}

// ---- Delta-incremental A/B: full re-execution vs incremental
// re-validation after a 1% mutation on the 8-FD unified plan (pure
// compute). Both arms follow the same session pattern: register, prepare,
// bootstrap execute (untimed — it seeds the incremental state), then per
// round append the same 1% delta chunk and re-execute the prepared query.
// The full arm pins ExecOptions::incremental=false, so every round
// re-partitions the scan and rebuilds all eight Nest states from scratch;
// the incremental arm is served entirely from the delta log (monoid-merged
// group partials, touched keys re-finalized). Gates: the incremental arm's
// merged violation multiset must equal a cold execution over the
// post-delta table under canonical normalization (aggregated collections
// are fold-order sensitive, so bit-identity is the wrong comparison here),
// zero re-partitions and one incremental execution per round, the
// delta-scaling row ratio (rows a full round scans / rows an incremental
// round processes) ≥10 (deterministic), and wall-clock speedup ≥10
// (machine-local at measure time; advisory in the cross-machine JSON diff).

/// Renders a Value with struct fields sorted by name and list elements
/// sorted lexicographically — equal results compare equal regardless of
/// the merge-tree order that built an aggregated collection.
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

struct DeltaIncrementalAb {
  size_t base_rows = 0;
  size_t delta_rows = 0;     ///< appended per round (1% of base)
  size_t rounds = 3;
  double full_reexec_s = 0;  ///< best full (incremental=false) round
  double incremental_s = 0;  ///< best incremental round
  double speedup = 0;        ///< full / incremental (≥ 10 gated locally)
  uint64_t full_rows_scanned = 0;     ///< per full round (average)
  uint64_t delta_rows_processed = 0;  ///< per incremental round (average)
  double row_ratio = 0;  ///< full_rows_scanned / delta_rows_processed (≥ 10)
  uint64_t groups_remerged = 0;
  uint64_t incremental_executions = 0;  ///< across timed rounds (== rounds)
  uint64_t incremental_repartitions = 0;  ///< scan+nest misses (0 gated)
  bool identical = false;  ///< merged set == cold post-delta execution
};

DeltaIncrementalAb RunDeltaIncrementalAb() {
  // Mostly-clean table: the incremental arm's cost is O(delta + touched
  // groups + emitted violations), so a low violation rate keeps the
  // emission term from washing out the delta scaling at bench size.
  datagen::CustomerOptions copts;
  copts.base_rows = std::max<size_t>(g_base_rows, 4000);
  copts.duplicate_fraction = 0.01;
  copts.max_duplicates = 3;
  copts.fd_violation_fraction = 0.005;
  Dataset dirty = datagen::MakeCustomer(copts);
  // Uniquify the name column: datagen draws names from a small pool, which
  // floods the three name-keyed FDs with hundreds of violations that have
  // nothing to do with the delta. A mostly-clean table keeps the violation
  // set — whose emission cost both arms pay identically — dominated by the
  // injected address-FD dirtiness instead.
  {
    const size_t name_idx = dirty.schema().IndexOf("name").ValueOrDie();
    size_t i = 0;
    for (auto& row : dirty.mutable_rows()) {
      row[name_idx] =
          Value(row[name_idx].AsString() + " #" + std::to_string(i++));
    }
  }
  const Dataset base = std::move(dirty);
  const size_t nation_idx = base.schema().IndexOf("nationkey").ValueOrDie();

  DeltaIncrementalAb ab;
  ab.base_rows = base.rows().size();
  ab.delta_rows = std::max<size_t>(1, ab.base_rows / 100);

  // Round r's chunk: mostly clean inserts (fresh singleton groups under
  // every FD key) plus ~10% nationkey-bumped copies of existing rows that
  // land in existing address/custkey groups and break several of the eight
  // FDs. A realistic mutation stream: the delta genuinely changes the
  // violation sets, but the violation count — whose emission cost both
  // arms pay identically — stays proportional to the table's dirtiness
  // instead of compounding every round.
  const size_t violating = std::max<size_t>(1, ab.delta_rows / 10);
  auto chunk = [&](size_t r) {
    std::vector<Row> rows;
    rows.reserve(ab.delta_rows);
    for (size_t i = 0; i < violating; i++) {
      Row row = base.rows()[(r * violating + i) % base.rows().size()];
      row[nation_idx] =
          Value(row[nation_idx].AsInt() + static_cast<int64_t>(100 + r));
      rows.push_back(std::move(row));
    }
    for (size_t i = violating; i < ab.delta_rows; i++) {
      const uint64_t uid = 1000000000ull + r * ab.delta_rows + i;
      const std::string tag = std::to_string(uid);
      rows.push_back({Value(static_cast<int64_t>(uid)),
                      Value("delta customer " + tag),
                      Value("delta lane " + tag), Value(tag),
                      Value(static_cast<int64_t>(uid % 25))});
    }
    return rows;
  };

  QueryResult last_incremental;
  for (int incremental = 0; incremental <= 1; incremental++) {
    CleanDB db(ManyOpOptions(/*legacy=*/false));
    db.RegisterTable("customer", base);
    auto prepared = db.Prepare(kManyOpQuery);
    CLEANM_CHECK(prepared.ok());
    (void)prepared.value().Execute().ValueOrDie();  // bootstrap (untimed)
    double best = -1;
    for (size_t r = 0; r < ab.rounds; r++) {
      CLEANM_CHECK(db.AppendRows("customer", chunk(r)).ok());
      ExecOptions eo;
      eo.incremental = incremental != 0;
      Timer timer;
      auto result = prepared.value().Execute(eo).ValueOrDie();
      const double s = timer.ElapsedSeconds();
      if (best < 0 || s < best) best = s;
      CLEANM_CHECK(result.ops.size() == 8);
      if (incremental != 0) {
        ab.delta_rows_processed += result.metrics.delta_rows_processed;
        ab.groups_remerged += result.metrics.groups_remerged;
        ab.incremental_executions += result.metrics.incremental_executions;
        ab.incremental_repartitions +=
            result.cache.scan_misses + result.cache.nest_misses;
        if (r == ab.rounds - 1) last_incremental = std::move(result);
      } else {
        ab.full_rows_scanned += result.metrics.rows_scanned;
      }
    }
    (incremental != 0 ? ab.incremental_s : ab.full_reexec_s) = best;
  }
  ab.full_rows_scanned /= ab.rounds;
  ab.delta_rows_processed /= ab.rounds;

  // Merged-result identity: the incremental arm's final violation multiset
  // must equal a cold execution over the post-delta table.
  Dataset post(base.schema());
  for (const auto& row : base.rows()) post.Append(row);
  for (size_t r = 0; r < ab.rounds; r++) {
    for (auto& row : chunk(r)) post.Append(std::move(row));
  }
  CleanDB cold_db(ManyOpOptions(/*legacy=*/false));
  cold_db.RegisterTable("customer", std::move(post));
  auto cold = cold_db.Execute(kManyOpQuery).ValueOrDie();
  auto canon = [](const QueryResult& r) {
    std::vector<std::string> out;
    for (const auto& op : r.ops) {
      for (const auto& v : op.violations) {
        out.push_back(op.op_name + "|" + CanonicalString(v));
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto merged = canon(last_incremental);
  ab.identical = !merged.empty() && merged == canon(cold);

  ab.speedup = ab.incremental_s > 0 ? ab.full_reexec_s / ab.incremental_s : 0;
  ab.row_ratio = ab.delta_rows_processed > 0
                     ? static_cast<double>(ab.full_rows_scanned) /
                           static_cast<double>(ab.delta_rows_processed)
                     : 0;
  return ab;
}

/// Inserts/replaces `"key": object` in the flat JSON file at `path`
/// (written by bench_cluster_primitives), preserving the other sections.
/// Sections written this way live on a single line, so replacement is a
/// line drop. A missing or empty file yields {"key": object}.
void MergeJsonSection(const std::string& path, const std::string& key,
                      const std::string& object) {
  std::string text;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      text = buf.str();
    }
  }
  // Drop any previous line carrying this key.
  std::string kept;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"" + key + "\"") == std::string::npos) kept += line + "\n";
  }
  auto rstrip = [](std::string* s) {
    while (!s->empty() && std::isspace(static_cast<unsigned char>(s->back()))) {
      s->pop_back();
    }
  };
  rstrip(&kept);
  if (!kept.empty() && kept.back() == '}') kept.pop_back();
  rstrip(&kept);
  if (!kept.empty() && kept.back() == ',') kept.pop_back();
  rstrip(&kept);

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  if (kept.empty() || kept == "{") {
    out << "{\n";
  } else {
    out << kept << ",\n";
  }
  out << "  \"" << key << "\": " << object << "\n}\n";
  std::printf("[written] %s (section \"%s\")\n", path.c_str(), key.c_str());
}

void PrintRow(const char* name, const SystemTimes& t, double separate_total) {
  auto cell = [](double v) {
    static char buf[32];
    if (v < 0) {
      std::snprintf(buf, sizeof(buf), "%10s", "unsupported");
    } else {
      std::snprintf(buf, sizeof(buf), "%10.3f", v);
    }
    return std::string(buf);
  };
  std::printf("%-12s %s %s %s | separate-total %8.3f  unified %s\n", name,
              cell(t.fd1).c_str(), cell(t.fd2).c_str(), cell(t.dedup).c_str(),
              separate_total, cell(t.unified).c_str());
}

}  // namespace
}  // namespace cleanm

int main(int argc, char** argv) {
  using namespace cleanm;
  bool check = false;
  std::string out_path;
  std::string trace_out;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--smoke") g_base_rows = 400;
    if (arg == "--nonet") g_nonet = true;
    if (arg == "--legacy") g_legacy = true;
    if (arg == "--check") check = true;
    if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
    if (arg == "--trace-out" && i + 1 < argc) trace_out = argv[++i];
  }
  std::printf("=== E4 — Figure 5: unified cleaning (FD1 + FD2 + DEDUP on customer) ===\n");
  std::printf("paper: CleanDB merges the three ops into one aggregation "
              "(unified < separate); Spark SQL's unified run costs more than "
              "separate; BigDansing can't run FD1 (computed attribute) and has "
              "no unified mode.\n\n");
  std::printf("%-12s %10s %10s %10s\n", "system", "FD1(s)", "FD2(s)", "DEDUP(s)");

  // Warm-up pass (allocator + page cache) so measurement order is fair.
  (void)RunCleanDB(/*unify=*/true);

  // CleanDB separate (no unification) then unified.
  SystemTimes cdb_sep = RunCleanDB(/*unify=*/false);
  SystemTimes cdb_uni = RunCleanDB(/*unify=*/true);
  SystemTimes combined = cdb_sep;
  combined.unified = cdb_uni.unified;
  PrintRow("CleanDB", combined, cdb_sep.fd1 + cdb_sep.fd2 + cdb_sep.dedup);

  SystemTimes spark = RunSparkSql();
  PrintRow("SparkSQL", spark, spark.fd1 + spark.fd2 + spark.dedup);

  SystemTimes bd = RunBigDansing();
  PrintRow("BigDansing", bd, bd.fd2 + bd.dedup);

  std::printf("\n[measured] CleanDB unified shares one grouping pass across all three "
              "operations; verify unified(CleanDB) < separate-total(CleanDB) and "
              "unified(SparkSQL) > separate-total(SparkSQL).\n");

  std::printf("\n=== substrate A/B: many-operator unified plan (8 FDs), pure compute ===\n");
  const double many_op_legacy = RunManyOpPlan(/*legacy=*/true);
  const double many_op_pool = RunManyOpPlan(/*legacy=*/false);
  std::printf("legacy (spawn-per-call, unbatched) %8.3f s\n", many_op_legacy);
  std::printf("worker pool + batched shuffle      %8.3f s\n", many_op_pool);
  std::printf("[measured] substrate speedup %.2fx on the many-operator plan\n",
              many_op_legacy / many_op_pool);

  std::printf("\n=== prepared-query A/B: cold Execute vs prepared re-execute "
              "(8 FDs, pure compute) ===\n");
  const PreparedAb ab = RunPreparedAb();
  std::printf("cold one-shot Execute (fresh session)   %8.4f s\n", ab.cold_s);
  std::printf("prepared re-execute (plans+cache warm)  %8.4f s\n", ab.reexec_s);
  std::printf("[measured] prepared re-execution speedup %.2fx; re-partitions "
              "during timed re-executions: %llu\n",
              ab.speedup, static_cast<unsigned long long>(ab.reexec_repartitions));

  std::printf("\n=== pipeline gate: peak transient memory vs table footprint "
              "(8 FDs, fresh session, pure compute) ===\n");
  const PipelineRun pipe = RunPipelineGate();
  std::printf("table footprint %12llu bytes; peak transient %llu bytes "
              "(%8.4f s, %llu morsels)\n",
              static_cast<unsigned long long>(pipe.footprint_bytes),
              static_cast<unsigned long long>(pipe.peak_bytes), pipe.seconds,
              static_cast<unsigned long long>(pipe.morsels));
  std::printf("[measured] peak transient memory %.2fx the table footprint\n",
              pipe.peak_over_footprint);

  std::printf("\n=== out-of-core A/B: in-memory vs 1/8-footprint buffer pool "
              "(8 FDs, fresh sessions, pure compute) ===\n");
  const OutOfCoreAb oab = RunOutOfCoreAb();
  std::printf("dataset footprint %12llu bytes; pool budget %llu bytes\n",
              static_cast<unsigned long long>(oab.footprint_bytes),
              static_cast<unsigned long long>(oab.budget_bytes));
  std::printf("fully in-memory               %8.4f s\n", oab.in_memory_s);
  std::printf("1/8-footprint pool            %8.4f s  (%.2fx, %llu bytes "
              "spilled, %llu pages evicted)\n",
              oab.out_of_core_s, oab.slowdown,
              static_cast<unsigned long long>(oab.bytes_spilled),
              static_cast<unsigned long long>(oab.pages_evicted));
  std::printf("[measured] pool peak residency %llu bytes (%s budget); %zu "
              "violations %s across the two runs\n",
              static_cast<unsigned long long>(oab.pool_peak_resident),
              oab.within_budget ? "within" : "OVER",
              oab.violations, oab.identical ? "bit-identical" : "DIFFER");

  std::printf("\n=== concurrency A/B: 8 prepared sessions, serialized vs "
              "concurrent drivers (network-simulated) ===\n");
  const ConcurrencyAb cab = RunConcurrencyAb();
  std::printf("8 executions serialized               %8.4f s\n", cab.serial_s);
  std::printf("8 executions on concurrent drivers    %8.4f s\n", cab.concurrent_s);
  std::printf("[measured] concurrent-session throughput %.2fx; %zu violations "
              "per execution, all runs %s\n",
              cab.speedup, cab.violations,
              cab.identical ? "bit-identical" : "DIFFER");

  std::printf("\n=== UDF / repair A/B: registered functions vs built-ins "
              "(pure compute) ===\n");
  const UdfAb udf = RunUdfAb();
  std::printf("builtin aggregate GROUP BY             %8.4f s\n", udf.builtin_agg_s);
  std::printf("registered (usum) aggregate GROUP BY   %8.4f s  (%.2fx)\n",
              udf.udf_agg_s, udf.agg_ratio);
  std::printf("registered aggregate, legacy dispatch  %8.4f s  (pool %.2fx)\n",
              udf.udf_agg_legacy_s,
              udf.udf_agg_s > 0 ? udf.udf_agg_legacy_s / udf.udf_agg_s : 0);
  std::printf("repair loop, registered fn + sink      %8.4f s  (%zu cells)\n",
              udf.repair_registered_s, udf.repairs_applied);
  std::printf("repair loop, hand-rolled traversal     %8.4f s  (%zu cells)\n",
              udf.repair_manual_s, udf.repairs_manual);
  std::printf("[measured] registered-vs-builtin aggregate ratio %.2fx; both "
              "repair paths fixed %s cell sets\n",
              udf.agg_ratio,
              udf.repairs_applied == udf.repairs_manual ? "identical" : "DIFFERENT");

  std::printf("\n=== fault-tolerance A/B: 5%% injected failures (8 FDs, pure "
              "compute) + deadline (network-simulated) ===\n");
  const FaultAb fab = RunFaultAb();
  std::printf("clean unified plan                    %8.4f s\n", fab.clean_s);
  std::printf("5%% injected failures, retried        %8.4f s  (%.2fx, %llu "
              "failed / %llu retried tasks)\n",
              fab.faulted_s, fab.overhead,
              static_cast<unsigned long long>(fab.tasks_failed),
              static_cast<unsigned long long>(fab.tasks_retried));
  std::printf("deadline: clean %8.4f s, 10%% deadline run %8.4f s (%s)\n",
              fab.deadline_clean_s, fab.deadline_run_s,
              fab.deadline_exceeded ? "kDeadlineExceeded" : "NOT CUT OFF");
  std::printf("[measured] %zu violations %s under injected faults; deadline "
              "cancelled %llu execution(s)\n",
              fab.violations, fab.identical ? "bit-identical" : "DIFFER",
              static_cast<unsigned long long>(fab.executions_cancelled));

  std::printf("\n=== observability A/B: profiling off vs on (8 FDs, pipelined, "
              "fresh sessions, pure compute) ===\n");
  const ObservabilityAb obs = RunObservabilityAb(pipe.seconds, trace_out);
  std::printf("profiling off                         %8.4f s  (%.3fx vs "
              "pipeline gate run, %llu spans recorded)\n",
              obs.off_s, obs.off_overhead,
              static_cast<unsigned long long>(obs.spans_off));
  std::printf("profiling on                          %8.4f s  (%.3fx vs off; "
              "%zu operator spans, %zu spans total)\n",
              obs.profile_s, obs.profile_overhead, obs.operator_spans,
              obs.spans_total);
  std::printf("[measured] profile row counters %s the flat metrics "
              "(rows_scanned %llu vs %llu)\n",
              obs.rows_reconciled ? "reconcile exactly with" : "DIVERGE from",
              static_cast<unsigned long long>(obs.profile_rows_scanned),
              static_cast<unsigned long long>(obs.flat_rows_scanned));
  if (!obs.trace_path.empty()) {
    std::printf("[written] Chrome trace: %s (chrome://tracing / "
                "ui.perfetto.dev)\n",
                obs.trace_path.c_str());
  }

  std::printf("\n=== delta-incremental A/B: full re-execution vs incremental "
              "re-validation at a 1%% delta (8 FDs, pure compute) ===\n");
  const DeltaIncrementalAb dab = RunDeltaIncrementalAb();
  std::printf("table %zu rows, %zu appended per round (%zu rounds)\n",
              dab.base_rows, dab.delta_rows, dab.rounds);
  std::printf("full re-execution per delta round     %8.4f s  (%llu rows "
              "scanned)\n",
              dab.full_reexec_s,
              static_cast<unsigned long long>(dab.full_rows_scanned));
  std::printf("incremental re-validation per round   %8.4f s  (%llu delta "
              "rows, %llu groups re-merged)\n",
              dab.incremental_s,
              static_cast<unsigned long long>(dab.delta_rows_processed),
              static_cast<unsigned long long>(dab.groups_remerged));
  std::printf("[measured] incremental speedup %.2fx, delta-scaling row ratio "
              "%.1fx; %llu re-partitions; merged violation set %s the cold "
              "post-delta run\n",
              dab.speedup, dab.row_ratio,
              static_cast<unsigned long long>(dab.incremental_repartitions),
              dab.identical ? "identical to" : "DIFFERS from");

  if (!out_path.empty()) {
    char object[256];
    std::snprintf(object, sizeof(object),
                  "{\"cold_execute_s\": %.6f, \"prepared_reexec_s\": %.6f, "
                  "\"speedup\": %.3f, \"reexec_repartitions\": %llu}",
                  ab.cold_s, ab.reexec_s, ab.speedup,
                  static_cast<unsigned long long>(ab.reexec_repartitions));
    MergeJsonSection(out_path, "prepared_reexec", object);
    char udf_object[384];
    std::snprintf(udf_object, sizeof(udf_object),
                  "{\"builtin_agg_s\": %.6f, \"udf_agg_s\": %.6f, "
                  "\"udf_vs_builtin_ratio\": %.3f, \"udf_agg_legacy_s\": %.6f, "
                  "\"repair_registered_s\": %.6f, \"repair_manual_s\": %.6f, "
                  "\"repairs_applied\": %zu}",
                  udf.builtin_agg_s, udf.udf_agg_s, udf.agg_ratio,
                  udf.udf_agg_legacy_s, udf.repair_registered_s,
                  udf.repair_manual_s, udf.repairs_applied);
    MergeJsonSection(out_path, "udf_repair", udf_object);
    char pipe_object[256];
    std::snprintf(pipe_object, sizeof(pipe_object),
                  "{\"peak_materialized_bytes\": %llu, "
                  "\"footprint_bytes\": %llu, \"peak_over_footprint\": %.3f, "
                  "\"morsels\": %llu, \"pipelined_s\": %.6f}",
                  static_cast<unsigned long long>(pipe.peak_bytes),
                  static_cast<unsigned long long>(pipe.footprint_bytes),
                  pipe.peak_over_footprint,
                  static_cast<unsigned long long>(pipe.morsels), pipe.seconds);
    MergeJsonSection(out_path, "pipeline", pipe_object);
    char ooc_object[384];
    std::snprintf(ooc_object, sizeof(ooc_object),
                  "{\"footprint_bytes\": %llu, \"budget_bytes\": %llu, "
                  "\"bytes_spilled\": %llu, \"pages_evicted\": %llu, "
                  "\"pool_peak_resident_bytes\": %llu, \"within_budget\": %d, "
                  "\"in_memory_s\": %.6f, \"out_of_core_s\": %.6f, "
                  "\"slowdown\": %.3f, \"violations_identical\": %d}",
                  static_cast<unsigned long long>(oab.footprint_bytes),
                  static_cast<unsigned long long>(oab.budget_bytes),
                  static_cast<unsigned long long>(oab.bytes_spilled),
                  static_cast<unsigned long long>(oab.pages_evicted),
                  static_cast<unsigned long long>(oab.pool_peak_resident),
                  oab.within_budget ? 1 : 0, oab.in_memory_s,
                  oab.out_of_core_s, oab.slowdown, oab.identical ? 1 : 0);
    MergeJsonSection(out_path, "out_of_core", ooc_object);
    char conc_object[256];
    std::snprintf(conc_object, sizeof(conc_object),
                  "{\"sessions\": %zu, \"serial_s\": %.6f, "
                  "\"concurrent_s\": %.6f, \"speedup\": %.3f, "
                  "\"violations_identical\": %d}",
                  cab.sessions, cab.serial_s, cab.concurrent_s, cab.speedup,
                  cab.identical ? 1 : 0);
    MergeJsonSection(out_path, "concurrency", conc_object);
    char fault_object[384];
    std::snprintf(fault_object, sizeof(fault_object),
                  "{\"clean_s\": %.6f, \"faulted_s\": %.6f, "
                  "\"overhead\": %.3f, \"tasks_failed\": %llu, "
                  "\"tasks_retried\": %llu, \"violations_identical\": %d, "
                  "\"deadline_clean_s\": %.6f, \"deadline_run_s\": %.6f, "
                  "\"deadline_exceeded\": %d}",
                  fab.clean_s, fab.faulted_s, fab.overhead,
                  static_cast<unsigned long long>(fab.tasks_failed),
                  static_cast<unsigned long long>(fab.tasks_retried),
                  fab.identical ? 1 : 0, fab.deadline_clean_s,
                  fab.deadline_run_s, fab.deadline_exceeded ? 1 : 0);
    MergeJsonSection(out_path, "fault_tolerance", fault_object);
    char obs_object[384];
    std::snprintf(obs_object, sizeof(obs_object),
                  "{\"off_s\": %.6f, \"profile_s\": %.6f, "
                  "\"off_overhead\": %.3f, \"profile_overhead\": %.3f, "
                  "\"spans_recorded_off\": %llu, \"operator_spans\": %zu, "
                  "\"spans_total\": %zu, \"rows_reconciled\": %d}",
                  obs.off_s, obs.profile_s, obs.off_overhead,
                  obs.profile_overhead,
                  static_cast<unsigned long long>(obs.spans_off),
                  obs.operator_spans, obs.spans_total,
                  obs.rows_reconciled ? 1 : 0);
    MergeJsonSection(out_path, "observability", obs_object);
    char delta_object[448];
    std::snprintf(delta_object, sizeof(delta_object),
                  "{\"base_rows\": %zu, \"delta_rows\": %zu, "
                  "\"full_reexec_s\": %.6f, \"incremental_s\": %.6f, "
                  "\"speedup\": %.3f, \"full_rows_scanned\": %llu, "
                  "\"delta_rows_processed\": %llu, \"row_ratio\": %.3f, "
                  "\"groups_remerged\": %llu, "
                  "\"incremental_repartitions\": %llu, "
                  "\"violations_identical\": %d}",
                  dab.base_rows, dab.delta_rows, dab.full_reexec_s,
                  dab.incremental_s, dab.speedup,
                  static_cast<unsigned long long>(dab.full_rows_scanned),
                  static_cast<unsigned long long>(dab.delta_rows_processed),
                  dab.row_ratio,
                  static_cast<unsigned long long>(dab.groups_remerged),
                  static_cast<unsigned long long>(dab.incremental_repartitions),
                  dab.identical ? 1 : 0);
    MergeJsonSection(out_path, "delta_incremental", delta_object);
  }

  if (check) {
    // CI gate: prepared re-execution must stay clearly ahead of a cold
    // one-shot Execute (target ≥2×), and it must really skip
    // re-partitioning — otherwise the plan/partition reuse has regressed.
    const double kMinSpeedup = 2.0;
    if (ab.speedup < kMinSpeedup) {
      std::fprintf(stderr,
                   "[check] FAILED: prepared re-execution speedup %.2fx is below "
                   "the %.1fx gate\n",
                   ab.speedup, kMinSpeedup);
      return 1;
    }
    if (ab.reexec_repartitions != 0) {
      std::fprintf(stderr,
                   "[check] FAILED: %llu re-partitions during prepared "
                   "re-executions (expected 0: cache misses have crept in)\n",
                   static_cast<unsigned long long>(ab.reexec_repartitions));
      return 1;
    }
    std::printf("[check] prepared re-execution gate passed (%.2fx, 0 re-partitions)\n",
                ab.speedup);

    // UDF gate: a registered monoid-annotated aggregate must stay within
    // 1.3× of the equivalent built-in (registry dispatch in the noise),
    // and the registered repair loop must compute the same repairs as the
    // hand-rolled baseline.
    const double kMaxUdfRatio = 1.3;
    if (udf.agg_ratio > kMaxUdfRatio) {
      std::fprintf(stderr,
                   "[check] FAILED: registered aggregate is %.2fx the builtin "
                   "(gate %.1fx)\n",
                   udf.agg_ratio, kMaxUdfRatio);
      return 1;
    }
    if (udf.repairs_applied != udf.repairs_manual || udf.repairs_applied == 0) {
      std::fprintf(stderr,
                   "[check] FAILED: registered repair fixed %zu cell(s), "
                   "hand-rolled baseline fixed %zu\n",
                   udf.repairs_applied, udf.repairs_manual);
      return 1;
    }
    std::printf("[check] UDF aggregate gate passed (%.2fx ≤ %.1fx; %zu repairs "
                "match the baseline)\n",
                udf.agg_ratio, kMaxUdfRatio, udf.repairs_applied);

    // Pipeline gate: morsel-driven execution must hold peak transient
    // memory within 2× the table's logical footprint on the 8-FD unified
    // plan, with morsels really flowing — otherwise operator-level
    // pipelining has regressed to materialization.
    const double kMaxPeakOverFootprint = 2.0;
    if (pipe.morsels == 0) {
      std::fprintf(stderr,
                   "[check] FAILED: execution processed 0 morsels (operators "
                   "no longer stream)\n");
      return 1;
    }
    if (pipe.peak_over_footprint > kMaxPeakOverFootprint) {
      std::fprintf(stderr,
                   "[check] FAILED: peak transient memory is %.2fx the table "
                   "footprint, above the %.1fx gate (%llu vs %llu bytes)\n",
                   pipe.peak_over_footprint, kMaxPeakOverFootprint,
                   static_cast<unsigned long long>(pipe.peak_bytes),
                   static_cast<unsigned long long>(pipe.footprint_bytes));
      return 1;
    }
    std::printf("[check] pipeline gate passed (peak %.2fx ≤ %.1fx the table "
                "footprint, %llu morsels)\n",
                pipe.peak_over_footprint, kMaxPeakOverFootprint,
                static_cast<unsigned long long>(pipe.morsels));

    // Out-of-core gates: under a pool budgeted at 1/8 of the dataset
    // footprint the unified plan must spill (otherwise the budget isn't
    // binding and the A/B proves nothing), hold pool residency within the
    // budget, stay within 2× of the in-memory wall-clock, and produce
    // bit-identical violations — the spill generations' first-occurrence
    // order must replay the in-memory aggregation exactly.
    const double kMaxOutOfCoreSlowdown = 2.0;
    if (!oab.identical || oab.violations == 0) {
      std::fprintf(stderr,
                   "[check] FAILED: out-of-core violations %s the in-memory "
                   "run (%zu tuples)\n",
                   oab.identical ? "match" : "DIFFER from", oab.violations);
      return 1;
    }
    if (oab.bytes_spilled == 0) {
      std::fprintf(stderr,
                   "[check] FAILED: 0 bytes spilled under a 1/8-footprint "
                   "pool budget (%llu of %llu bytes) — the budget never bit\n",
                   static_cast<unsigned long long>(oab.budget_bytes),
                   static_cast<unsigned long long>(oab.footprint_bytes));
      return 1;
    }
    if (!oab.within_budget) {
      std::fprintf(stderr,
                   "[check] FAILED: pool peak residency %llu bytes exceeds "
                   "the %llu-byte budget\n",
                   static_cast<unsigned long long>(oab.pool_peak_resident),
                   static_cast<unsigned long long>(oab.budget_bytes));
      return 1;
    }
    if (oab.slowdown > kMaxOutOfCoreSlowdown) {
      std::fprintf(stderr,
                   "[check] FAILED: out-of-core slowdown %.2fx exceeds the "
                   "%.1fx gate (%.4f s vs %.4f s in-memory)\n",
                   oab.slowdown, kMaxOutOfCoreSlowdown, oab.out_of_core_s,
                   oab.in_memory_s);
      return 1;
    }
    std::printf("[check] out-of-core gate passed (%.2fx ≤ %.1fx slowdown, "
                "%llu bytes spilled, peak residency %llu ≤ %llu budget, %zu "
                "bit-identical violations)\n",
                oab.slowdown, kMaxOutOfCoreSlowdown,
                static_cast<unsigned long long>(oab.bytes_spilled),
                static_cast<unsigned long long>(oab.pool_peak_resident),
                static_cast<unsigned long long>(oab.budget_bytes),
                oab.violations);

    // Concurrency gate: 8 concurrent prepared sessions must clear ≥2× the
    // serialized throughput in the network-simulated regime (the waits
    // overlap), with every execution bit-identical to the serial baseline —
    // otherwise the session layer has re-serialized (a stray exclusive
    // lock) or, worse, races are corrupting results.
    const double kMinConcurrentSpeedup = 2.0;
    if (!cab.identical || cab.violations == 0) {
      std::fprintf(stderr,
                   "[check] FAILED: concurrent executions %s the serial "
                   "baseline (%zu violations per execution)\n",
                   cab.identical ? "match" : "DIFFER from", cab.violations);
      return 1;
    }
    if (cab.speedup < kMinConcurrentSpeedup) {
      std::fprintf(stderr,
                   "[check] FAILED: concurrent-session throughput %.2fx is "
                   "below the %.1fx gate (%.4f s serial vs %.4f s concurrent)\n",
                   cab.speedup, kMinConcurrentSpeedup, cab.serial_s,
                   cab.concurrent_s);
      return 1;
    }
    std::printf("[check] concurrency gate passed (%.2fx ≥ %.1fx, %zu "
                "bit-identical violations per execution)\n",
                cab.speedup, kMinConcurrentSpeedup, cab.violations);

    // Fault-tolerance gates: retried executions must stay exact (same
    // violations in the same order — a retry is a per-partition
    // re-execution, and the monoid merges make it reproduce the partials
    // bit for bit) and cheap (≤1.5× clean); the retry path must actually
    // fire; and a deadline 10× shorter than the clean wall-clock must cut
    // the execution off with kDeadlineExceeded instead of letting it run
    // to completion.
    const double kMaxFaultOverhead = 1.5;
    if (!fab.identical || fab.violations == 0) {
      std::fprintf(stderr,
                   "[check] FAILED: violations under injected faults %s the "
                   "clean run (%zu tuples)\n",
                   fab.identical ? "match" : "DIFFER from", fab.violations);
      return 1;
    }
    if (fab.tasks_retried == 0) {
      std::fprintf(stderr,
                   "[check] FAILED: 0 tasks retried at 5%% injected failure "
                   "probability (injection or retry path is dead)\n");
      return 1;
    }
    if (fab.overhead > kMaxFaultOverhead) {
      std::fprintf(stderr,
                   "[check] FAILED: injected-fault overhead %.2fx exceeds the "
                   "%.1fx gate (%.4f s clean vs %.4f s faulted)\n",
                   fab.overhead, kMaxFaultOverhead, fab.clean_s, fab.faulted_s);
      return 1;
    }
    if (!fab.deadline_exceeded) {
      std::fprintf(stderr,
                   "[check] FAILED: execution with a 10%% deadline did not "
                   "return kDeadlineExceeded (%.4f s clean, %.4f s run)\n",
                   fab.deadline_clean_s, fab.deadline_run_s);
      return 1;
    }
    if (fab.deadline_run_s > fab.deadline_clean_s * 0.6) {
      std::fprintf(stderr,
                   "[check] FAILED: deadline run took %.4f s — not prompt "
                   "against a %.4f s clean wall-clock (gate: ≤60%%)\n",
                   fab.deadline_run_s, fab.deadline_clean_s);
      return 1;
    }
    std::printf("[check] fault-tolerance gate passed (%.2fx ≤ %.1fx overhead, "
                "%llu retries, %zu bit-identical violations, deadline cut at "
                "%.4f s / %.4f s clean)\n",
                fab.overhead, kMaxFaultOverhead,
                static_cast<unsigned long long>(fab.tasks_retried),
                fab.violations, fab.deadline_run_s, fab.deadline_clean_s);

    // Observability gates: with no recorder installed the compiled-in
    // instrumentation must record literally zero spans (hard); the
    // profile's per-operator self-counters must sum exactly to the flat
    // execution metrics (hard — the ANALYZE tree must not lie about row
    // movement); and the 8-FD plan must resolve at least 6 operator-span
    // instances (hard — the operator attribution path is alive). The
    // timing ratios are advisory: a WARNING, not a failure, because
    // wall-clock at bench scale is noisy.
    if (obs.spans_off != 0) {
      std::fprintf(stderr,
                   "[check] FAILED: %llu spans recorded with profiling off "
                   "(the disabled path must record none)\n",
                   static_cast<unsigned long long>(obs.spans_off));
      return 1;
    }
    if (!obs.rows_reconciled) {
      std::fprintf(stderr,
                   "[check] FAILED: profile operator counters do not sum to "
                   "the flat metrics (rows_scanned %llu vs %llu)\n",
                   static_cast<unsigned long long>(obs.profile_rows_scanned),
                   static_cast<unsigned long long>(obs.flat_rows_scanned));
      return 1;
    }
    if (obs.operator_spans < 6) {
      std::fprintf(stderr,
                   "[check] FAILED: only %zu operator spans in the profile "
                   "of the 8-FD plan (expected ≥6)\n",
                   obs.operator_spans);
      return 1;
    }
    if (obs.off_overhead > 1.02) {
      std::printf("[check] WARNING: profiling-off wall-clock is %.3fx the "
                  "pipeline gate run (advisory budget 1.02x)\n",
                  obs.off_overhead);
    }
    if (obs.profile_overhead > 1.10) {
      std::printf("[check] WARNING: profiling-on wall-clock is %.3fx the "
                  "profiling-off run (advisory budget 1.10x)\n",
                  obs.profile_overhead);
    }
    std::printf("[check] observability gate passed (0 spans when off, "
                "%zu operator spans, row counters reconciled; overhead "
                "%.3fx off / %.3fx profiled, advisory)\n",
                obs.operator_spans, obs.off_overhead, obs.profile_overhead);

    // Delta-incremental gates: the merged (violations − retractions + new)
    // multiset must equal a cold execution over the post-delta table under
    // canonical normalization; every timed round must actually take the
    // incremental path with zero re-partitions; the delta-scaling row
    // ratio is deterministic and must clear 10×; and the wall-clock
    // speedup must clear 10× at a 1% delta (machine-local — the JSON diff
    // treats it as advisory across machines).
    const double kMinIncrementalSpeedup = 10.0;
    if (!dab.identical) {
      std::fprintf(stderr,
                   "[check] FAILED: incremental merged violation set differs "
                   "from the cold post-delta execution\n");
      return 1;
    }
    if (dab.incremental_executions != dab.rounds) {
      std::fprintf(stderr,
                   "[check] FAILED: %llu of %zu delta rounds took the "
                   "incremental path (the rest fell back to full execution)\n",
                   static_cast<unsigned long long>(dab.incremental_executions),
                   dab.rounds);
      return 1;
    }
    if (dab.incremental_repartitions != 0) {
      std::fprintf(stderr,
                   "[check] FAILED: %llu re-partitions during incremental "
                   "delta rounds (expected 0)\n",
                   static_cast<unsigned long long>(dab.incremental_repartitions));
      return 1;
    }
    if (dab.row_ratio < kMinIncrementalSpeedup) {
      std::fprintf(stderr,
                   "[check] FAILED: delta-scaling row ratio %.1fx is below "
                   "the %.0fx gate (%llu rows scanned per full round vs %llu "
                   "delta rows processed)\n",
                   dab.row_ratio, kMinIncrementalSpeedup,
                   static_cast<unsigned long long>(dab.full_rows_scanned),
                   static_cast<unsigned long long>(dab.delta_rows_processed));
      return 1;
    }
    if (dab.speedup < kMinIncrementalSpeedup) {
      std::fprintf(stderr,
                   "[check] FAILED: incremental re-validation speedup %.2fx "
                   "is below the %.0fx gate (%.4f s full vs %.4f s "
                   "incremental)\n",
                   dab.speedup, kMinIncrementalSpeedup, dab.full_reexec_s,
                   dab.incremental_s);
      return 1;
    }
    std::printf("[check] delta-incremental gate passed (%.2fx ≥ %.0fx "
                "speedup, row ratio %.1fx, 0 re-partitions, merged set "
                "identical to cold)\n",
                dab.speedup, kMinIncrementalSpeedup, dab.row_ratio);
  }
  return 0;
}
