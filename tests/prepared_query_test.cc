// Tests for the prepare-once / execute-many API: PreparedQuery lifecycle,
// per-call ExecOptions, the session PartitionCache (generation
// invalidation, byte-budget LRU), streaming ViolationSinks, and the
// specific error codes surfaced by Prepare/Execute.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algebra/algebra_eval.h"
#include "cleaning/prepared_query.h"
#include "datagen/generators.h"
#include "repair/repair_sink.h"
#include "support/fixtures.h"

namespace cleanm {
namespace {

CleanDBOptions FastOptions() { return testsupport::FastCleanDBOptions(4); }

Dataset DirtyCustomers() {
  datagen::CustomerOptions copts;
  copts.base_rows = 300;
  copts.duplicate_fraction = 0.08;
  copts.max_duplicates = 4;
  copts.fd_violation_fraction = 0.05;
  return datagen::MakeCustomer(copts);
}

/// Bit-identical comparison of two results: same operations in the same
/// order, every violation Value equal pairwise, and equal dirty-entity
/// sets (compared order-insensitively — the entity join hashes).
void ExpectResultsBitIdentical(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); i++) {
    EXPECT_EQ(a.ops[i].op_name, b.ops[i].op_name);
    ASSERT_EQ(a.ops[i].violations.size(), b.ops[i].violations.size())
        << "operation " << a.ops[i].op_name;
    for (size_t v = 0; v < a.ops[i].violations.size(); v++) {
      EXPECT_TRUE(a.ops[i].violations[v].Equals(b.ops[i].violations[v]))
          << a.ops[i].op_name << " violation " << v;
    }
  }
  auto entity_set = [](const QueryResult& r) {
    std::vector<std::string> out;
    for (const auto& [entity, ops] : r.dirty_entities) {
      std::string s = entity.ToString() + " <-";
      for (const auto& op : ops) s += " " + op;
      out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(entity_set(a), entity_set(b));
}

/// Order-insensitive equality of the violation/dirty-entity *sets* — for
/// comparisons across execution paths (incremental vs. cold), where output
/// order (and the internal order of aggregated collections) may
/// legitimately differ.
void ExpectSameViolationSets(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.ops.size(), b.ops.size());
  auto sorted = [](const ValueList& vs) {
    std::vector<std::string> out;
    for (const auto& v : vs) out.push_back(CanonicalString(v));
    std::sort(out.begin(), out.end());
    return out;
  };
  for (size_t i = 0; i < a.ops.size(); i++) {
    EXPECT_EQ(sorted(a.ops[i].violations), sorted(b.ops[i].violations))
        << "operation " << a.ops[i].op_name;
  }
  EXPECT_EQ(a.dirty_entities.size(), b.dirty_entities.size());
}

// ---- Acceptance: prepared re-execution ≡ cold execution, zero
// re-partitioning on cache hits ----

TEST(PreparedQueryTest, ReExecutionBitIdenticalToColdExecuteAcrossScenarios) {
  // FD + dedup + term validation in one query (the motivating example
  // shape), all through the prepared path.
  const char* query = R"(
    SELECT * FROM customer c, dictionary d
    FD(c.address, prefix(c.phone))
    FD(c.address, c.nationkey)
    DEDUP(exact, LD, 0.8, c.address)
    CLUSTER BY(token filtering, LD, 0.8, c.name)
  )";
  Dataset customers = DirtyCustomers();
  Dataset dictionary(Schema{{"name", ValueType::kString}});
  {
    std::vector<std::string> names;
    const size_t name_idx = customers.schema().IndexOf("name").ValueOrDie();
    for (const auto& row : customers.rows()) names.push_back(row[name_idx].AsString());
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    for (const auto& n : names) dictionary.Append({Value(n)});
  }

  CleanDB db(FastOptions());
  db.RegisterTable("customer", customers);
  db.RegisterTable("dictionary", dictionary);
  auto prepared = db.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedQuery& pq = prepared.value();
  ASSERT_EQ(pq.num_operations(), 4u);
  EXPECT_TRUE(pq.status().ok());

  auto first = pq.Execute().ValueOrDie();
  auto second = pq.Execute().ValueOrDie();
  ExpectResultsBitIdentical(first, second);
  ASSERT_GT(first.ops[0].violations.size(), 0u);  // datagen injected FD dirt
  ASSERT_GT(first.ops[2].violations.size(), 0u);  // and duplicates

  // Cold path: a fresh session executing the same text one-shot.
  CleanDB cold(FastOptions());
  cold.RegisterTable("customer", customers);
  cold.RegisterTable("dictionary", dictionary);
  auto cold_result = cold.Execute(query).ValueOrDie();
  ExpectResultsBitIdentical(first, cold_result);

  // Within the first execution, the clauses already share scans (the
  // Figure-1 DAG): the customer table is parallelized once and every later
  // scan of it is a cache hit.
  EXPECT_GT(first.cache.scan_misses, 0u);
  EXPECT_GT(first.cache.scan_hits, 0u);
  // The re-execution does zero re-partitioning: every Nest output comes
  // straight from the session cache (which short-circuits the scans
  // beneath them — no scan is even requested), and no rows are scanned.
  EXPECT_EQ(second.cache.scan_misses, 0u);
  EXPECT_EQ(second.cache.nest_misses, 0u);
  EXPECT_GT(second.cache.nest_hits, 0u);
  EXPECT_EQ(second.metrics.rows_scanned, 0u);
}

TEST(PreparedQueryTest, PreparedDenialConstraintMatchesProgrammaticCheck) {
  datagen::LineitemOptions lopts;
  lopts.rows = 200;
  lopts.noise_fraction = 0.1;
  auto lineitem = datagen::MakeLineitem(lopts);

  auto pred = ParseCleanMExpr("t1.price < t2.price AND t1.discount > t2.discount");
  auto prefilter = ParseCleanMExpr("t1.price < 905");

  CleanDB db(FastOptions());
  db.RegisterTable("lineitem", lineitem);
  auto reference = db.CheckDenialConstraint("lineitem", CloneExpr(pred.ValueOrDie()),
                                            CloneExpr(prefilter.ValueOrDie()))
                       .ValueOrDie();

  auto prepared = db.PrepareDenialConstraint(
      "lineitem", CloneExpr(pred.ValueOrDie()), CloneExpr(prefilter.ValueOrDie()));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto first = prepared.value().Execute().ValueOrDie();
  auto second = prepared.value().Execute().ValueOrDie();

  ASSERT_EQ(first.ops.size(), 1u);
  EXPECT_EQ(first.ops[0].op_name, "DC");
  ASSERT_EQ(first.ops[0].violations.size(), reference.violations.size());
  ExpectResultsBitIdentical(first, second);
  EXPECT_EQ(second.cache.scan_misses, 0u);
  EXPECT_GT(second.cache.scan_hits, 0u);
}

// ---- ExecOptions: per-call choices over the session defaults ----

TEST(PreparedQueryTest, UnifyOverridePerCallMatchesSessionLevelAblation) {
  const char* query = R"(
    SELECT * FROM customer c
    FD(c.address, prefix(c.phone))
    FD(c.address, c.nationkey)
    DEDUP(exact, c.address)
  )";
  CleanDB db(FastOptions());
  db.RegisterTable("customer", DirtyCustomers());
  auto prepared = db.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedQuery& pq = prepared.value();
  EXPECT_EQ(pq.nests_coalesced(), 2);

  ExecOptions unified;
  unified.unify_operations = true;
  ExecOptions separate;
  separate.unify_operations = false;
  auto uni = pq.Execute(unified).ValueOrDie();
  auto sep = pq.Execute(separate).ValueOrDie();

  EXPECT_EQ(uni.nests_coalesced, 2);
  EXPECT_EQ(sep.nests_coalesced, 0);
  // The ablation changes the plan shape, never the violations.
  ASSERT_EQ(uni.ops.size(), sep.ops.size());
  for (size_t i = 0; i < uni.ops.size(); i++) {
    EXPECT_EQ(uni.ops[i].violations.size(), sep.ops[i].violations.size());
  }
}

// ---- Satellite: RegisterTable bumps the generation; no stale serving ----

TEST(PreparedQueryTest, ReRegisteredTableIsNeverServedFromStaleCache) {
  const char* query = "SELECT * FROM customer c FD(c.address, c.nationkey)";
  datagen::CustomerOptions copts;
  copts.base_rows = 200;
  copts.duplicate_fraction = 0;
  copts.fd_violation_fraction = 0.05;
  Dataset v1 = datagen::MakeCustomer(copts);

  CleanDB db(FastOptions());
  db.RegisterTable("customer", v1);
  EXPECT_EQ(db.TableGeneration("customer"), 1u);
  auto prepared = db.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedQuery& pq = prepared.value();
  auto before = pq.Execute().ValueOrDie();

  // Replace the table between two executions of the same PreparedQuery:
  // a brand-new FD violation group must surface.
  Dataset v2 = v1;
  Row extra1 = v1.row(0);
  Row extra2 = v1.row(0);
  const size_t addr = v1.schema().IndexOf("address").ValueOrDie();
  const size_t nation = v1.schema().IndexOf("nationkey").ValueOrDie();
  extra1[addr] = Value(std::string("1 freshly injected lane"));
  extra2[addr] = Value(std::string("1 freshly injected lane"));
  extra1[nation] = Value(int64_t{7});
  extra2[nation] = Value(int64_t{8});
  v2.Append(extra1);
  v2.Append(extra2);
  db.RegisterTable("customer", v2);
  EXPECT_EQ(db.TableGeneration("customer"), 2u);

  auto after = pq.Execute().ValueOrDie();
  EXPECT_EQ(after.ops[0].violations.size(), before.ops[0].violations.size() + 1);
  EXPECT_GT(after.cache.scan_misses, 0u);  // really re-partitioned

  // And it matches a cold execution over the new data bit for bit.
  CleanDB cold(FastOptions());
  cold.RegisterTable("customer", v2);
  ExpectResultsBitIdentical(after, cold.Execute(query).ValueOrDie());
}

// ---- Acceptance: the byte budget under a multi-table session workload ----

TEST(PreparedQueryTest, PartitionCacheRespectsByteBudgetAcrossTables) {
  const std::vector<std::string> tables = {"t1", "t2", "t3", "t4"};
  datagen::CustomerOptions copts;
  copts.base_rows = 150;
  copts.duplicate_fraction = 0;
  copts.fd_violation_fraction = 0.05;

  // Size one table's cache footprint (scan + wrap + nest) with an
  // unbounded session, then budget the real session to roughly two.
  uint64_t per_table_bytes = 0;
  {
    CleanDBOptions unbounded = FastOptions();
    unbounded.partition_cache_bytes = 0;
    CleanDB probe(unbounded);
    probe.RegisterTable("t1", datagen::MakeCustomer(copts));
    ASSERT_TRUE(probe.Execute("SELECT * FROM t1 c FD(c.address, c.nationkey)").ok());
    per_table_bytes = probe.partition_cache().stats().resident_bytes;
    ASSERT_GT(per_table_bytes, 0u);
  }

  CleanDBOptions budgeted = FastOptions();
  budgeted.partition_cache_bytes = per_table_bytes * 2;
  CleanDB db(budgeted);
  for (const auto& t : tables) db.RegisterTable(t, datagen::MakeCustomer(copts));

  // Working set (4 tables) > budget (~2 tables): the cache must stay under
  // its budget at every step, evicting LRU entries as tables rotate, while
  // an immediate re-execution (entries still resident) is served from it.
  for (int round = 0; round < 2; round++) {
    for (const auto& t : tables) {
      const std::string query = "SELECT * FROM " + t + " c FD(c.address, c.nationkey)";
      auto cold = db.Execute(query);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      // One-shot Execute re-prepares (fresh Nest nodes → no nest reuse),
      // but the table scans are keyed by name+generation and must hit.
      auto warm = db.Execute(query);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      EXPECT_GT(warm.value().cache.scan_hits, 0u) << t;
      EXPECT_LE(db.partition_cache().stats().resident_bytes,
                budgeted.partition_cache_bytes)
          << db.partition_cache().stats().ToString();
    }
  }
  const auto& stats = db.partition_cache().stats();
  EXPECT_GT(stats.evictions, 0u) << stats.ToString();
}

TEST(PreparedQueryTest, TransientExecutionsDoNotPolluteTheNestCache) {
  // One-shot Execute and the programmatic ops build throwaway plans; their
  // Nest outputs are identity-keyed and could never be hit again, so they
  // must not accumulate in (and LRU-thrash) the session cache.
  CleanDB db(FastOptions());
  db.RegisterTable("customer", DirtyCustomers());
  const char* query = "SELECT * FROM customer c FD(c.address, c.nationkey)";

  ASSERT_TRUE(db.Execute(query).ok());
  const uint64_t entries_after_first = db.partition_cache().stats().resident_entries;
  ASSERT_TRUE(db.Execute(query).ok());
  FdClause fd;
  fd.lhs = {ParseCleanMExpr("c.address").ValueOrDie()};
  fd.rhs = {ParseCleanMExpr("c.nationkey").ValueOrDie()};
  ASSERT_TRUE(db.CheckFd("customer", "c", fd).ok());
  // Only the (table, generation)-keyed scan/wrap entries persist — no
  // per-call nest growth.
  EXPECT_EQ(db.partition_cache().stats().resident_entries, entries_after_first);

  // A held PreparedQuery's nests DO persist (that is the point of it).
  auto prepared = db.Prepare(query);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared.value().Execute().ok());
  EXPECT_GT(db.partition_cache().stats().resident_entries, entries_after_first);
  auto again = prepared.value().Execute().ValueOrDie();
  EXPECT_GT(again.cache.nest_hits, 0u);
}

TEST(PartitionCacheTest, LruEvictionPrefersLeastRecentlyUsed) {
  engine::Partitioned one_row{{Row{Value(int64_t{1})}}};
  const uint64_t entry_bytes = RowByteSize(one_row[0][0]);
  PartitionCache cache(entry_bytes * 2);
  const uint64_t bytes = engine::PartitionedLogicalBytes(one_row);
  cache.PutScan("a", 1, one_row, bytes);
  cache.PutScan("b", 1, one_row, bytes);
  EXPECT_NE(cache.FindScan("a", 1), nullptr);  // touch a → b becomes LRU
  cache.PutScan("c", 1, one_row, bytes);
  EXPECT_NE(cache.FindScan("a", 1), nullptr);
  EXPECT_EQ(cache.FindScan("b", 1), nullptr);
  EXPECT_NE(cache.FindScan("c", 1), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().resident_bytes, entry_bytes * 2);
}

TEST(PartitionCacheTest, GenerationAndInvalidationKeepStaleEntriesUnreachable) {
  engine::Partitioned data{{Row{Value(int64_t{1})}}};
  PartitionCache cache;
  const uint64_t bytes = engine::PartitionedLogicalBytes(data);
  cache.PutScan("t", 1, data, bytes);
  cache.PutWrap("t", "c", 1, data, bytes);
  // A different generation never matches.
  EXPECT_EQ(cache.FindScan("t", 2), nullptr);
  EXPECT_NE(cache.FindScan("t", 1), nullptr);
  // Invalidation drops every entry derived from the table.
  cache.InvalidateTable("t");
  EXPECT_EQ(cache.FindScan("t", 1), nullptr);
  EXPECT_EQ(cache.FindWrap("t", "c", 1), nullptr);
  EXPECT_EQ(cache.stats().resident_entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

TEST(PartitionCacheTest, ConcurrentReadersSurviveInvalidationAndEviction) {
  // Readers pin entries while writers re-register tables (generation bumps
  // + InvalidateTable) and a tiny byte budget forces constant LRU eviction.
  // The pin contract under test: a hit returned by Find* stays readable for
  // as long as the reader holds it, and its content always matches the
  // (table, generation) it was keyed by — never a stale or aliased
  // partitioning. Run under the tsan preset this doubles as a race check on
  // the cache's internal mutex.
  engine::Partitioned probe{{Row{Value(int64_t{0})}}};
  const uint64_t entry_bytes = RowByteSize(probe[0][0]);
  PartitionCache cache(entry_bytes * 3);  // room for ~3 entries → churn

  constexpr int kTables = 4;
  constexpr int kWriterRounds = 1500;
  constexpr int kReaderRounds = 3000;
  auto value_for = [](int table, uint64_t generation) {
    return Value(static_cast<int64_t>(table) * 1000000 +
                 static_cast<int64_t>(generation));
  };
  auto table_name = [](int table) { return "t" + std::to_string(table); };

  // Latest generation registered per table (readers probe at or below it).
  std::array<std::atomic<uint64_t>, kTables> latest{};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};
  std::atomic<int> content_mismatches{0};

  std::thread writer([&] {
    for (int round = 0; round < kWriterRounds; round++) {
      const int t = round % kTables;
      const uint64_t generation = latest[t].load() + 1;
      engine::Partitioned data{{Row{value_for(t, generation)}}};
      const uint64_t bytes = engine::PartitionedLogicalBytes(data);
      // Same order as CleanDB::RegisterTable: publish the new generation,
      // then drop entries of older ones.
      auto pin = cache.PutScan(table_name(t), generation, std::move(data), bytes);
      ASSERT_NE(pin, nullptr);
      latest[t].store(generation);
      if (round % 3 == 0) cache.InvalidateTable(table_name(t));
    }
    stop = true;
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&, r] {
      uint32_t rng = 0x9E3779B9u * static_cast<uint32_t>(r + 1);
      for (int i = 0; i < kReaderRounds && !stop; i++) {
        rng = rng * 1664525u + 1013904223u;
        const int t = static_cast<int>(rng >> 16) % kTables;
        const uint64_t generation = latest[t].load();
        if (generation == 0) continue;
        PartitionPin pin = cache.FindScan(table_name(t), generation);
        if (!pin) continue;
        hits++;
        // The pinned data must match its key even if the entry was evicted
        // or invalidated between Find and this read.
        if (!(*pin)[0][0][0].Equals(value_for(t, generation))) {
          content_mismatches++;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(content_mismatches.load(), 0);
  // The budget held despite the churn, and the churn actually happened.
  EXPECT_LE(cache.stats().resident_bytes, entry_bytes * 3);
  EXPECT_GT(cache.stats().evictions + cache.stats().invalidations, 0u);
  // Sanity: a fresh Put is still served afterwards.
  const int t0 = 0;
  const uint64_t g = latest[t0].load() + 1;
  cache.PutScan(table_name(t0), g, {{Row{value_for(t0, g)}}}, entry_bytes);
  EXPECT_NE(cache.FindScan(table_name(t0), g), nullptr);
}

// ---- Satellite: specific error codes ----

TEST(PreparedQueryTest, PrepareOnMalformedCleanMIsPositionedParseError) {
  CleanDB db(FastOptions());
  auto r1 = db.Prepare("SELECT * FROM t c\n  FD(c.a)");  // FD missing RHS
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kParseError);
  EXPECT_NE(r1.status().message().find("line 2"), std::string::npos)
      << r1.status().ToString();

  auto r2 = db.Prepare("not a query");
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kParseError);
  EXPECT_NE(r2.status().message().find("line 1, column 1"), std::string::npos)
      << r2.status().ToString();
}

TEST(PreparedQueryTest, ExecuteAgainstUnregisteredTableIsKeyError) {
  CleanDB db(FastOptions());
  // Binding is lazy: preparing against a not-yet-registered table succeeds…
  auto prepared = db.Prepare("SELECT * FROM nowhere n FD(n.a, n.b)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  // …and executing it reports the missing table as kKeyError.
  auto result = prepared.value().Execute();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kKeyError);

  // Registering the table afterwards makes the same PreparedQuery runnable.
  Dataset t(Schema{{"a", ValueType::kInt}, {"b", ValueType::kInt}});
  t.Append({Value(int64_t{1}), Value(int64_t{2})});
  db.RegisterTable("nowhere", t);
  EXPECT_TRUE(prepared.value().Execute().ok());
}

TEST(PreparedQueryTest, UnknownColumnAndTypeMismatchSurfaceSpecificCodes) {
  CleanDB db(FastOptions());
  Dataset t(Schema{{"name", ValueType::kString}, {"num", ValueType::kInt}});
  t.Append({Value(std::string("x")), Value(int64_t{1})});
  db.RegisterTable("t", t);
  Dataset dict(Schema{{"name", ValueType::kString}});
  dict.Append({Value(std::string("x"))});
  db.RegisterTable("dict", dict);

  // Unknown column in a cleaning clause of a registered table: kKeyError
  // at Prepare time.
  auto unknown = db.Prepare("SELECT * FROM t c FD(c.nope, c.name)");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kKeyError);

  // Grouping monoids need string terms: kTypeError at Prepare time.
  auto bad_dedup = db.Prepare("SELECT * FROM t c DEDUP(token filtering, LD, 0.8, c.num)");
  ASSERT_FALSE(bad_dedup.ok());
  EXPECT_EQ(bad_dedup.status().code(), StatusCode::kTypeError);

  auto bad_cluster =
      db.Prepare("SELECT * FROM t c, dict d CLUSTER BY(tf, LD, 0.8, c.num)");
  ASSERT_FALSE(bad_cluster.ok());
  EXPECT_EQ(bad_cluster.status().code(), StatusCode::kTypeError);

  // Exact-key dedup has no string requirement.
  EXPECT_TRUE(db.Prepare("SELECT * FROM t c DEDUP(exact, c.num)").ok());
}

// ---- Tentpole: table mutations, minor generations, incremental
// re-validation (the generation-semantics matrix) ----

/// Appends two rows that form one brand-new FD(address, nationkey)
/// violation group to `table`.
void AppendFreshFdViolation(CleanDB& db, const std::string& table,
                            const Dataset& shape) {
  const size_t addr = shape.schema().IndexOf("address").ValueOrDie();
  const size_t nation = shape.schema().IndexOf("nationkey").ValueOrDie();
  Row extra1 = shape.row(0);
  Row extra2 = shape.row(0);
  extra1[addr] = Value(std::string("1 freshly injected lane"));
  extra2[addr] = Value(std::string("1 freshly injected lane"));
  extra1[nation] = Value(int64_t{7});
  extra2[nation] = Value(int64_t{8});
  auto r = db.AppendRows(table, {extra1, extra2});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(MutationApiTest, MutationsBumpMinorGenerationsAndRegisterResets) {
  CleanDB db(FastOptions());
  Dataset t(Schema{{"a", ValueType::kInt}, {"b", ValueType::kInt}});
  t.Append({Value(int64_t{1}), Value(int64_t{10})});
  t.Append({Value(int64_t{2}), Value(int64_t{20})});
  db.RegisterTable("t", t);
  EXPECT_EQ(db.TableGeneration("t"), 1u);
  EXPECT_EQ(db.TableMinor("t"), 0u);

  auto append = db.AppendRows("t", {{Value(int64_t{3}), Value(int64_t{30})}});
  ASSERT_TRUE(append.ok()) << append.status().ToString();
  EXPECT_EQ(append.value().generation, 2u);
  EXPECT_EQ(append.value().minor, 1u);
  EXPECT_EQ(append.value().rows_affected, 1u);

  auto update = db.UpdateRows(
      "t",
      [](const Schema&, const Row& r) { return r[0].Equals(Value(int64_t{1})); },
      ValueStruct{{"b", Value(int64_t{11})}});
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_EQ(update.value().generation, 3u);
  EXPECT_EQ(update.value().minor, 2u);
  EXPECT_EQ(update.value().rows_affected, 1u);

  // Mutations that change nothing publish nothing and bump nothing: a
  // matcher with no matches, and an update setting the already-current
  // value.
  auto no_match =
      db.DeleteRows("t", [](const Schema&, const Row&) { return false; });
  ASSERT_TRUE(no_match.ok());
  EXPECT_EQ(no_match.value().rows_affected, 0u);
  auto same_value = db.UpdateRows(
      "t",
      [](const Schema&, const Row& r) { return r[0].Equals(Value(int64_t{1})); },
      ValueStruct{{"b", Value(int64_t{11})}});
  ASSERT_TRUE(same_value.ok());
  EXPECT_EQ(same_value.value().rows_affected, 0u);
  EXPECT_EQ(db.TableGeneration("t"), 3u);
  EXPECT_EQ(db.TableMinor("t"), 2u);

  auto removed = db.DeleteRows(
      "t", [](const Schema&, const Row& r) { return r[0].Equals(Value(int64_t{2})); });
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value().generation, 4u);
  EXPECT_EQ(removed.value().minor, 3u);
  EXPECT_EQ(removed.value().rows_affected, 1u);

  // The effective table reflects all three mutations.
  auto now = db.GetTableShared("t").ValueOrDie();
  ASSERT_EQ(now->num_rows(), 2u);
  EXPECT_TRUE(now->row(0)[1].Equals(Value(int64_t{11})));
  EXPECT_TRUE(now->row(1)[0].Equals(Value(int64_t{3})));

  // Re-registering starts a new epoch at the next generation: minor resets.
  db.RegisterTable("t", t);
  EXPECT_EQ(db.TableGeneration("t"), 5u);
  EXPECT_EQ(db.TableMinor("t"), 0u);
  // Unknown tables and width mismatches are rejected.
  EXPECT_EQ(db.AppendRows("ghost", {{Value(int64_t{1})}}).status().code(),
            StatusCode::kKeyError);
  EXPECT_FALSE(db.AppendRows("t", {{Value(int64_t{1})}}).ok());
}

// ---- Copy-on-write table versions ----

/// A two-column table of `n` rows (i, i).
Dataset CountingTable(int64_t n) {
  Dataset t(Schema{{"a", ValueType::kInt}, {"b", ValueType::kInt}});
  for (int64_t i = 0; i < n; i++) t.Append({Value(i), Value(i)});
  return t;
}

/// The table's current rows, read through a lease that is dropped at once.
std::vector<Row> RowsOf(CleanDB& db, const std::string& table) {
  return db.GetTableShared(table).ValueOrDie()->rows();
}

bool KeyIs(const Row& r, int64_t key) { return r[0].Equals(Value(key)); }

/// The address of the table's current version, read through a lease that is
/// dropped at once (a live lease would make the next mutation copy).
const Dataset* VersionOf(CleanDB& db, const std::string& table) {
  return db.GetTableShared(table).ValueOrDie().get();
}

TEST(MutationApiTest, MutationsWithNoLeaseRewriteTheCurrentVersionInPlace) {
  CleanDB db(FastOptions());
  db.RegisterTable("t", CountingTable(6));
  // The first mutation after a registration copies: the registered version
  // is the incremental validator's base.
  const Dataset* registered = VersionOf(db, "t");
  ASSERT_TRUE(db.AppendRows("t", {{Value(int64_t{6}), Value(int64_t{6})}}).ok());
  const Dataset* current = VersionOf(db, "t");
  EXPECT_NE(current, registered);

  ASSERT_TRUE(db.AppendRows("t", {{Value(int64_t{7}), Value(int64_t{7})}}).ok());
  EXPECT_EQ(VersionOf(db, "t"), current);
  ASSERT_TRUE(
      db.DeleteRows("t", [](const Schema&, const Row& r) { return KeyIs(r, 0); }).ok());
  EXPECT_EQ(VersionOf(db, "t"), current);
  ASSERT_TRUE(db.UpdateRows("t", [](const Schema&, const Row& r) { return KeyIs(r, 1); },
                            ValueStruct{{"b", Value(int64_t{10})}})
                  .ok());
  EXPECT_EQ(VersionOf(db, "t"), current);
  ASSERT_TRUE(db.UpdateRowsWith("t",
                                [](const Schema&, Row* r) {
                                  if (!KeyIs(*r, 2)) return false;
                                  (*r)[1] = Value(int64_t{20});
                                  return true;
                                })
                  .ok());
  EXPECT_EQ(db.TableMinor("t"), 5u);

  std::shared_ptr<const Dataset> lease = db.GetTableShared("t").ValueOrDie();
  EXPECT_EQ(lease.get(), current);
  ASSERT_EQ(lease->num_rows(), 7u);
  EXPECT_TRUE(lease->row(0)[1].Equals(Value(int64_t{10})));
  EXPECT_TRUE(lease->row(1)[1].Equals(Value(int64_t{20})));
  EXPECT_TRUE(KeyIs(lease->row(6), 7));
}

TEST(MutationApiTest, LeaseTakenBeforeAMutationKeepsReadingItsRows) {
  CleanDB db(FastOptions());
  db.RegisterTable("t", CountingTable(4));
  ASSERT_TRUE(db.AppendRows("t", {{Value(int64_t{4}), Value(int64_t{4})}}).ok());
  const std::vector<Row> before = RowsOf(db, "t");

  using Mutation = std::function<void()>;
  const std::vector<std::pair<const char*, Mutation>> mutations = {
      {"append",
       [&] { ASSERT_TRUE(db.AppendRows("t", {{Value(int64_t{9}), Value(int64_t{9})}}).ok()); }},
      {"delete",
       [&] {
         ASSERT_TRUE(
             db.DeleteRows("t", [](const Schema&, const Row& r) { return KeyIs(r, 9); })
                 .ok());
       }},
      {"update",
       [&] {
         ASSERT_TRUE(db.UpdateRows("t",
                                   [](const Schema&, const Row& r) { return KeyIs(r, 1); },
                                   ValueStruct{{"b", Value(int64_t{-1})}})
                         .ok());
       }},
      {"update_with",
       [&] {
         ASSERT_TRUE(db.UpdateRowsWith("t",
                                       [](const Schema&, Row* r) {
                                         if (!KeyIs(*r, 1)) return false;
                                         (*r)[1] = Value(int64_t{1});
                                         return true;
                                       })
                         .ok());
       }},
  };
  std::vector<Row> expected = before;
  for (const auto& [name, mutate] : mutations) {
    std::shared_ptr<const Dataset> lease = db.GetTableShared("t").ValueOrDie();
    const uint64_t generation = db.TableGeneration("t");
    mutate();
    EXPECT_EQ(db.TableGeneration("t"), generation + 1) << name;
    // The lease still reads exactly the rows it was taken on, while the
    // table moved on.
    EXPECT_EQ(lease->rows(), expected) << name;
    EXPECT_NE(RowsOf(db, "t"), expected) << name;
    expected = RowsOf(db, "t");
  }
  EXPECT_EQ(expected, before);  // the four mutations cancel out
}

TEST(MutationApiTest, FailedMutationsLeaveTheTableUntouched) {
  // Each failing mutation would change rows 0..k-1 before failing on row k:
  // a matcher that throws on row k, or an editor that changes row k's
  // width. None may write, with or without a live lease.
  constexpr int64_t k = 3;
  CleanDB db(FastOptions());
  db.RegisterTable("t", CountingTable(6));
  auto prepared = db.Prepare("SELECT * FROM t x FD(x.a, x.b)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedQuery& pq = prepared.value();
  ASSERT_TRUE(pq.Execute().ok());
  // Leave the registered base, so a lease-free mutation would run in place,
  // and bring the incremental state up to date.
  ASSERT_TRUE(db.AppendRows("t", {{Value(int64_t{6}), Value(int64_t{6})}}).ok());
  ASSERT_EQ(pq.Execute().ValueOrDie().metrics.incremental_executions, 1u);

  auto throw_on_k = [](const Schema&, const Row& r) {
    if (KeyIs(r, k)) throw std::runtime_error("matcher failed");
    return r[0].AsInt() < k;
  };
  const std::vector<Row> rows = RowsOf(db, "t");
  const uint64_t generation = db.TableGeneration("t");
  const uint64_t minor = db.TableMinor("t");
  for (const bool leased : {false, true}) {
    std::shared_ptr<const Dataset> lease;
    if (leased) lease = db.GetTableShared("t").ValueOrDie();
    const std::string label = leased ? "with a lease" : "without a lease";

    EXPECT_THROW((void)db.DeleteRows("t", throw_on_k), std::runtime_error) << label;
    EXPECT_THROW((void)db.UpdateRows("t", throw_on_k, ValueStruct{{"b", Value(int64_t{-1})}}),
                 std::runtime_error)
        << label;
    auto widened = db.UpdateRowsWith("t", [](const Schema&, Row* r) {
      if (KeyIs(*r, k)) r->emplace_back();
      (*r)[1] = Value(int64_t{-1});
      return true;
    });
    EXPECT_EQ(widened.status().code(), StatusCode::kInvalidArgument) << label;

    EXPECT_EQ(RowsOf(db, "t"), rows) << label;
    EXPECT_EQ(db.TableGeneration("t"), generation) << label;
    EXPECT_EQ(db.TableMinor("t"), minor) << label;
    if (lease) {
      EXPECT_EQ(lease->rows(), rows);
    }
  }

  // The epoch gained no delta: the next incremental execution applies
  // exactly the one row appended after the failures.
  ASSERT_TRUE(db.AppendRows("t", {{Value(int64_t{7}), Value(int64_t{7})}}).ok());
  auto after = pq.Execute().ValueOrDie();
  EXPECT_EQ(after.metrics.incremental_executions, 1u);
  EXPECT_EQ(after.metrics.delta_rows_processed, 1u);
}

TEST(MutationApiTest, DeleteRowsKeepsTheSurvivorsInOrder) {
  CleanDB db(FastOptions());
  db.RegisterTable("t", CountingTable(10));
  auto odd = [](const Schema&, const Row& r) { return r[0].AsInt() % 2 == 1; };
  auto multiple_of_four = [](const Schema&, const Row& r) { return r[0].AsInt() % 4 == 0; };
  // First on the registered base (the copying path), then in place.
  ASSERT_EQ(db.DeleteRows("t", odd).ValueOrDie().rows_affected, 5u);
  ASSERT_EQ(db.DeleteRows("t", multiple_of_four).ValueOrDie().rows_affected, 3u);
  std::vector<int64_t> keys;
  for (const auto& r : RowsOf(db, "t")) keys.push_back(r[0].AsInt());
  EXPECT_EQ(keys, (std::vector<int64_t>{2, 6}));
}

TEST(PreparedQueryTest, MinorBumpIsServedIncrementallyWithZeroRepartitions) {
  const char* query = R"(
    SELECT * FROM customer c
    FD(c.address, c.nationkey)
    DEDUP(exact, c.address)
  )";
  datagen::CustomerOptions copts;
  copts.base_rows = 200;
  copts.duplicate_fraction = 0.05;
  copts.fd_violation_fraction = 0.05;
  Dataset v1 = datagen::MakeCustomer(copts);

  CleanDB db(FastOptions());
  db.RegisterTable("customer", v1);
  auto prepared = db.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedQuery& pq = prepared.value();
  auto before = pq.Execute().ValueOrDie();
  EXPECT_EQ(before.metrics.incremental_executions, 0u);

  AppendFreshFdViolation(db, "customer", v1);
  EXPECT_EQ(db.TableMinor("customer"), 1u);

  auto after = pq.Execute().ValueOrDie();
  // Served by the incremental delta path: no engine work, no cache
  // traffic, zero full re-partitions.
  EXPECT_EQ(after.metrics.incremental_executions, 1u);
  EXPECT_GT(after.metrics.delta_rows_processed, 0u);
  EXPECT_GT(after.metrics.groups_remerged, 0u);
  EXPECT_EQ(after.cache.scan_misses, 0u);
  EXPECT_EQ(after.cache.nest_misses, 0u);
  EXPECT_EQ(after.metrics.rows_scanned, 0u);
  EXPECT_EQ(after.ops[0].violations.size(), before.ops[0].violations.size() + 1);
  EXPECT_EQ(after.ops[1].violations.size(), before.ops[1].violations.size() + 1);

  // The merged set equals a cold execution over the mutated table
  // (canonically normalized: aggregated collections are order-sensitive to
  // the fold tree that built them).
  CleanDB cold(FastOptions());
  cold.RegisterTable("customer", *db.GetTableShared("customer").ValueOrDie());
  auto cold_result = cold.Execute(query).ValueOrDie();
  ExpectSameViolationSets(after, cold_result);

  // A second mutation round advances the same cached state.
  auto del = db.DeleteRows("customer", [&](const Schema& s, const Row& r) {
    const size_t addr = s.IndexOf("address").ValueOrDie();
    return r[addr].Equals(Value(std::string("1 freshly injected lane")));
  });
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del.value().rows_affected, 2u);
  auto third = pq.Execute().ValueOrDie();
  EXPECT_EQ(third.metrics.incremental_executions, 1u);
  EXPECT_EQ(third.ops[0].violations.size(), before.ops[0].violations.size());
  EXPECT_EQ(third.ops[1].violations.size(), before.ops[1].violations.size());
}

TEST(PreparedQueryTest, MinorThenMajorBumpForcesColdExecution) {
  const char* query = "SELECT * FROM customer c FD(c.address, c.nationkey)";
  datagen::CustomerOptions copts;
  copts.base_rows = 150;
  copts.duplicate_fraction = 0;
  copts.fd_violation_fraction = 0.05;
  Dataset v1 = datagen::MakeCustomer(copts);

  CleanDB db(FastOptions());
  db.RegisterTable("customer", v1);
  auto prepared = db.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedQuery& pq = prepared.value();
  auto before = pq.Execute().ValueOrDie();

  AppendFreshFdViolation(db, "customer", v1);
  auto incremental = pq.Execute().ValueOrDie();
  EXPECT_EQ(incremental.metrics.incremental_executions, 1u);

  // (minor, then major): re-registration closes the epoch — the next
  // execution is cold (real re-partitioning, no delta serving), exactly as
  // if the mutations never happened.
  db.RegisterTable("customer", v1);
  EXPECT_EQ(db.TableMinor("customer"), 0u);
  auto after_major = pq.Execute().ValueOrDie();
  EXPECT_EQ(after_major.metrics.incremental_executions, 0u);
  EXPECT_GT(after_major.cache.scan_misses, 0u);
  EXPECT_GT(after_major.metrics.rows_scanned, 0u);
  ExpectSameViolationSets(before, after_major);

  // A plain re-execution after the cold one keeps the warm-cache contract.
  auto warm = pq.Execute().ValueOrDie();
  EXPECT_EQ(warm.cache.scan_misses, 0u);
  EXPECT_EQ(warm.metrics.rows_scanned, 0u);
}

TEST(PreparedQueryTest, UnregisterMidEpochNeverRevivesTheOldEpochsState) {
  // The table entry outlives UnregisterTable, so a later registration
  // starts at a fresh generation and the validator's state of the dropped
  // epoch can never match the new one.
  const char* query = "SELECT * FROM customer c FD(c.address, c.nationkey)";
  datagen::CustomerOptions copts;
  copts.base_rows = 150;
  copts.duplicate_fraction = 0;
  copts.fd_violation_fraction = 0.05;
  Dataset first = datagen::MakeCustomer(copts);
  copts.seed += 1;
  copts.fd_violation_fraction = 0.1;
  Dataset second = datagen::MakeCustomer(copts);

  auto fresh_session = [&](const Dataset& rows) {
    CleanDB fresh(FastOptions());
    fresh.RegisterTable("customer", rows);
    return fresh.Execute(query).ValueOrDie();
  };

  CleanDB db(FastOptions());
  db.RegisterTable("customer", first);
  auto prepared = db.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedQuery& pq = prepared.value();
  AppendFreshFdViolation(db, "customer", first);
  EXPECT_EQ(db.TableGeneration("customer"), 2u);
  EXPECT_EQ(pq.Execute().ValueOrDie().metrics.incremental_executions, 1u);

  db.UnregisterTable("customer");
  EXPECT_EQ(db.TableGeneration("customer"), 3u);
  EXPECT_EQ(db.TableMinor("customer"), 0u);
  db.RegisterTable("customer", second);
  EXPECT_EQ(db.TableGeneration("customer"), 4u);
  EXPECT_EQ(db.TableMinor("customer"), 0u);

  auto cold = pq.Execute().ValueOrDie();
  EXPECT_EQ(cold.metrics.incremental_executions, 0u);
  EXPECT_GT(cold.cache.scan_misses, 0u);
  ExpectSameViolationSets(cold, fresh_session(second));

  AppendFreshFdViolation(db, "customer", second);
  EXPECT_EQ(db.TableMinor("customer"), 1u);
  auto incremental = pq.Execute().ValueOrDie();
  EXPECT_EQ(incremental.metrics.incremental_executions, 1u);
  ExpectSameViolationSets(incremental,
                          fresh_session(*db.GetTableShared("customer").ValueOrDie()));
}

TEST(PreparedQueryTest, PinnedPartitioningsSurviveMinorBumps) {
  const char* query = "SELECT * FROM customer c FD(c.address, c.nationkey)";
  datagen::CustomerOptions copts;
  copts.base_rows = 120;
  copts.duplicate_fraction = 0;
  copts.fd_violation_fraction = 0.05;
  Dataset v1 = datagen::MakeCustomer(copts);

  CleanDB db(FastOptions());
  db.RegisterTable("customer", v1);
  auto prepared = db.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedQuery& pq = prepared.value();
  ASSERT_TRUE(pq.Execute().ok());

  // A concurrent reader's pin on the generation-1 scan.
  PartitionPin pin = db.partition_cache().FindScan("customer", 1);
  ASSERT_NE(pin, nullptr);
  size_t pinned_rows = 0;
  for (const auto& part : *pin) pinned_rows += part.size();
  EXPECT_EQ(pinned_rows, v1.num_rows());

  AppendFreshFdViolation(db, "customer", v1);

  // Mutations never invalidate: the old-generation entry is still cached
  // (unreachable by new snapshots, reclaimed by the LRU eventually), and
  // the held pin still reads the pre-mutation partitioning.
  EXPECT_NE(db.partition_cache().FindScan("customer", 1), nullptr);
  size_t still_pinned = 0;
  for (const auto& part : *pin) still_pinned += part.size();
  EXPECT_EQ(still_pinned, v1.num_rows());

  // And executions during/after the reader's pin proceed normally.
  auto after = pq.Execute().ValueOrDie();
  EXPECT_EQ(after.metrics.incremental_executions, 1u);
}

TEST(PreparedQueryTest, RetractionsAndNewTagsReconcileWithColdExecution) {
  /// Records the retraction-tagged stream (canonically normalized).
  class DeltaRecordingSink : public ViolationSink {
   public:
    Status OnViolation(const std::string& op, const Value& v) override {
      current.push_back(op + "|" + CanonicalString(v));
      return Status::OK();
    }
    Status OnViolationRetracted(const std::string& op, const Value& v) override {
      retracted.push_back(op + "|" + CanonicalString(v));
      return Status::OK();
    }
    Status OnViolationNew(const std::string& op, const Value& v) override {
      fresh.push_back(op + "|" + CanonicalString(v));
      return OnViolation(op, v);
    }
    Status OnDirtyEntity(const Value&, const std::vector<std::string>&) override {
      dirty++;
      return Status::OK();
    }
    std::vector<std::string> current, retracted, fresh;
    size_t dirty = 0;
  };

  // A hand-built table where every group is known: address "A" violates the
  // FD, "A" and "B" are exact-duplicate groups.
  Dataset t(Schema{{"name", ValueType::kString},
                   {"address", ValueType::kString},
                   {"nationkey", ValueType::kInt}});
  t.Append({Value("a1"), Value("A"), Value(int64_t{1})});
  t.Append({Value("a2"), Value("A"), Value(int64_t{2})});
  t.Append({Value("b1"), Value("B"), Value(int64_t{3})});
  t.Append({Value("b2"), Value("B"), Value(int64_t{3})});
  const char* query = R"(
    SELECT * FROM customer c
    FD(c.address, c.nationkey)
    DEDUP(exact, c.address)
  )";

  CleanDB db(FastOptions());
  db.RegisterTable("customer", t);
  auto prepared = db.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedQuery& pq = prepared.value();

  DeltaRecordingSink cold_sink;
  ASSERT_TRUE(pq.ExecuteInto(cold_sink).ok());
  EXPECT_TRUE(cold_sink.retracted.empty());
  EXPECT_TRUE(cold_sink.fresh.empty());
  ASSERT_FALSE(cold_sink.current.empty());

  // Fix the FD violation on "A" (a2's nationkey joins the majority) and
  // inject two brand-new violating groups, "C" and "D".
  ASSERT_TRUE(db.UpdateRows(
                    "customer",
                    [](const Schema&, const Row& r) {
                      return r[0].Equals(Value(std::string("a2")));
                    },
                    ValueStruct{{"nationkey", Value(int64_t{1})}})
                  .ok());
  ASSERT_TRUE(db.AppendRows("customer", {{Value("c1"), Value("C"), Value(int64_t{7})},
                                         {Value("c2"), Value("C"), Value(int64_t{8})},
                                         {Value("d1"), Value("D"), Value(int64_t{9})},
                                         {Value("d2"), Value("D"), Value(int64_t{10})}})
                  .ok());

  // Re-validates incrementally and checks the contract: previous −
  // retracted + new == current, as multisets, and `current` matches a cold
  // execution over the mutated table.
  auto sorted = [](std::vector<std::string> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  auto revalidate = [&](const DeltaRecordingSink& previous, DeltaRecordingSink* sink) {
    const uint64_t served = db.cluster().session_metrics().incremental_executions.load();
    ASSERT_TRUE(pq.ExecuteInto(*sink).ok());
    EXPECT_EQ(db.cluster().session_metrics().incremental_executions.load(), served + 1);
    std::vector<std::string> merged = previous.current;
    for (const auto& r : sink->retracted) {
      auto it = std::find(merged.begin(), merged.end(), r);
      ASSERT_NE(it, merged.end()) << "retraction of a never-emitted violation: " << r;
      merged.erase(it);
    }
    merged.insert(merged.end(), sink->fresh.begin(), sink->fresh.end());
    EXPECT_EQ(sorted(merged), sorted(sink->current));

    CleanDB cold(FastOptions());
    cold.RegisterTable("customer", *db.GetTableShared("customer").ValueOrDie());
    auto cold_prepared = cold.Prepare(query);
    ASSERT_TRUE(cold_prepared.ok());
    DeltaRecordingSink cold_after;
    ASSERT_TRUE(cold_prepared.value().ExecuteInto(cold_after).ok());
    EXPECT_EQ(sorted(sink->current), sorted(cold_after.current));
  };

  DeltaRecordingSink delta_sink;
  revalidate(cold_sink, &delta_sink);
  EXPECT_FALSE(delta_sink.retracted.empty());
  EXPECT_FALSE(delta_sink.fresh.empty());

  // One commit empties two groups at once ("B" and "C"), and a later one
  // re-creates "B".
  ASSERT_TRUE(db.DeleteRows("customer",
                            [](const Schema&, const Row& r) {
                              return r[1].Equals(Value(std::string("B"))) ||
                                     r[1].Equals(Value(std::string("C")));
                            })
                  .ok());
  DeltaRecordingSink emptied_sink;
  revalidate(delta_sink, &emptied_sink);
  EXPECT_FALSE(emptied_sink.retracted.empty());
  EXPECT_TRUE(emptied_sink.fresh.empty());

  ASSERT_TRUE(db.AppendRows("customer", {{Value("b3"), Value("B"), Value(int64_t{4})},
                                         {Value("b4"), Value("B"), Value(int64_t{5})}})
                  .ok());
  DeltaRecordingSink recreated_sink;
  revalidate(emptied_sink, &recreated_sink);
  EXPECT_TRUE(recreated_sink.retracted.empty());
  EXPECT_FALSE(recreated_sink.fresh.empty());

  // Emission order is first-occurrence group order: "B", emptied and then
  // re-created, now comes after every older group in each operation —
  // after "A", and after "D", which first occurred after the original "B".
  std::map<std::string, std::vector<std::string>> keys_by_op;
  for (const auto& line : recreated_sink.current) {
    const size_t bar = line.find('|');
    const size_t key = line.find("{key:", bar) + 5;
    keys_by_op[line.substr(0, bar)].push_back(line.substr(key, line.find(',', key) - key));
  }
  EXPECT_EQ(keys_by_op["FD"], (std::vector<std::string>{"D", "B"}));
  EXPECT_EQ(keys_by_op["DEDUP"], (std::vector<std::string>{"A", "D", "B"}));
}

TEST(PreparedQueryTest, IncrementalDedupChargesComparisonsForReChainedPairs) {
  // DEDUP tests every (p1, p2) pair of a group inside its Unnest, so a
  // group of m ≥ 2 members costs m² comparisons, on the engine path and
  // when the incremental validator re-chains it. Groups: "A" 3 members,
  // "B" 2, "C" 1 (below the having bound, never paired), "D" 4.
  Dataset t(Schema{{"name", ValueType::kString}, {"address", ValueType::kString}});
  for (const char* name : {"a1", "a2", "a3"}) t.Append({Value(name), Value("A")});
  for (const char* name : {"b1", "b2"}) t.Append({Value(name), Value("B")});
  t.Append({Value("c1"), Value("C")});
  for (const char* name : {"d1", "d2", "d3", "d4"}) t.Append({Value(name), Value("D")});
  const char* query = "SELECT * FROM customer c DEDUP(exact, c.address)";

  CleanDB db(FastOptions());
  db.RegisterTable("customer", t);
  auto prepared = db.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedQuery& pq = prepared.value();
  auto cold = pq.Execute().ValueOrDie();
  EXPECT_EQ(cold.metrics.comparisons, 9u + 4u + 16u);

  // The first incremental run builds the baselines, so it also charges
  // every group's pairs at the pre-delta version.
  ASSERT_TRUE(db.AppendRows("customer", {{Value("a4"), Value("A")}}).ok());
  auto first = pq.Execute().ValueOrDie();
  EXPECT_EQ(first.metrics.incremental_executions, 1u);
  EXPECT_EQ(first.metrics.comparisons, (9u + 4u + 16u) + 16u);

  // Once baselines exist, a commit re-chains only the group it touches.
  ASSERT_TRUE(db.AppendRows("customer", {{Value("b3"), Value("B")}}).ok());
  auto grown = pq.Execute().ValueOrDie();
  EXPECT_EQ(grown.metrics.incremental_executions, 1u);
  EXPECT_EQ(grown.metrics.comparisons, 9u);

  ASSERT_TRUE(db.UpdateRows(
                    "customer",
                    [](const Schema&, const Row& r) {
                      return r[0].Equals(Value(std::string("d2")));
                    },
                    ValueStruct{{"name", Value(std::string("d2 renamed"))}})
                  .ok());
  auto updated = pq.Execute().ValueOrDie();
  EXPECT_EQ(updated.metrics.incremental_executions, 1u);
  EXPECT_EQ(updated.metrics.comparisons, 16u);

  CleanDB cold_db(FastOptions());
  cold_db.RegisterTable("customer", *db.GetTableShared("customer").ValueOrDie());
  ExpectSameViolationSets(updated, cold_db.Execute(query).ValueOrDie());
}

TEST(PreparedQueryTest, OneShotExecuteAfterMutationRunsTheEngine) {
  // A one-shot dies with its plans: bootstrapping validator state from the
  // registered base would serve one diff and drop the state. So after a
  // mutation Execute(text) and ExecuteQuery run the engine, re-partition
  // the table, and match a cold session.
  datagen::CustomerOptions copts;
  copts.base_rows = 150;
  copts.duplicate_fraction = 0;
  copts.fd_violation_fraction = 0.05;
  Dataset v1 = datagen::MakeCustomer(copts);
  const char* query = "SELECT * FROM customer c FD(c.address, c.nationkey)";

  CleanDB db(FastOptions());
  db.RegisterTable("customer", v1);
  auto before = db.Execute(query).ValueOrDie();
  for (const bool parsed : {false, true}) {
    // Every call appends to the same fresh address group: one new violation.
    AppendFreshFdViolation(db, "customer", v1);
    auto one_shot = parsed ? db.ExecuteQuery(ParseCleanM(query).ValueOrDie()).ValueOrDie()
                           : db.Execute(query).ValueOrDie();
    EXPECT_EQ(one_shot.metrics.incremental_executions, 0u);
    EXPECT_GT(one_shot.metrics.rows_scanned, 0u);
    EXPECT_EQ(one_shot.ops[0].violations.size(), before.ops[0].violations.size() + 1);

    CleanDB cold_db(FastOptions());
    cold_db.RegisterTable("customer", *db.GetTableShared("customer").ValueOrDie());
    ExpectSameViolationSets(one_shot, cold_db.Execute(query).ValueOrDie());
  }
}

TEST(PreparedQueryTest, IneligiblePlansFallBackToTheEngine) {
  CleanDB db(FastOptions());
  // A join-rooted plan (denial constraint) is structurally ineligible for
  // driver-side serving: after a mutation it runs the engine path,
  // which re-partitions the table (the epoch has no other consumer).
  datagen::LineitemOptions lopts;
  lopts.rows = 120;
  lopts.noise_fraction = 0.1;
  db.RegisterTable("lineitem", datagen::MakeLineitem(lopts));
  auto pred = ParseCleanMExpr("t1.price < t2.price AND t1.discount > t2.discount");
  auto dc = db.PrepareDenialConstraint("lineitem", CloneExpr(pred.ValueOrDie()));
  ASSERT_TRUE(dc.ok()) << dc.status().ToString();
  auto dc_before = dc.value().Execute().ValueOrDie();
  EXPECT_EQ(dc_before.metrics.incremental_executions, 0u);

  auto li = db.GetTableShared("lineitem").ValueOrDie();
  ASSERT_TRUE(db.AppendRows("lineitem", {li->row(0)}).ok());
  auto dc_after = dc.value().Execute().ValueOrDie();
  EXPECT_EQ(dc_after.metrics.incremental_executions, 0u);  // engine path
  EXPECT_EQ(dc_after.metrics.delta_rows_processed, 0u);    // no delta consumer
  EXPECT_GT(dc_after.metrics.rows_scanned, 0u);            // re-partition

  // Cross-check against a cold session over the mutated lineitem.
  CleanDB cold_db(FastOptions());
  cold_db.RegisterTable("lineitem", *db.GetTableShared("lineitem").ValueOrDie());
  auto dc_cold = cold_db.PrepareDenialConstraint("lineitem", CloneExpr(pred.ValueOrDie()));
  ASSERT_TRUE(dc_cold.ok());
  auto dc_cold_result = dc_cold.value().Execute().ValueOrDie();
  ASSERT_EQ(dc_after.ops[0].violations.size(), dc_cold_result.ops[0].violations.size());
  for (size_t i = 0; i < dc_after.ops[0].violations.size(); i++) {
    EXPECT_TRUE(dc_after.ops[0].violations[i].Equals(dc_cold_result.ops[0].violations[i]))
        << "violation " << i;
  }
}

TEST(RepairSinkTest, CommitDeltaClosesTheFixpointIncrementally) {
  // MakeCustomers: "rue de lausanne 1" holds alice/bob (nationkey 1) and
  // alicia (nationkey 3) — one FD(address, nationkey) violation.
  Dataset t = testsupport::MakeCustomers();
  CleanDB db(FastOptions());
  db.RegisterTable("customer", t);
  auto prepared = db.Prepare("SELECT * FROM customer c FD(c.address, c.nationkey)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedQuery& pq = prepared.value();
  auto before = pq.Execute().ValueOrDie();
  ASSERT_EQ(before.ops[0].violations.size(), 1u);

  // Repair: align alicia's nationkey with the majority — via the unscoped
  // sink form fed one action-shaped tuple by hand.
  RepairSink sink(&db, "customer");
  const Value alicia = RowToRecord(t.schema(), t.row(3));
  ASSERT_TRUE(sink.OnViolation(
                     "FD",
                     Value(ValueStruct{
                         {"fix", Value(ValueStruct{
                                     {"entity", alicia},
                                     {"set", Value(ValueStruct{
                                                 {"nationkey", Value(int64_t{1})}})}})}}))
                  .ok());
  auto summary = sink.CommitDelta();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary.value().rows_changed, 1u);
  EXPECT_EQ(summary.value().cells_changed, 1u);
  EXPECT_EQ(summary.value().unmatched, 0u);

  // The repair landed as a *minor* generation: no invalidation, and the
  // re-validation is served incrementally with the violation retracted.
  EXPECT_EQ(summary.value().new_generation, 2u);
  EXPECT_EQ(db.TableGeneration("customer"), 2u);
  EXPECT_EQ(db.TableMinor("customer"), 1u);
  auto after = pq.Execute().ValueOrDie();
  EXPECT_EQ(after.metrics.incremental_executions, 1u);
  EXPECT_EQ(after.cache.scan_misses, 0u);
  EXPECT_EQ(after.ops[0].violations.size(), 0u);

  // A committed no-op round (same action again) publishes nothing.
  RepairSink again(&db, "customer");
  const Value repaired_alicia =
      RowToRecord(t.schema(), db.GetTableShared("customer").ValueOrDie()->row(3));
  ASSERT_TRUE(again.OnViolation(
                     "FD",
                     Value(ValueStruct{
                         {"fix", Value(ValueStruct{
                                     {"entity", repaired_alicia},
                                     {"set", Value(ValueStruct{
                                                 {"nationkey", Value(int64_t{1})}})}})}}))
                  .ok());
  auto noop = again.CommitDelta();
  ASSERT_TRUE(noop.ok()) << noop.status().ToString();
  EXPECT_EQ(noop.value().cells_changed, 0u);
  EXPECT_EQ(db.TableMinor("customer"), 1u);

  // CommitDelta cannot re-register under a new name.
  RepairSink renaming(&db, "customer", "customer_clean");
  EXPECT_EQ(renaming.CommitDelta().status().code(), StatusCode::kInvalidArgument);
}

// ---- Streaming sinks ----

/// Records the full event stream for comparison with the materialized path.
class RecordingSink : public ViolationSink {
 public:
  Status OnOpBegin(const std::string& op_name) override {
    events.push_back("begin " + op_name);
    return Status::OK();
  }
  Status OnViolation(const std::string& op_name, const Value& violation) override {
    events.push_back("violation " + op_name);
    violations.push_back(violation);
    return Status::OK();
  }
  Status OnOpEnd(const OpSummary& summary) override {
    events.push_back("end " + summary.op_name + " " +
                     std::to_string(summary.violations));
    return Status::OK();
  }
  Status OnDirtyEntity(const Value& entity, const std::vector<std::string>&) override {
    dirty.push_back(entity);
    return Status::OK();
  }

  std::vector<std::string> events;
  ValueList violations;
  ValueList dirty;
};

TEST(ViolationSinkTest, StreamedEventsMatchMaterializedResult) {
  const char* query = R"(
    SELECT * FROM customer c
    FD(c.address, prefix(c.phone))
    DEDUP(exact, c.address)
  )";
  CleanDB db(FastOptions());
  db.RegisterTable("customer", DirtyCustomers());
  auto prepared = db.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  RecordingSink sink;
  ASSERT_TRUE(prepared.value().ExecuteInto(sink).ok());
  auto materialized = prepared.value().Execute().ValueOrDie();

  // Same violations, in the same order, and per-op begin/end bracketing.
  size_t total = 0;
  for (const auto& op : materialized.ops) total += op.violations.size();
  ASSERT_EQ(sink.violations.size(), total);
  size_t k = 0;
  for (const auto& op : materialized.ops) {
    for (const auto& v : op.violations) {
      EXPECT_TRUE(v.Equals(sink.violations[k++]));
    }
  }
  EXPECT_EQ(sink.dirty.size(), materialized.dirty_entities.size());
  ASSERT_GE(sink.events.size(), 4u);
  EXPECT_EQ(sink.events.front(), "begin FD");
  EXPECT_EQ(sink.events.back(),
            "end DEDUP " + std::to_string(materialized.ops[1].violations.size()));
}

TEST(ViolationSinkTest, SinkErrorAbortsExecutionAndPropagates) {
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

  CleanDB db(FastOptions());
  db.RegisterTable("customer", DirtyCustomers());
  auto prepared = db.Prepare("SELECT * FROM customer c DEDUP(exact, c.address)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  AbortingSink sink;
  auto status = prepared.value().ExecuteInto(sink);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(sink.seen, 3);
}

}  // namespace
}  // namespace cleanm
