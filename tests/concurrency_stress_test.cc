// Session-concurrency stress suite (the tsan preset runs these under
// ThreadSanitizer; the plain presets run them as functional races).
//
// One CleanDB, many driver threads: prepared FD / dedup / SELECT queries
// execute concurrently over the shared cluster's worker pools while other
// threads re-register tables and commit repairs. The contracts under test
// are the ones DESIGN.md ("Threading & session concurrency") documents:
//
//  * every concurrent execution of a prepared query over a *stable* table
//    returns a violation set bit-identical to the serial baseline — no
//    torn snapshots, no cross-execution metric or cache interference;
//  * RegisterTable / RepairSink::Commit during in-flight executions are
//    atomic: an execution sees one generation of each table throughout
//    (snapshot visibility), never a mix;
//  * the admission controller really bounds concurrent in-flight work:
//    with a byte budget, oversized executions run alone (serialized);
//    without one, executions overlap.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cleaning/prepared_query.h"
#include "datagen/generators.h"
#include "repair/repair_sink.h"
#include "support/fixtures.h"

namespace cleanm {
namespace {

using testsupport::FastCleanDBOptions;
using testsupport::MakeCustomers;

Dataset DirtyCustomers() {
  datagen::CustomerOptions copts;
  copts.base_rows = 200;
  copts.duplicate_fraction = 0.08;
  copts.max_duplicates = 3;
  copts.fd_violation_fraction = 0.05;
  return datagen::MakeCustomer(copts);
}

/// Canonical rendering of a result: operations and their violations in
/// execution order (deterministic), the dirty-entity join sorted (the
/// entity outer join hashes, so its order is not part of the contract).
std::string Render(const QueryResult& r) {
  std::string out;
  for (const auto& op : r.ops) {
    out += op.op_name + "#" + std::to_string(op.violations.size()) + "\n";
    for (const auto& v : op.violations) out += v.ToString() + "\n";
  }
  std::vector<std::string> dirty;
  for (const auto& [entity, ops] : r.dirty_entities) {
    std::string line = entity.ToString();
    for (const auto& o : ops) line += "|" + o;
    dirty.push_back(std::move(line));
  }
  std::sort(dirty.begin(), dirty.end());
  for (const auto& d : dirty) out += d + "\n";
  return out;
}

TEST(ConcurrencyStressTest, ConcurrentDriversMatchSerialBaselineUnderChurn) {
  CleanDB db(FastCleanDBOptions(4));
  db.RegisterTable("customer", DirtyCustomers());  // stable during the run
  db.RegisterTable("fixable", MakeCustomers());    // repaired repeatedly

  // Row-wise repair UDF for the commit thread: uppercase the name.
  ASSERT_TRUE(db.functions()
                  .RegisterRepair(
                      "upcase_name", 1,
                      [](const std::vector<Value>& args) -> Result<Value> {
                        auto name = args[0].GetField("name");
                        if (!name.ok()) return name.status();
                        std::string upper = name.value().AsString();
                        for (auto& ch : upper) {
                          ch = static_cast<char>(std::toupper(ch));
                        }
                        return Value(ValueStruct{
                            {"entity", args[0]},
                            {"set", Value(ValueStruct{{"name", Value(upper)}})}});
                      })
                  .ok());

  // Shared prepared queries — all driver threads execute these same
  // objects concurrently.
  auto multi = db.Prepare(R"(
    SELECT * FROM customer c
    FD(c.address, prefix(c.phone))
    FD(c.address, c.nationkey)
    DEDUP(exact, c.address)
  )");
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  auto fd_only = db.Prepare("SELECT * FROM customer c FD(c.address, c.nationkey)");
  ASSERT_TRUE(fd_only.ok()) << fd_only.status().ToString();
  auto select = db.Prepare("SELECT c.name FROM customer c");
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  PreparedQuery* queries[] = {&multi.value(), &fd_only.value(), &select.value()};

  // Serial baselines before any concurrency.
  std::vector<std::string> baseline;
  for (PreparedQuery* pq : queries) {
    auto r = pq->Execute();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    baseline.push_back(Render(r.value()));
  }

  constexpr int kDrivers = 8;
  constexpr int kIterations = 6;
  std::atomic<int> failures{0};
  std::atomic<int> executions{0};
  std::mutex first_mu;
  std::string first_divergence;
  auto record_failure = [&](const std::string& what) {
    failures++;
    std::lock_guard<std::mutex> lock(first_mu);
    if (first_divergence.empty()) first_divergence = what;
  };

  std::atomic<bool> stop_churn{false};
  // Churn thread: re-registers an unrelated table (generation bumps + cache
  // invalidations) and queries it, concurrently with everything else.
  std::thread churn([&] {
    for (int round = 0; !stop_churn; round++) {
      Dataset scratch(Schema{{"a", ValueType::kInt}});
      for (int i = 0; i <= round % 5; i++) {
        scratch.Append({Value(static_cast<int64_t>(round + i))});
      }
      db.RegisterTable("scratch", std::move(scratch));
      auto r = db.Execute("SELECT s.a FROM scratch s");
      if (!r.ok()) record_failure("scratch query: " + r.status().ToString());
    }
  });

  // Repair thread: detect → repair → re-register loop on "fixable", each
  // Commit going through the session commit lock while drivers execute.
  std::thread repairer([&] {
    auto repair = db.Prepare("SELECT upcase_name(f) AS fix FROM fixable f");
    if (!repair.ok()) {
      record_failure("prepare repair: " + repair.status().ToString());
      return;
    }
    for (int round = 0; round < 8; round++) {
      db.RegisterTable("fixable", MakeCustomers());  // reset the dirty data
      RepairSink sink(&db, repair.value(), "fixable_clean");
      Status s = repair.value().ExecuteInto(sink);
      if (!s.ok()) {
        record_failure("repair execute: " + s.ToString());
        return;
      }
      auto summary = sink.Commit();
      if (!summary.ok()) {
        record_failure("repair commit: " + summary.status().ToString());
        return;
      }
    }
  });

  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (int d = 0; d < kDrivers; d++) {
    drivers.emplace_back([&, d] {
      for (int i = 0; i < kIterations; i++) {
        const size_t q = static_cast<size_t>(d + i) % 3;
        auto r = queries[q]->Execute();
        if (!r.ok()) {
          record_failure("driver execute: " + r.status().ToString());
          continue;
        }
        executions++;
        const std::string rendered = Render(r.value());
        if (rendered != baseline[q]) {
          record_failure("driver " + std::to_string(d) + " query " +
                         std::to_string(q) + " diverged from serial baseline");
        }
      }
    });
  }

  for (auto& t : drivers) t.join();
  repairer.join();
  stop_churn = true;
  churn.join();

  EXPECT_EQ(failures.load(), 0) << first_divergence;
  EXPECT_EQ(executions.load(), kDrivers * kIterations);
  // The repair loop really ran: the final committed table is clean.
  auto clean = db.GetTableShared("fixable_clean");
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.value()->row(0)[0].AsString(), "ALICE");
}

TEST(ConcurrencyStressTest, ConcurrentDriversStayExactUnderInjectedFaults) {
  // Concurrent drivers with 5% injected task failures: every execution must
  // retry its way to a result bit-identical to a fault-free serial baseline.
  // tools/ci.sh sweeps this test under tsan with CLEANM_FAULT_SEED set to
  // several values — each seed replays a different deterministic failure
  // schedule through the same concurrent drivers.
  uint64_t seed = 11;
  if (const char* env = std::getenv("CLEANM_FAULT_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  const char* kQuery = R"(
    SELECT * FROM customer c
    FD(c.address, prefix(c.phone))
    FD(c.address, c.nationkey)
    DEDUP(exact, c.address)
  )";

  // Fault-free serial baseline from an identically seeded dataset.
  std::string baseline;
  {
    CleanDB clean_db(FastCleanDBOptions(4));
    clean_db.RegisterTable("customer", DirtyCustomers());
    auto r = clean_db.Execute(kQuery);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    baseline = Render(r.value());
  }

  CleanDBOptions opts = FastCleanDBOptions(4);
  opts.fault.failure_probability = 0.05;
  opts.fault.seed = seed;
  opts.fault.max_task_retries = 8;  // rides out p=0.05 failure streaks
  opts.fault.retry_backoff_ns = 0;
  CleanDB db(opts);
  db.RegisterTable("customer", DirtyCustomers());
  auto pq = db.Prepare(kQuery);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();

  constexpr int kDrivers = 6;
  constexpr int kIterations = 4;
  std::atomic<int> failures{0};
  std::mutex first_mu;
  std::string first_divergence;
  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (int d = 0; d < kDrivers; d++) {
    drivers.emplace_back([&, d] {
      for (int i = 0; i < kIterations; i++) {
        auto r = pq.value().Execute();
        std::string what;
        if (!r.ok()) {
          what = "driver execute: " + r.status().ToString();
        } else if (Render(r.value()) != baseline) {
          what = "driver " + std::to_string(d) + " diverged under faults";
        }
        if (!what.empty()) {
          failures++;
          std::lock_guard<std::mutex> lock(first_mu);
          if (first_divergence.empty()) first_divergence = std::move(what);
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(failures.load(), 0) << first_divergence;
  // The sweep actually exercised the retry path (p=0.05 over hundreds of
  // task attempts makes zero injected failures effectively impossible).
  EXPECT_GT(db.cluster().session_metrics().tasks_retried.load(), 0u);
}

TEST(ConcurrencyStressTest, ReRegistrationDuringExecutionIsAllOrNothing) {
  // Drivers hammer a query whose table flips between two datasets with
  // different violation counts. Snapshot visibility means every single
  // execution must report one of the two serial results — never a blend.
  CleanDB db(FastCleanDBOptions(4));
  Dataset clean = MakeCustomers();
  Dataset dirty = DirtyCustomers();
  const char* query = "SELECT * FROM flip c FD(c.address, c.nationkey)";

  db.RegisterTable("flip", clean);
  auto pq = db.Prepare(query);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  const std::string render_clean = Render(pq.value().Execute().ValueOrDie());
  db.RegisterTable("flip", dirty);
  const std::string render_dirty = Render(pq.value().Execute().ValueOrDie());
  ASSERT_NE(render_clean, render_dirty);

  std::atomic<int> blends{0};
  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    for (int round = 0; !stop; round++) {
      db.RegisterTable("flip", (round % 2 != 0) ? clean : dirty);
    }
  });
  std::vector<std::thread> drivers;
  for (int d = 0; d < 4; d++) {
    drivers.emplace_back([&] {
      for (int i = 0; i < 10; i++) {
        auto r = pq.value().Execute();
        if (!r.ok()) {
          errors++;
          continue;
        }
        const std::string rendered = Render(r.value());
        if (rendered != render_clean && rendered != render_dirty) blends++;
      }
    });
  }
  for (auto& t : drivers) t.join();
  stop = true;
  flipper.join();
  EXPECT_EQ(blends.load(), 0);
  EXPECT_EQ(errors.load(), 0);
}

TEST(ConcurrencyStressTest, MutateVersusUnregisterChurnStaysConsistent) {
  // Mutators hammer AppendRows/DeleteRows while a registrar unregisters and
  // re-registers the same table, and a reader re-executes a prepared query
  // (alternating between the incremental delta path and cold engine runs as
  // the epochs churn). Contracts under test: UnregisterTable drops the
  // table's version and epoch in ONE exclusive critical section (the
  // documented lock order), so a mutation either lands on a live
  // registration — minor ≥ 1, delta in its epoch — or fails with
  // kKeyError; a fresh registration always starts at minor 0 with an empty
  // epoch; and no execution ever sees a torn snapshot.
  CleanDB db(FastCleanDBOptions(4));
  const Schema schema{{"a", ValueType::kInt}, {"b", ValueType::kInt}};
  auto fresh = [&] {
    Dataset t(schema);
    for (int i = 0; i < 8; i++) {
      t.Append({Value(static_cast<int64_t>(i)), Value(static_cast<int64_t>(i))});
    }
    return t;
  };
  db.RegisterTable("churn", fresh());
  auto pq = db.Prepare("SELECT * FROM churn c FD(c.a, c.b)");
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> effective_mutations{0};
  std::mutex first_mu;
  std::string first_failure;
  auto record_failure = [&](const std::string& what) {
    failures++;
    std::lock_guard<std::mutex> lock(first_mu);
    if (first_failure.empty()) first_failure = what;
  };

  // The registrar churns until every mutator has finished its fixed
  // iteration budget, so the unregister/mutate race is actually exercised
  // regardless of scheduling.
  std::atomic<int> mutators_done{0};
  std::thread registrar([&] {
    for (int round = 0; mutators_done.load() < 3; round++) {
      db.UnregisterTable("churn");
      if (round % 2 == 0) db.RegisterTable("churn", fresh());
      // Breathe between rounds: an unthrottled churn loop re-acquires the
      // table lock before the woken mutators are scheduled, starving them
      // indefinitely (the writer queue is not fair).
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    db.RegisterTable("churn", fresh());
    stop = true;
  });

  std::vector<std::thread> mutators;
  for (int m = 0; m < 3; m++) {
    mutators.emplace_back([&, m] {
      const Value tag(static_cast<int64_t>(100 + m));
      for (int i = 0; i < 400; i++) {
        Result<CleanDB::MutationResult> r =
            (i % 2 == 0)
                ? db.AppendRows("churn", {{tag, Value(static_cast<int64_t>(i))}})
                : db.DeleteRows("churn", [&](const Schema&, const Row& row) {
                    return row[0].Equals(tag);
                  });
        if (!r.ok()) {
          // Racing an unregister is the expected failure; anything else
          // (width error, internal) is a bug.
          if (r.status().code() != StatusCode::kKeyError) {
            record_failure("mutation: " + r.status().ToString());
          }
          continue;
        }
        if (r.value().rows_affected > 0) {
          effective_mutations++;
          // An effective mutation on a live registration must have landed
          // in that registration's epoch: minor ≥ 1, generation > 0. A
          // minor of 0 would mean the mutation wrote into a dropped (or
          // not-yet-reset) epoch — the torn state the atomic
          // UnregisterTable exists to prevent.
          if (r.value().minor == 0 || r.value().generation == 0) {
            record_failure("effective mutation with minor 0");
          }
        }
      }
      mutators_done++;
    });
  }

  std::thread reader([&] {
    while (!stop) {
      auto r = pq.value().Execute();
      if (!r.ok() && r.status().code() != StatusCode::kKeyError) {
        record_failure("execute: " + r.status().ToString());
      }
    }
  });

  registrar.join();
  for (auto& t : mutators) t.join();
  reader.join();

  EXPECT_EQ(failures.load(), 0) << first_failure;
  EXPECT_GT(effective_mutations.load(), 0u) << "churn never exercised mutations";
  // The final registration is fresh: minor 0, and the next mutation is the
  // new epoch's first delta, at minor 1.
  EXPECT_EQ(db.TableMinor("churn"), 0u);
  auto last = db.AppendRows("churn", {{Value(int64_t{1}), Value(int64_t{2})}});
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(last.value().minor, 1u);
  // And the table still validates end to end (incremental path included).
  auto final_run = pq.value().Execute();
  ASSERT_TRUE(final_run.ok()) << final_run.status().ToString();
}

TEST(ConcurrencyStressTest, LeasedViewsStayStableWhileMutatorsRewriteInPlace) {
  // Two mutators append, update and delete their own rows. With no lease
  // alive a mutation rewrites the current table version in place; with one
  // alive it copies. Two readers take GetTableShared leases and read every
  // row twice per lease: both reads must match (tsan additionally checks
  // that no in-place rewrite races a leased read). A prepared executor
  // re-validates throughout, on snapshot leases of its own.
  CleanDB db(FastCleanDBOptions(4));
  const Schema schema{{"a", ValueType::kInt}, {"b", ValueType::kInt}};
  Dataset base(schema);
  for (int64_t i = 0; i < 64; i++) base.Append({Value(i), Value(i % 8)});
  db.RegisterTable("cow", base);
  auto pq = db.Prepare("SELECT * FROM cow c FD(c.b, c.a)");
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();

  std::atomic<int> failures{0};
  std::atomic<int> mutators_done{0};
  std::mutex first_mu;
  std::string first_failure;
  auto record_failure = [&](const std::string& what) {
    failures++;
    std::lock_guard<std::mutex> lock(first_mu);
    if (first_failure.empty()) first_failure = what;
  };

  std::vector<std::thread> threads;
  for (int m = 0; m < 2; m++) {
    threads.emplace_back([&, m] {
      const int64_t tag = 1000 * (m + 1);
      auto mine = [tag](const Schema&, const Row& row) {
        return row[0].AsInt() >= tag && row[0].AsInt() < tag + 1000;
      };
      for (int64_t i = 0; i < 150; i++) {
        ValueStruct set_b;
        set_b.emplace_back("b", Value(i % 5));
        for (const Status& st :
             {db.AppendRows("cow", {{Value(tag + i), Value(i % 8)}}).status(),
              db.UpdateRows("cow", mine, std::move(set_b)).status(),
              i % 3 == 2 ? db.DeleteRows("cow", mine).status() : Status::OK()}) {
          if (!st.ok()) record_failure("mutation: " + st.ToString());
        }
      }
      mutators_done++;
    });
  }
  for (int r = 0; r < 2; r++) {
    threads.emplace_back([&] {
      while (mutators_done.load() < 2) {
        std::shared_ptr<const Dataset> lease = db.GetTableShared("cow").ValueOrDie();
        const std::vector<Row> first = lease->rows();
        std::this_thread::yield();  // let a mutator in between the reads
        bool same = first.size() == lease->num_rows();
        for (size_t i = 0; same && i < first.size(); i++) same = first[i] == lease->row(i);
        if (!same) record_failure("a leased view changed between two reads");
      }
    });
  }
  threads.emplace_back([&] {
    while (mutators_done.load() < 2) {
      auto r = pq.value().Execute();
      if (!r.ok()) record_failure("execute: " + r.status().ToString());
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0) << first_failure;

  // The re-validation still agrees with a cold run over the final table.
  auto incremental = pq.value().Execute();
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
  CleanDB cold(FastCleanDBOptions(4));
  cold.RegisterTable("cow", *db.GetTableShared("cow").ValueOrDie());
  auto cold_result = cold.Execute("SELECT * FROM cow c FD(c.b, c.a)");
  ASSERT_TRUE(cold_result.ok()) << cold_result.status().ToString();
  ASSERT_EQ(incremental.value().ops.size(), 1u);
  EXPECT_EQ(incremental.value().ops[0].violations.size(),
            cold_result.value().ops[0].violations.size());
}

TEST(ConcurrencyStressTest, AdmissionBudgetSerializesWhileUnlimitedOverlaps) {
  // A slow scalar UDF samples how many executions are inside the engine at
  // once. Single-node sessions keep intra-execution parallelism at one, so
  // any overlap the gauge sees is *cross-execution* overlap.
  std::atomic<int> in_flight{0};
  std::atomic<int> max_overlap{0};
  auto register_probe = [&](CleanDB& db) {
    ASSERT_TRUE(db.functions()
                    .RegisterScalar(
                        "probe", 1,
                        [&](const std::vector<Value>& args) -> Result<Value> {
                          const int now = ++in_flight;
                          int seen = max_overlap.load();
                          while (now > seen &&
                                 !max_overlap.compare_exchange_weak(seen, now)) {
                          }
                          std::this_thread::sleep_for(std::chrono::milliseconds(1));
                          --in_flight;
                          return args[0];
                        })
                    .ok());
  };
  Dataset rows(Schema{{"name", ValueType::kString}});
  for (int i = 0; i < 24; i++) rows.Append({Value("r" + std::to_string(i))});

  auto hammer = [&](CleanDB& db) {
    auto pq = db.Prepare("SELECT probe(c.name) AS x FROM small c");
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    std::vector<std::thread> drivers;
    std::atomic<int> errors{0};
    for (int d = 0; d < 4; d++) {
      drivers.emplace_back([&] {
        for (int i = 0; i < 3; i++) {
          if (!pq.value().Execute().ok()) errors++;
        }
      });
    }
    for (auto& t : drivers) t.join();
    EXPECT_EQ(errors.load(), 0);
  };

  {
    // No budget: concurrent executions overlap inside the engine.
    CleanDB db(FastCleanDBOptions(/*nodes=*/1));
    db.RegisterTable("small", rows);
    register_probe(db);
    hammer(db);
    EXPECT_GE(max_overlap.load(), 2) << "executions never overlapped";
  }

  in_flight = 0;
  max_overlap = 0;
  {
    // A 1-byte budget makes every execution oversized: each is admitted
    // only when it is alone, i.e. executions are fully serialized.
    CleanDBOptions opts = FastCleanDBOptions(/*nodes=*/1);
    opts.max_inflight_bytes = 1;
    CleanDB db(opts);
    db.RegisterTable("small", rows);
    register_probe(db);
    hammer(db);
    EXPECT_EQ(max_overlap.load(), 1) << "admission failed to serialize";
  }
}

}  // namespace
}  // namespace cleanm
