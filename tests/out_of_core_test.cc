// End-to-end tests for out-of-core execution: a session whose buffer pool
// is a fraction of the dataset footprint must produce violations
// bit-identical to the fully in-memory session, spill files must vanish on
// every exit path (including deadline unwinds mid-execution), and the
// partition cache must page entries out and revive them instead of
// recomputing.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "cleaning/prepared_query.h"
#include "datagen/generators.h"
#include "support/fixtures.h"

namespace cleanm {
namespace {

namespace fs = std::filesystem;

constexpr const char* kQuery = R"(
  SELECT * FROM customer c
  FD(c.address, prefix(c.phone))
  FD(c.address, c.nationkey)
  DEDUP(exact, LD, 0.8, c.address)
)";

Dataset DirtyCustomers(size_t base_rows = 400) {
  datagen::CustomerOptions copts;
  copts.base_rows = base_rows;
  copts.duplicate_fraction = 0.08;
  copts.max_duplicates = 4;
  copts.fd_violation_fraction = 0.05;
  return datagen::MakeCustomer(copts);
}

/// Bit-identical comparison: same ops in the same order, every violation
/// Value equal pairwise.
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
}

/// A fresh empty directory under the system temp dir, removed on scope
/// exit, so tests can count the spill files a session leaves in it.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("cleanm_ooc_test_" + tag + "_" +
             std::to_string(reinterpret_cast<uintptr_t>(this)));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }
  size_t FileCount() const {
    size_t n = 0;
    for (const auto& e : fs::directory_iterator(path_)) {
      (void)e;
      n++;
    }
    return n;
  }

 private:
  fs::path path_;
};

/// Session options putting the buffer pool at 1/8 of `footprint` — the
/// acceptance ratio — with small pages and morsels so bench-scale data
/// produces several spill generations.
CleanDBOptions OutOfCoreOptions(uint64_t footprint, const TempDir& dir) {
  CleanDBOptions options = testsupport::FastCleanDBOptions(4);
  options.buffer_pool_bytes = footprint / 8;
  options.spill_dir = dir.path().string();
  options.page_bytes = 1024;
  options.morsel_rows = 128;
  return options;
}

TEST(OutOfCoreTest, EighthOfFootprintBudgetIsBitIdenticalToInMemory) {
  Dataset customers = DirtyCustomers();
  const uint64_t footprint = customers.ByteSize();

  CleanDB in_memory(testsupport::FastCleanDBOptions(4));
  in_memory.RegisterTable("customer", customers);
  QueryResult expected = in_memory.Execute(kQuery).ValueOrDie();
  ASSERT_GT(expected.ops[0].violations.size(), 0u);
  ASSERT_GT(expected.ops[2].violations.size(), 0u);
  EXPECT_EQ(expected.metrics.bytes_spilled, 0u);
  EXPECT_EQ(expected.metrics.buffer_pool_misses, 0u);

  TempDir dir("ab");
  CleanDB out_of_core(OutOfCoreOptions(footprint, dir));
  out_of_core.RegisterTable("customer", customers);
  QueryResult actual = out_of_core.Execute(kQuery).ValueOrDie();
  ExpectResultsBitIdentical(expected, actual);

  // The budget actually bit: breakers spilled, their read-back went through
  // the pool, and the pool churned under its budget.
  EXPECT_GT(actual.metrics.bytes_spilled, 0u);
  EXPECT_GT(actual.metrics.buffer_pool_misses, 0u);
  EXPECT_GT(actual.metrics.pages_evicted, 0u);
  const BufferPool::Stats pool = out_of_core.buffer_pool()->stats();
  EXPECT_LE(pool.resident_bytes,
            std::max<uint64_t>(footprint / 8, uint64_t{1024} * 8));
}

TEST(OutOfCoreTest, PreparedReExecutionStaysBitIdenticalUnderBudget) {
  Dataset customers = DirtyCustomers();
  TempDir dir("prepared");
  CleanDB db(OutOfCoreOptions(customers.ByteSize(), dir));
  db.RegisterTable("customer", customers);
  auto prepared = db.Prepare(kQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  QueryResult first = prepared.value().Execute().ValueOrDie();
  QueryResult second = prepared.value().Execute().ValueOrDie();
  ExpectResultsBitIdentical(first, second);
  EXPECT_GT(first.metrics.bytes_spilled, 0u);
}

TEST(OutOfCoreTest, SpillFilesRemovedOnEveryExitPath) {
  Dataset customers = DirtyCustomers();
  TempDir dir("raii");
  const uint64_t footprint = customers.ByteSize();
  {
    CleanDB db(OutOfCoreOptions(footprint, dir));
    db.RegisterTable("customer", customers);
    // Spill stores are created lazily: no file exists before the first
    // spill.
    const size_t session_files = dir.FileCount();
    ASSERT_EQ(session_files, 0u);

    auto prepared = db.Prepare(kQuery);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

    // Success path: the per-execution spill file is gone on return.
    ASSERT_TRUE(prepared.value().Execute().ok());
    EXPECT_EQ(dir.FileCount(), session_files);

    // Deadline unwind mid-execution (spilling included): still no file
    // left behind — the stack-owned SpillContext's store is
    // remove-on-close on every exit path.
    ExecOptions tight;
    tight.deadline_ns = uint64_t{1};
    Status st = prepared.value().Execute(tight).status();
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
    }
    EXPECT_EQ(dir.FileCount(), session_files);
  }
  // Session teardown removes the session spill file, if one was created;
  // nothing survives.
  EXPECT_EQ(dir.FileCount(), 0u);
}

TEST(OutOfCoreTest, PartitionCachePagesOutAndRevivesInsteadOfRecomputing) {
  Dataset customers = DirtyCustomers();
  Dataset other = DirtyCustomers(350);
  TempDir dir("cache");
  CleanDBOptions options = OutOfCoreOptions(customers.ByteSize(), dir);
  // A cache far smaller than any single entry: every admission evicts the
  // previous tenant, and with the session pager installed, eviction pages
  // entries out instead of discarding them.
  options.partition_cache_bytes = 2048;
  CleanDB db(options);
  db.RegisterTable("customer", customers);
  db.RegisterTable("other", other);
  auto prepared = db.Prepare(kQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  QueryResult first = prepared.value().Execute().ValueOrDie();
  EXPECT_GT(first.cache.page_writebacks, 0u);

  // A query over the second table pushes new entries through the tiny
  // cache, evicting (paging out) the first query's Nest output.
  const char* other_query = R"(
    SELECT * FROM other c
    FD(c.address, prefix(c.phone))
  )";
  ASSERT_TRUE(db.Execute(other_query).ok());

  // Re-executing the first query now finds its Nest entry paged out and
  // revives it from the spill store — identical results, no recompute.
  QueryResult second = prepared.value().Execute().ValueOrDie();
  ExpectResultsBitIdentical(first, second);
  EXPECT_GT(second.cache.page_revivals, 0u);
  EXPECT_EQ(second.cache.nest_misses, 0u);
}

}  // namespace
}  // namespace cleanm
