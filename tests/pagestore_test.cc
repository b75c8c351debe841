// Tests for the out-of-core storage subsystem (storage/pagestore/): the
// bit-faithful row codec, the checksummed single-file page store (including
// positioned corruption errors and remove-on-close), the byte-budget buffer
// pool (LRU eviction, pin-survives-eviction, stats, concurrent pin stress —
// run under tsan in CI), and spill round trips across multi-page chunks.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "storage/pagestore/buffer_pool.h"
#include "storage/pagestore/row_codec.h"
#include "storage/pagestore/single_file_store.h"
#include "storage/pagestore/spill.h"
#include "support/fixtures.h"

namespace cleanm {
namespace {

namespace fs = std::filesystem;

/// A fresh empty directory under the system temp dir, removed on scope
/// exit, so tests can assert "no files left behind".
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("cleanm_pagestore_test_" + tag + "_" +
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

Row MixedRow() {
  Value nested = Value(ValueList{Value(int64_t{7}), Value("x,y\n\"z\""),
                                 Value::Null()});
  ValueStruct st;
  st.emplace_back("first", Value(0.1));
  st.emplace_back("second", Value(int64_t{-3}));
  return Row{Value(int64_t{1}),      Value(1.0),
             Value("rue de lausanne 1"), Value::Null(),
             Value(std::nan("")),    nested,
             Value(std::move(st))};
}

// ---- Row codec ----

TEST(RowCodecTest, RoundTripIsBitFaithful) {
  const Row row = MixedRow();
  std::string buf;
  EncodeRow(row, &buf);
  size_t pos = 0;
  Row decoded = DecodeRow(buf, &pos).ValueOrDie();
  ASSERT_EQ(pos, buf.size());
  ASSERT_EQ(decoded.size(), row.size());
  // int 1 stays int (never becomes double 1.0) and vice versa.
  EXPECT_EQ(decoded[0].type(), ValueType::kInt);
  EXPECT_EQ(decoded[1].type(), ValueType::kDouble);
  EXPECT_TRUE(std::isnan(decoded[4].AsDouble()));
  for (size_t i = 0; i < row.size(); i++) {
    if (i == 4) continue;  // NaN != NaN
    EXPECT_TRUE(decoded[i].Equals(row[i])) << "value " << i;
  }
  // Re-encoding the decoded row reproduces the exact bytes (IEEE bits,
  // struct field order, everything).
  std::string buf2;
  EncodeRow(decoded, &buf2);
  EXPECT_EQ(buf, buf2);
}

TEST(RowCodecTest, TruncatedPayloadIsIOErrorNotUB) {
  std::string encoded;
  EncodeRow(MixedRow(), &encoded);
  EncodeRow(MixedRow(), &encoded);
  std::string buf;
  EncodeRowChunk(2, encoded, &buf);
  for (size_t cut : {buf.size() - 1, buf.size() / 2, size_t{3}}) {
    std::vector<Row> out;
    Status st = DecodeRowChunk(buf.substr(0, cut), &out);
    ASSERT_FALSE(st.ok()) << "cut at " << cut;
    EXPECT_EQ(st.code(), StatusCode::kIOError);
  }
}

// ---- Single-file store ----

TEST(SingleFileStoreTest, AppendReadRoundTripAndOversizedPages) {
  TempDir dir("store");
  auto store =
      SingleFileStore::CreateTemp(dir.path().string(), "t", /*page_bytes=*/128)
          .MoveValue();
  const std::string small(40, 'a');
  const std::string exact(128 - 32, 'b');         // fills one slot's payload
  const std::string oversized(5 * 128 + 17, 'c');  // spans multiple slots
  const uint64_t p0 = store->AppendPage(small).ValueOrDie();
  const uint64_t p1 = store->AppendPage(exact).ValueOrDie();
  const uint64_t p2 = store->AppendPage(oversized).ValueOrDie();
  EXPECT_EQ(store->ReadPage(p0).ValueOrDie(), small);
  EXPECT_EQ(store->ReadPage(p1).ValueOrDie(), exact);
  EXPECT_EQ(store->ReadPage(p2).ValueOrDie(), oversized);
  EXPECT_GT(store->pages_allocated(), 3u);  // the oversized page spans slots
  EXPECT_GT(store->bytes_written(), oversized.size());
}

TEST(SingleFileStoreTest, RemoveOnCloseUnlinksTheFile) {
  TempDir dir("raii");
  std::string path;
  {
    auto store =
        SingleFileStore::CreateTemp(dir.path().string(), "t", 128).MoveValue();
    path = store->path();
    ASSERT_TRUE(store->AppendPage("payload").ok());
    EXPECT_TRUE(fs::exists(path));
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(dir.FileCount(), 0u);
}

TEST(SingleFileStoreTest, CorruptedPageReadIsPositionedIOError) {
  TempDir dir("corrupt");
  const std::string path = (dir.path() / "pages.bin").string();
  auto store = SingleFileStore::Create(path, /*page_bytes=*/128,
                                       /*remove_on_close=*/true)
                   .MoveValue();
  const uint64_t pid = store->AppendPage(std::string(64, 'p')).ValueOrDie();

  auto flip_byte = [&](std::streamoff offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(offset);
    char c = 0;
    f.read(&c, 1);
    c ^= 0x5a;
    f.seekp(offset);
    f.write(&c, 1);
  };

  // Flip a payload byte: the checksum catches it, and the error names the
  // file, the page, and the byte offset.
  flip_byte(40);  // past the 32-byte header, inside the payload
  Status bad = store->ReadPage(pid).status();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kIOError);
  EXPECT_NE(bad.message().find(path), std::string::npos) << bad.message();
  EXPECT_NE(bad.message().find("page 0"), std::string::npos) << bad.message();
  EXPECT_NE(bad.message().find("byte offset"), std::string::npos) << bad.message();
  EXPECT_NE(bad.message().find("checksum mismatch"), std::string::npos)
      << bad.message();
  flip_byte(40);  // restore
  ASSERT_TRUE(store->ReadPage(pid).ok());

  // Flip a header magic byte: detected before the checksum even runs.
  flip_byte(0);
  Status bad_magic = store->ReadPage(pid).status();
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.code(), StatusCode::kIOError);
  EXPECT_NE(bad_magic.message().find("magic"), std::string::npos)
      << bad_magic.message();
}

// ---- Buffer pool ----

TEST(BufferPoolTest, LruEvictionKeepsResidencyUnderBudget) {
  TempDir dir("pool");
  auto store =
      SingleFileStore::CreateTemp(dir.path().string(), "t", 128).MoveValue();
  std::vector<uint64_t> pages;
  for (int i = 0; i < 4; i++) {
    pages.push_back(
        store->AppendPage(std::string(80, static_cast<char>('a' + i)))
            .ValueOrDie());
  }

  BufferPool pool(/*byte_budget=*/2 * 80);
  EXPECT_EQ(pool.Pin(*store, pages[0]).ValueOrDie()->front(), 'a');  // miss
  EXPECT_EQ(pool.Pin(*store, pages[1]).ValueOrDie()->front(), 'b');  // miss
  EXPECT_EQ(pool.Pin(*store, pages[0]).ValueOrDie()->front(), 'a');  // hit
  // Third distinct page exceeds the two-page budget → LRU (page 1) evicts.
  EXPECT_EQ(pool.Pin(*store, pages[2]).ValueOrDie()->front(), 'c');  // miss
  // Page 1 is gone (miss again); page 0 was kept (recently used).
  EXPECT_EQ(pool.Pin(*store, pages[1]).ValueOrDie()->front(), 'b');  // miss
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_GE(s.evictions, 1u);
  EXPECT_LE(s.resident_bytes, pool.byte_budget());
  EXPECT_GE(s.peak_resident_bytes, s.resident_bytes);
}

TEST(BufferPoolTest, PinSurvivesEvictionAndOversizedPayloadIsAdmitted) {
  TempDir dir("pins");
  auto store =
      SingleFileStore::CreateTemp(dir.path().string(), "t", 128).MoveValue();
  const std::string big(400, 'B');  // larger than the whole budget
  const uint64_t big_id = store->AppendPage(big).ValueOrDie();
  const uint64_t small_id = store->AppendPage(std::string(50, 's')).ValueOrDie();

  BufferPool pool(/*byte_budget=*/100);
  // An oversized payload is admitted alone rather than rejected.
  PagePin big_pin = pool.Pin(*store, big_id).ValueOrDie();
  EXPECT_EQ(*big_pin, big);
  // Pinning another page evicts the oversized frame from the *pool*, but
  // the lease keeps the bytes alive and intact.
  PagePin small_pin = pool.Pin(*store, small_id).ValueOrDie();
  EXPECT_EQ(pool.stats().resident_bytes, 50u);
  EXPECT_EQ(*big_pin, big);  // unaffected by the eviction
}

TEST(BufferPoolTest, ConcurrentPinStressStaysConsistent) {
  // Run under tsan in CI: many threads pinning overlapping pages through a
  // pool small enough to churn evictions constantly.
  TempDir dir("stress");
  auto store =
      SingleFileStore::CreateTemp(dir.path().string(), "t", 256).MoveValue();
  constexpr int kPages = 16;
  constexpr size_t kPayload = 200;
  std::vector<uint64_t> pages;
  for (int i = 0; i < kPages; i++) {
    pages.push_back(
        store->AppendPage(std::string(kPayload, static_cast<char>('A' + i)))
            .ValueOrDie());
  }

  BufferPool pool(/*byte_budget=*/3 * kPayload);
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      uint64_t state = 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(t);
      for (int i = 0; i < kItersPerThread; i++) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const int idx = static_cast<int>((state >> 33) % kPages);
        Result<PagePin> pin = pool.Pin(*store, pages[idx]);
        if (!pin.ok() || pin.value()->size() != kPayload ||
            pin.value()->front() != static_cast<char>('A' + idx)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<uint64_t>(kThreads) * kItersPerThread);
  EXPECT_LE(s.resident_bytes, pool.byte_budget());
}

// ---- Spill context ----

TEST(SpillContextTest, SpillReadBackRoundTripsAndCleansUp) {
  TempDir dir("spill");
  BufferPool pool(/*byte_budget=*/1024);
  std::vector<Row> rows;
  for (int i = 0; i < 300; i++) {
    rows.push_back(Row{Value(int64_t{i}), Value("row-" + std::to_string(i))});
  }
  {
    SpillContext spill(dir.path().string(), /*page_bytes=*/256,
                       /*budget_bytes=*/1024, &pool);
    EXPECT_TRUE(spill.enabled());
    EXPECT_FALSE(spill.ShouldSpill(100, 1));
    EXPECT_TRUE(spill.ShouldSpill(600, 2));
    EXPECT_EQ(dir.FileCount(), 0u);  // store is lazy: no file before a spill

    auto spans = spill.SpillRows(rows).ValueOrDie();
    EXPECT_GT(spans.size(), 1u);
    EXPECT_GT(spill.bytes_spilled(), 0u);
    EXPECT_EQ(dir.FileCount(), 1u);

    std::vector<Row> back;
    ASSERT_TRUE(spill.ReadBack(spans, &back).ok());
    ASSERT_EQ(back.size(), rows.size());
    for (size_t i = 0; i < rows.size(); i++) {
      EXPECT_TRUE(back[i][0].Equals(rows[i][0]));
      EXPECT_TRUE(back[i][1].Equals(rows[i][1]));
    }
  }
  // Destruction removes the spill file — the RAII exit-path guarantee.
  EXPECT_EQ(dir.FileCount(), 0u);

  // Every flat value kind (nulls, ints, doubles, strings carrying the
  // format escapers' characters) crosses multi-page chunks and reads back
  // in spill order while the pool evicts under its budget.
  Rng rng(7);
  const Dataset data = testsupport::RandomFlatDataset(&rng, 200);
  BufferPool churn(/*byte_budget=*/512);
  {
    SpillContext spill(dir.path().string(), /*page_bytes=*/256,
                       /*budget_bytes=*/512, &churn);
    auto spans = spill.SpillRows(data.rows()).ValueOrDie();
    EXPECT_GT(spans.size(), 1u);
    std::vector<Row> back;
    ASSERT_TRUE(spill.ReadBack(spans, &back).ok());
    EXPECT_GT(churn.stats().evictions, 0u);
    ASSERT_EQ(back.size(), data.num_rows());
    for (size_t i = 0; i < back.size(); i++) {
      ASSERT_EQ(back[i].size(), data.rows()[i].size());
      for (size_t c = 0; c < back[i].size(); c++) {
        EXPECT_TRUE(back[i][c].Equals(data.rows()[i][c]))
            << "row " << i << " col " << c;
      }
    }
  }
  EXPECT_EQ(dir.FileCount(), 0u);
}

TEST(SpillContextTest, ConcurrentSpillersReadBackTheirOwnRows) {
  // Threads spill into one context at once: encoding runs outside the
  // context lock, so each thread's spans must still address exactly its
  // own rows, in order, and the byte count must be the sum of what each
  // thread spills alone.
  constexpr int kThreads = 6;
  constexpr int kCallsPerThread = 20;
  auto rows_of = [](int thread, int call) {
    std::vector<Row> rows;
    for (int i = 0; i < 40 + call; i++) {
      const int tag = thread * 100000 + call * 1000 + i;
      rows.push_back(Row{Value(int64_t{thread}), Value(int64_t{call}),
                         Value("payload-" + std::to_string(tag))});
    }
    return rows;
  };
  TempDir dir("spill_concurrent");
  BufferPool pool(/*byte_budget=*/4096);

  uint64_t alone_bytes = 0;
  for (int t = 0; t < kThreads; t++) {
    SpillContext alone(dir.path().string(), /*page_bytes=*/512, /*budget_bytes=*/1024,
                       &pool);
    for (int c = 0; c < kCallsPerThread; c++) {
      ASSERT_TRUE(alone.SpillRows(rows_of(t, c)).ok());
    }
    alone_bytes += alone.bytes_spilled();
  }

  SpillContext spill(dir.path().string(), /*page_bytes=*/512, /*budget_bytes=*/1024,
                     &pool);
  std::vector<std::vector<std::vector<PageSpan>>> spans(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int c = 0; c < kCallsPerThread; c++) {
        Result<std::vector<PageSpan>> written = spill.SpillRows(rows_of(t, c));
        if (written.ok()) spans[t].push_back(written.MoveValue());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(spill.bytes_spilled(), alone_bytes);

  for (int t = 0; t < kThreads; t++) {
    ASSERT_EQ(spans[t].size(), static_cast<size_t>(kCallsPerThread)) << "thread " << t;
    for (int c = 0; c < kCallsPerThread; c++) {
      const std::vector<Row> expected = rows_of(t, c);
      std::vector<Row> back;
      ASSERT_TRUE(spill.ReadBack(spans[t][c], &back).ok());
      ASSERT_EQ(back.size(), expected.size()) << "thread " << t << " call " << c;
      for (size_t i = 0; i < back.size(); i++) {
        ASSERT_EQ(back[i].size(), 3u);
        for (size_t col = 0; col < 3; col++) {
          EXPECT_TRUE(back[i][col].Equals(expected[i][col]))
              << "thread " << t << " call " << c << " row " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cleanm
