// Span-recorder correctness under concurrency (the tsan preset runs this):
// per-thread buffers, scope install/restore, recorder isolation across
// concurrent drivers sharing one cluster, and the profiling-off
// guarantee of literally zero recorded spans.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cleaning/prepared_query.h"
#include "cleaning/query_profile.h"
#include "common/trace.h"
#include "support/fixtures.h"

namespace cleanm {
namespace {

TEST(TraceTest, RecorderMergesPerThreadBuffersAfterJoin) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 500;
  TraceRecorder rec;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&rec] {
      TraceRecorderScope install(&rec);
      for (int i = 0; i < kSpansPerThread; i++) {
        TraceScope outer("cluster", "task", nullptr, 0);
        TraceScope inner("io", "page_miss");
        inner.SetRowsIn(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<TraceSpan> spans = rec.Drain();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads * kSpansPerThread * 2));

  // Unique ids, start-ordered, and every inner span parents on an outer
  // span of the same thread.
  std::set<uint64_t> ids;
  std::set<uint64_t> threads_seen;
  for (size_t i = 0; i < spans.size(); i++) {
    EXPECT_TRUE(ids.insert(spans[i].id).second) << "duplicate span id";
    threads_seen.insert(spans[i].thread);
    if (i > 0) {
      EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns);
    }
  }
  EXPECT_EQ(threads_seen.size(), static_cast<size_t>(kThreads));
  std::map<uint64_t, const TraceSpan*> by_id;
  for (const auto& s : spans) by_id[s.id] = &s;
  for (const auto& s : spans) {
    if (std::string(s.name) != "page_miss") continue;
    ASSERT_NE(s.parent, 0u);
    const TraceSpan* parent = by_id.at(s.parent);
    EXPECT_EQ(std::string(parent->name), "task");
    EXPECT_EQ(parent->thread, s.thread);
  }

  // A second drain returns nothing (buffers were consumed).
  EXPECT_TRUE(rec.Drain().empty());
}

TEST(TraceTest, ScopeRestoresPreviousRecorderAndParent) {
  TraceRecorder outer_rec;
  TraceRecorder inner_rec;
  EXPECT_EQ(TraceRecorderScope::Current(), nullptr);
  {
    TraceRecorderScope outer(&outer_rec, 7);
    EXPECT_EQ(TraceRecorderScope::Current(), &outer_rec);
    EXPECT_EQ(TraceRecorderScope::CurrentParent(), 7u);
    {
      TraceRecorderScope inner(&inner_rec, 42);
      EXPECT_EQ(TraceRecorderScope::Current(), &inner_rec);
      EXPECT_EQ(TraceRecorderScope::CurrentParent(), 42u);
    }
    EXPECT_EQ(TraceRecorderScope::Current(), &outer_rec);
    EXPECT_EQ(TraceRecorderScope::CurrentParent(), 7u);
  }
  EXPECT_EQ(TraceRecorderScope::Current(), nullptr);
}

TEST(TraceTest, InactiveScopeRecordsNothing) {
  ASSERT_EQ(TraceRecorderScope::Current(), nullptr);
  const uint64_t before = TraceRecorder::TotalSpansRecorded();
  {
    TraceScope span("operator", "execute");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.id(), 0u);
    span.SetRows(1, 2);
    span.SetNodeRows({3, 4});
  }
  EXPECT_EQ(TraceRecorder::TotalSpansRecorded(), before);
}

// Concurrent drivers sharing one CleanDB (and its worker pools), each
// profiling its own execution: every driver's spans must land in its own
// recorder only. tsan checks the buffer handoff; the assertions check the
// isolation.
TEST(TraceTest, ConcurrentProfiledDriversStayIsolated) {
  CleanDB db(testsupport::FastCleanDBOptions(4));
  db.RegisterTable("customer", testsupport::MakeCustomers());
  auto prepared =
      db.Prepare("SELECT * FROM customer c FD(c.address, prefix(c.phone))");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedQuery& pq = prepared.value();

  constexpr int kDrivers = 4;
  constexpr int kRounds = 5;
  std::vector<std::thread> drivers;
  std::atomic<int> failures{0};
  for (int d = 0; d < kDrivers; d++) {
    drivers.emplace_back([&] {
      for (int r = 0; r < kRounds; r++) {
        ExecOptions opts;
        opts.profile = true;
        auto result = pq.Execute(opts);
        if (!result.ok() || result.value().profile == nullptr ||
            result.value().profile->spans().empty()) {
          failures.fetch_add(1);
          continue;
        }
        // Spans drain start-ordered and id-unique within this execution.
        const auto& spans = result.value().profile->spans();
        std::set<uint64_t> ids;
        for (const auto& s : spans) {
          if (!ids.insert(s.id).second) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace cleanm
