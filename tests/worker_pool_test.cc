// Tests for the persistent worker pool: thread reuse across operator
// dispatches, concurrent metrics accumulation, exception propagation to the
// driver, destruction with an unwaited epoch in flight, the nested-Run
// inline fallback, and the Cluster's pool leases under concurrent drivers.
// The asan and tsan presets exercise the same binary for lifetime bugs and
// races.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "engine/cluster.h"
#include "engine/worker_pool.h"
#include "support/fixtures.h"

namespace cleanm::engine {
namespace {

using testsupport::IntRows;

TEST(WorkerPoolTest, RunsEveryWorkerExactlyOncePerEpoch) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.Run([&](size_t id) { hits[id]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolTest, ReusesThreadsAcrossManySequentialDispatches) {
  constexpr int kEpochs = 500;
  WorkerPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> thread_ids;
  std::atomic<int> total{0};
  for (int e = 0; e < kEpochs; e++) {
    pool.Run([&](size_t) {
      total++;
      std::lock_guard<std::mutex> lock(mu);
      thread_ids.insert(std::this_thread::get_id());
    });
  }
  EXPECT_EQ(total.load(), kEpochs * 4);
  // Persistent pool: the same 4 threads serve all 500 operator dispatches.
  EXPECT_EQ(thread_ids.size(), 4u);
}

TEST(WorkerPoolTest, ConcurrentMetricsAccumulationIsExact) {
  Cluster cluster(testsupport::FastClusterOptions(8));
  constexpr int kOps = 50;
  constexpr uint64_t kPerNode = 1000;
  for (int op = 0; op < kOps; op++) {
    cluster.RunOnNodes([&](size_t) {
      for (uint64_t i = 0; i < kPerNode; i++) cluster.metrics().comparisons++;
    });
  }
  EXPECT_EQ(cluster.metrics().comparisons.load(), kOps * 8 * kPerNode);
}

TEST(WorkerPoolTest, ExceptionPropagatesToDriverAndPoolSurvives) {
  WorkerPool pool(4);
  EXPECT_THROW(
      pool.Run([](size_t id) {
        if (id == 2) throw std::runtime_error("node 2 failed");
      }),
      std::runtime_error);
  // The pool must remain usable after a failed epoch.
  std::atomic<int> total{0};
  pool.Run([&](size_t) { total++; });
  EXPECT_EQ(total.load(), 4);
}

TEST(WorkerPoolTest, ExceptionMessageIsPreserved) {
  WorkerPool pool(2);
  try {
    pool.Run([](size_t) { throw std::runtime_error("boom"); });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(WorkerPoolTest, DestructionWithDispatchedEpochInFlight) {
  std::atomic<int> completed{0};
  {
    WorkerPool pool(4);
    pool.Dispatch([&](size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      completed++;
    });
    // Destructor runs with the epoch still in flight: it must drain the
    // tasks and join cleanly (asan verifies no use-after-free on captures).
  }
  EXPECT_EQ(completed.load(), 4);
}

TEST(WorkerPoolTest, DispatchWaitPairMatchesRun) {
  WorkerPool pool(3);
  std::atomic<int> total{0};
  pool.Dispatch([&](size_t) { total++; });
  pool.Wait();
  EXPECT_EQ(total.load(), 3);
}

TEST(WorkerPoolTest, NestedRunFallsBackToInlineExecution) {
  WorkerPool pool(3);
  std::atomic<int> inner{0};
  std::atomic<int> outer{0};
  pool.Run([&](size_t id) {
    outer++;
    if (id == 0) {
      EXPECT_TRUE(pool.OnWorkerThread());
      // Would deadlock without the inline fallback: the pool's epoch is
      // still occupied by the enclosing task.
      pool.Run([&](size_t) { inner++; });
    }
  });
  EXPECT_EQ(outer.load(), 3);
  EXPECT_EQ(inner.load(), 3);
  EXPECT_FALSE(pool.OnWorkerThread());
}

TEST(WorkerPoolTest, NestedDispatchPropagatesInnerException) {
  WorkerPool pool(4);
  std::atomic<int> outer_done{0};
  EXPECT_THROW(
      pool.Run([&](size_t id) {
        if (id == 0) {
          // The nested Run executes inline; its exception must surface from
          // the nested Wait into this (outer) task, which the outer epoch
          // then reports at the driver like any task failure.
          pool.Run([](size_t inner) {
            if (inner == 2) throw std::runtime_error("inner boom");
          });
        }
        outer_done++;
      }),
      std::runtime_error);
  // Workers other than the nesting one completed their outer task normally.
  EXPECT_EQ(outer_done.load(), 3);
  // The pool survives a failed nested dispatch.
  std::atomic<int> total{0};
  pool.Run([&](size_t) { total++; });
  EXPECT_EQ(total.load(), 4);
}

TEST(WorkerPoolTest, NestedDispatchRunsAllIdsAndKeepsFirstError) {
  WorkerPool pool(3);
  std::atomic<int> inner_runs{0};
  try {
    pool.Run([&](size_t id) {
      if (id != 0) return;
      pool.Dispatch([&](size_t inner) {
        inner_runs++;
        throw std::runtime_error("inner " + std::to_string(inner));
      });
      pool.Wait();
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    // The first inner failure wins (same contract as the driver path)...
    EXPECT_STREQ(e.what(), "inner 0");
  }
  // ...but an inner throw must not stop the remaining node ids.
  EXPECT_EQ(inner_runs.load(), 3);
}

TEST(WorkerPoolTest, AbandonedNestedErrorDoesNotLeakIntoLaterDispatch) {
  WorkerPool pool(2);
  // A nested Dispatch whose error is never consumed by a Wait...
  pool.Run([&](size_t id) {
    if (id != 0) return;
    pool.Dispatch([](size_t) { throw std::runtime_error("abandoned"); });
    // No Wait: the enclosing task moves on, discarding the nested epoch.
  });
  // ...must not resurface from an unrelated nested Run on the same worker
  // thread later (fn(id) runs on the fixed worker thread `id`, so this
  // nested Run executes on the exact thread that abandoned the error).
  pool.Run([&](size_t id) {
    if (id != 0) return;
    EXPECT_NO_THROW(pool.Run([](size_t) {}));
  });
}

TEST(WorkerPoolTest, ClusterRunOnNodesPropagatesWorkerErrors) {
  Cluster cluster(testsupport::FastClusterOptions(4));
  EXPECT_THROW(cluster.RunOnNodes([](size_t n) {
    if (n == 1) throw std::logic_error("operator failure");
  }),
               std::logic_error);
  // The cluster (and its pool) stay usable for the next operator.
  auto data = cluster.Parallelize(IntRows(16));
  EXPECT_EQ(Cluster::TotalRows(data), 16u);
}

TEST(WorkerPoolTest, StatusExceptionKeepsItsStatusThroughThePool) {
  // The fault layer's typed exceptions must cross the pool's capture/rethrow
  // boundary intact: the session layer downcasts at its boundary to turn
  // kUnavailable / kCancelled into ordinary error Statuses.
  WorkerPool pool(4);
  try {
    pool.Run([](size_t id) {
      if (id == 1) throw NodeUnavailableError(1, "node 1 down");
    });
    FAIL() << "expected NodeUnavailableError";
  } catch (const StatusException& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(e.status().message().find("node 1 down"), std::string::npos);
  }
  // The pool survives the failed epoch.
  std::atomic<int> total{0};
  pool.Run([&](size_t) { total++; });
  EXPECT_EQ(total.load(), 4);
}

TEST(WorkerPoolTest, FailedInjectedAttemptsNeverRunTheTaskBody) {
  // The retry loop lives inside the dispatched task: injection fires before
  // the body, so node 1's two scripted failures leave no side effects and
  // the body runs exactly once per node on the pool substrate.
  ClusterOptions opts = testsupport::FastClusterOptions(4);
  opts.fault.target_node = 1;
  opts.fault.fail_first_attempts = 2;
  opts.fault.max_task_retries = 3;
  opts.fault.retry_backoff_ns = 0;
  Cluster cluster(opts);
  std::vector<std::atomic<int>> body_runs(4);
  cluster.RunOnNodes([&](size_t n) { body_runs[n]++; });
  for (const auto& runs : body_runs) EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(cluster.metrics().tasks_failed.load(), 2u);
  EXPECT_EQ(cluster.metrics().tasks_retried.load(), 2u);
}

TEST(WorkerPoolTest, ConcurrentDriversEachLeaseTheirOwnPool) {
  // Eight drivers each run RunOnNodes and PumpToDriver 50 times. A barrier
  // inside every driver's first task keeps all eight epochs in flight at
  // once, so the cluster must serve them from eight pools; a per-node FIFO
  // of epochs would deadlock on the barrier. One driver's epochs throw on
  // alternate iterations, and only that driver may see the error.
  constexpr size_t kDrivers = 8;
  constexpr int kEpochs = 50;
  constexpr size_t kNodes = 4;
  constexpr size_t kThrower = 5;
  Cluster cluster(testsupport::FastClusterOptions(kNodes));
  const Partitioned source = cluster.Parallelize(IntRows(64));
  const std::vector<Row> expected = cluster.Collect(source);
  MorselSpec spec;
  spec.morsel_rows = 4;
  spec.queue_window = 2;
  const MorselExpand identity = [](size_t, const Row& row, Partition* out) {
    out->push_back(row);
  };

  auto burst = [&] {
    std::mutex barrier_mu;
    std::condition_variable barrier_cv;
    size_t arrived = 0;
    std::atomic<int> bad_epochs{0};
    std::atomic<int> foreign_errors{0};
    std::vector<int> caught(kDrivers, 0);  // element d written by driver d
    std::vector<std::thread> drivers;
    for (size_t d = 0; d < kDrivers; d++) {
      drivers.emplace_back([&, d] {
        const std::string own_error = "driver " + std::to_string(d);
        for (int e = 0; e < kEpochs; e++) {
          const bool throws = d == kThrower && e % 2 == 1;
          std::vector<std::atomic<int>> hits(kNodes);
          try {
            cluster.RunOnNodes([&](size_t n) {
              hits[n]++;
              if (e == 0 && n == 0) {
                std::unique_lock<std::mutex> lock(barrier_mu);
                if (++arrived == kDrivers) barrier_cv.notify_all();
                barrier_cv.wait(lock, [&] { return arrived == kDrivers; });
              }
              if (throws && n == 1) throw std::runtime_error(own_error);
            });
            if (throws) bad_epochs++;
          } catch (const std::runtime_error& err) {
            if (err.what() == own_error) {
              caught[d]++;
            } else {
              foreign_errors++;
            }
          }
          for (const auto& h : hits) {
            if (h.load() != 1) bad_epochs++;
          }
          std::vector<Row> got;
          Status status = cluster.PumpToDriver(
              source, spec, identity, [&](size_t, Partition&& morsel) -> Status {
                for (auto& row : morsel) got.push_back(std::move(row));
                return Status::OK();
              });
          bool same = status.ok() && got.size() == expected.size();
          for (size_t i = 0; same && i < got.size(); i++) {
            same = got[i][0].Equals(expected[i][0]);
          }
          if (!same) bad_epochs++;
        }
      });
    }
    for (auto& t : drivers) t.join();
    EXPECT_EQ(bad_epochs.load(), 0);
    EXPECT_EQ(foreign_errors.load(), 0);
    for (size_t d = 0; d < kDrivers; d++) {
      EXPECT_EQ(caught[d], d == kThrower ? kEpochs / 2 : 0) << "driver " << d;
    }
  };
  burst();
  EXPECT_EQ(cluster.worker_pools(), kDrivers);
  burst();  // every pool is idle again and reused
  EXPECT_EQ(cluster.worker_pools(), kDrivers);
}

}  // namespace
}  // namespace cleanm::engine
