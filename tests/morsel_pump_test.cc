// Regression tests for the morsel pump's abort protocol. The scenario under
// test: the consumer (sink) fails while producers sit blocked on full
// per-node queues — the abort flag and both condition variables must
// interact so every producer wakes, drains, and joins instead of
// deadlocking. The queue window is clamped to one morsel so producers block
// as early as possible. Most cases run the pump on a second worker pool
// while another thread holds the first, so they also check that the pump's
// pool lease goes back only after its epoch drains, on every exit path: a
// lease kept (or returned early) would show as a third pool on the next
// dispatch.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/cluster.h"
#include "support/fixtures.h"

namespace cleanm::engine {
namespace {

using testsupport::FastClusterOptions;
using testsupport::IntRows;

/// Per-row identity expansion: the pump moves rows through unchanged.
MorselExpand Identity() {
  return [](size_t, const Row& row, Partition* out) { out->push_back(row); };
}

/// Tightest pipeline: one row per morsel, one queued morsel per node, so
/// producers hit a full queue after their second row.
MorselSpec TightSpec() {
  MorselSpec spec;
  spec.morsel_rows = 1;
  spec.queue_window = 1;
  return spec;
}

/// Holds the cluster's first worker pool inside a blocked RunOnNodes task
/// on another thread for its lifetime, so dispatches from the test thread
/// run on a second, freshly leased pool.
class FirstPoolHolder {
 public:
  explicit FirstPoolHolder(Cluster& cluster)
      : nodes_(cluster.num_nodes()), thread_([this, &cluster] {
          cluster.RunOnNodes([this](size_t) {
            std::unique_lock<std::mutex> lock(mu_);
            entered_++;
            cv_.notify_all();
            cv_.wait(lock, [&] { return released_; });
          });
        }) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ == nodes_; });
  }

  ~FirstPoolHolder() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  FirstPoolHolder(const FirstPoolHolder&) = delete;
  FirstPoolHolder& operator=(const FirstPoolHolder&) = delete;

 private:
  const size_t nodes_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t entered_ = 0;
  bool released_ = false;
  std::thread thread_;
};

/// The pump returned its lease: with the first pool still held, the next
/// dispatch reuses the second pool instead of creating a third, and every
/// node runs.
void ExpectNextDispatchReusesAPool(Cluster& cluster, size_t pools) {
  EXPECT_EQ(cluster.worker_pools(), pools);
  std::atomic<size_t> nodes_ran{0};
  cluster.RunOnNodes([&](size_t) { nodes_ran++; });
  EXPECT_EQ(nodes_ran.load(), cluster.num_nodes());
  EXPECT_EQ(cluster.worker_pools(), pools);
}

TEST(MorselPumpTest, PoolSinkErrorWithFullQueuesDoesNotDeadlock) {
  Cluster cluster(FastClusterOptions(4));
  auto source = cluster.Parallelize(IntRows(400));
  std::atomic<int> consumed{0};
  Status status = cluster.PumpToDriver(
      source, TightSpec(), Identity(), [&](size_t, Partition&&) -> Status {
        consumed++;
        return Status::Internal("sink failed");
      });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(consumed.load(), 1);
  ExpectNextDispatchReusesAPool(cluster, 1);
}

TEST(MorselPumpTest, SecondPoolSinkErrorWithFullQueuesDoesNotDeadlock) {
  Cluster cluster(FastClusterOptions(4));
  auto source = cluster.Parallelize(IntRows(400));  // ~100 morsels per node
  FirstPoolHolder hold(cluster);
  std::atomic<int> consumed{0};
  Status status = cluster.PumpToDriver(
      source, TightSpec(), Identity(), [&](size_t, Partition&&) -> Status {
        consumed++;
        // Fail immediately: every other producer is (or soon will be)
        // blocked on its full one-morsel queue and must be woken by the
        // abort, not by queue space that will never appear.
        return Status::Internal("sink failed");
      });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(consumed.load(), 1);
  // Reaching this line is the regression assertion: PumpToDriver joined
  // every producer after the abort.
  ExpectNextDispatchReusesAPool(cluster, 2);
}

TEST(MorselPumpTest, SecondPoolThrowingConsumerJoinsProducersBeforeUnwinding) {
  // A *throwing* consumer must not unwind past the pump's stack-local
  // queues while producers still reference them (that is a use-after-scope,
  // not just a leak), nor return the lease with the epoch in flight.
  Cluster cluster(FastClusterOptions(4));
  auto source = cluster.Parallelize(IntRows(400));
  FirstPoolHolder hold(cluster);
  EXPECT_THROW(
      (void)cluster.PumpToDriver(
          source, TightSpec(), Identity(),
          [&](size_t, Partition&&) -> Status {
            throw std::runtime_error("consumer threw");
          }),
      std::runtime_error);
  ExpectNextDispatchReusesAPool(cluster, 2);
}

TEST(MorselPumpTest, SecondPoolProducerErrorSurfacesAfterPartialConsumption) {
  // An expand failure on one producer must mark the node done (so the
  // driver never waits on a dead producer) and rethrow at the call site
  // after every producer joined.
  Cluster cluster(FastClusterOptions(2));
  auto source = cluster.Parallelize(IntRows(100));
  FirstPoolHolder hold(cluster);
  EXPECT_THROW(
      (void)cluster.PumpToDriver(
          source, TightSpec(),
          [](size_t node, const Row& row, Partition* out) {
            if (node == 1) throw std::runtime_error("producer failed");
            out->push_back(row);
          },
          [&](size_t, Partition&&) -> Status { return Status::OK(); }),
      std::runtime_error);
  ExpectNextDispatchReusesAPool(cluster, 2);
}

TEST(MorselPumpTest, SinkErrorWhileRetryInFlightJoinsAllProducers) {
  // The sink fails on its first morsel while node 2 is still inside its
  // fault-retry loop (two failures with a visible backoff). The abort must
  // reach the retrying producer too: its eventual clean attempt observes
  // the stop flag, produces nothing, and joins — on the first pool and on a
  // second one.
  ClusterOptions opts = FastClusterOptions(4);
  opts.fault.target_node = 2;
  // Draws are a pure function of (seed, node, attempt): with this seed,
  // node 2's attempt 0 passes, attempts 1 and 2 fail, and attempt 3
  // passes.
  opts.fault.failure_probability = 0.5;
  opts.fault.seed = 12;
  opts.fault.max_task_retries = 3;
  opts.fault.retry_backoff_ns = 5'000'000;  // keep the retry in flight
  for (const bool second_pool : {false, true}) {
    Cluster cluster(opts);
    auto source = cluster.Parallelize(IntRows(400));
    // One dispatch precedes the pump and takes node 2's clean attempt 0:
    // the pool holder's, or a plain epoch on the first pool. The pump then
    // meets both failures.
    std::unique_ptr<FirstPoolHolder> hold;
    if (second_pool) {
      hold = std::make_unique<FirstPoolHolder>(cluster);
    } else {
      cluster.RunOnNodes([](size_t) {});
    }
    std::atomic<int> consumed{0};
    Status status = cluster.PumpToDriver(
        source, TightSpec(), Identity(), [&](size_t, Partition&&) -> Status {
          consumed++;
          return Status::Internal("sink failed");
        });
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(consumed.load(), 1);
    // Injection fires at attempt start, independent of the abort: node 2's
    // two scripted failures were observed and retried.
    EXPECT_EQ(cluster.metrics().tasks_failed.load(), 2u);
    EXPECT_EQ(cluster.metrics().tasks_retried.load(), 2u);
    // Reaching this line is the regression assertion: PumpToDriver joined
    // the retrying producer as well.
    ExpectNextDispatchReusesAPool(cluster, second_pool ? 2 : 1);
  }
}

TEST(MorselPumpTest, ProducerRetryDeliversIdenticalNodeMajorStream) {
  // A failed attempt flushes nothing (injection precedes the produce loop),
  // so the retry restarts the node's stream from row zero with its queue
  // still empty: delivery under faults is bit-identical to a clean pump.
  auto run = [](const FaultOptions& fault) {
    ClusterOptions opts = FastClusterOptions(3);
    opts.fault = fault;
    Cluster cluster(opts);
    auto source = cluster.Parallelize(IntRows(91));
    std::vector<Row> got;
    Status status = cluster.PumpToDriver(
        source, TightSpec(), Identity(),
        [&](size_t, Partition&& morsel) -> Status {
          for (auto& row : morsel) got.push_back(std::move(row));
          return Status::OK();
        });
    EXPECT_TRUE(status.ok()) << status.ToString();
    return got;
  };
  FaultOptions faulty;
  faulty.target_node = 1;
  faulty.fail_first_attempts = 2;
  faulty.max_task_retries = 3;
  faulty.retry_backoff_ns = 0;
  const std::vector<Row> clean = run(FaultOptions{});
  const std::vector<Row> retried = run(faulty);
  ASSERT_EQ(clean.size(), retried.size());
  for (size_t i = 0; i < clean.size(); i++) {
    EXPECT_TRUE(clean[i][0].Equals(retried[i][0])) << "row " << i;
  }
}

TEST(MorselPumpTest, TightWindowDeliversNodeMajorRowOrderOnEitherPool) {
  // The abort machinery must not perturb the happy path: with the tightest
  // window the pump delivers every row in deterministic node-major order,
  // identical to Collect(), on the first pool and on a second one.
  for (const bool second_pool : {false, true}) {
    Cluster cluster(FastClusterOptions(3));
    auto source = cluster.Parallelize(IntRows(91));
    std::vector<Row> expected;
    for (const auto& part : source) {
      expected.insert(expected.end(), part.begin(), part.end());
    }
    std::unique_ptr<FirstPoolHolder> hold;
    if (second_pool) hold = std::make_unique<FirstPoolHolder>(cluster);
    std::vector<Row> got;
    size_t last_node = 0;
    Status status = cluster.PumpToDriver(
        source, TightSpec(), Identity(),
        [&](size_t node, Partition&& morsel) -> Status {
          EXPECT_GE(node, last_node);  // node-major: never revisits a node
          last_node = node;
          for (auto& row : morsel) got.push_back(std::move(row));
          return Status::OK();
        });
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); i++) {
      EXPECT_TRUE(got[i][0].Equals(expected[i][0])) << "row " << i;
    }
    ExpectNextDispatchReusesAPool(cluster, second_pool ? 2 : 1);
  }
}

}  // namespace
}  // namespace cleanm::engine
