// Tests for the virtual-cluster execution engine: partitioning, shuffles
// and their traffic accounting, the three aggregation strategies and
// their node-local group state (in memory and spilled), and the
// equi-/theta-join algorithms.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/trace.h"
#include "engine/aggregate.h"
#include "engine/cluster.h"
#include "engine/join.h"
#include "storage/pagestore/buffer_pool.h"
#include "storage/pagestore/spill.h"
#include "support/fixtures.h"

namespace cleanm::engine {
namespace {

using testsupport::IntRows;

ClusterOptions FastOptions(size_t nodes = 4) {
  return testsupport::FastClusterOptions(nodes);
}

TEST(ClusterTest, ParallelizeRoundRobinAndCollect) {
  Cluster cluster(FastOptions(4));
  auto data = cluster.Parallelize(IntRows(10));
  ASSERT_EQ(data.size(), 4u);
  EXPECT_EQ(Cluster::TotalRows(data), 10u);
  // Round-robin: node 0 gets 0,4,8; node 1 gets 1,5,9; ...
  EXPECT_EQ(data[0].size(), 3u);
  EXPECT_EQ(data[1].size(), 3u);
  EXPECT_EQ(data[2].size(), 2u);
  auto collected = cluster.Collect(data);
  std::multiset<int64_t> values;
  for (const auto& r : collected) values.insert(r[0].AsInt());
  EXPECT_EQ(values.size(), 10u);
  EXPECT_EQ(*values.begin(), 0);
  EXPECT_EQ(*values.rbegin(), 9);
}

TEST(ClusterTest, ParallelizeOnNodesPlacesRowsLikeParallelize) {
  // Node 1 fails every attempt and is blacklisted during the first
  // dispatch. The placement was taken before it, so that dispatch still
  // places every row, on the plain round-robin node; later partitionings
  // route around node 1, on both paths alike.
  ClusterOptions opts = FastOptions(4);
  opts.fault.target_node = 1;
  opts.fault.fail_first_attempts = 1000000;
  opts.fault.node_blacklist_threshold = 2;
  opts.fault.max_task_retries = 5;
  opts.fault.retry_backoff_ns = 0;
  Cluster cluster(opts);
  constexpr int kRows = 23;
  auto placed_rows = [&cluster] {
    std::vector<std::vector<size_t>> placed(cluster.num_nodes());
    cluster.ParallelizeOnNodes(
        kRows, [&](size_t n, const std::vector<size_t>& rows) { placed[n] = rows; });
    return placed;
  };

  const auto first = placed_rows();
  ASSERT_TRUE(cluster.NodeBlacklisted(1));
  for (size_t n = 0; n < first.size(); n++) {
    std::vector<size_t> round_robin;
    for (size_t i = n; i < kRows; i += first.size()) round_robin.push_back(i);
    EXPECT_EQ(first[n], round_robin) << "node " << n;
  }

  const auto second = placed_rows();
  const Partitioned data = cluster.Parallelize(IntRows(kRows));
  EXPECT_TRUE(second[1].empty());
  for (size_t n = 0; n < second.size(); n++) {
    std::vector<size_t> parallelized;
    for (const auto& row : data[n]) {
      parallelized.push_back(static_cast<size_t>(row[0].AsInt()));
    }
    EXPECT_EQ(second[n], parallelized) << "node " << n;
  }
}

TEST(ClusterTest, Filter) {
  Cluster cluster(FastOptions());
  auto data = cluster.Parallelize(IntRows(100));
  auto evens = cluster.Filter(data, [](const Row& r) {
    return r[0].AsInt() % 2 == 0;
  });
  EXPECT_EQ(Cluster::TotalRows(evens), 50u);
}

TEST(ClusterTest, ShuffleRoutesByFunctionAndMetersTraffic) {
  Cluster cluster(FastOptions(4));
  auto data = cluster.Parallelize(IntRows(40));
  auto routed = cluster.Shuffle(data, [](const Row& r) {
    return static_cast<uint64_t>(r[0].AsInt() % 2);
  });
  // All rows end on nodes 0 and 1.
  EXPECT_EQ(routed[0].size(), 20u);
  EXPECT_EQ(routed[1].size(), 20u);
  EXPECT_EQ(routed[2].size(), 0u);
  EXPECT_EQ(Cluster::TotalRows(routed), 40u);
  EXPECT_GT(cluster.metrics().rows_shuffled.load(), 0u);
  EXPECT_GT(cluster.metrics().bytes_shuffled.load(), 0u);
}

TEST(ClusterTest, ShuffleLocalRowsAreFree) {
  Cluster cluster(FastOptions(2));
  // Rows pre-placed so routing is the identity: no traffic.
  Partitioned data(2);
  data[0].push_back({Value(int64_t{0})});
  data[1].push_back({Value(int64_t{1})});
  auto routed = cluster.Shuffle(data, [](const Row& r) {
    return static_cast<uint64_t>(r[0].AsInt());
  });
  EXPECT_EQ(Cluster::TotalRows(routed), 2u);
  EXPECT_EQ(cluster.metrics().rows_shuffled.load(), 0u);
  EXPECT_EQ(cluster.metrics().bytes_shuffled.load(), 0u);
  // Node-local rows never form a network batch.
  EXPECT_EQ(cluster.metrics().shuffle_batches.load(), 0u);
}

// ---- Shuffle batching ----

/// Runs the canonical mod-2 routing shuffle over `n_rows` on 4 nodes with
/// the given batch size; returns the cluster for metric inspection and the
/// collected result rows via `out`.
std::unique_ptr<Cluster> RunBatchedShuffle(size_t batch_rows, int n_rows,
                                           std::vector<Row>* out) {
  ClusterOptions opts = FastOptions(4);
  opts.shuffle_batch_rows = batch_rows;
  auto cluster = std::make_unique<Cluster>(opts);
  auto data = cluster->Parallelize(IntRows(n_rows));
  auto routed = cluster->Shuffle(data, [](const Row& r) {
    return static_cast<uint64_t>(r[0].AsInt() % 2);
  });
  if (out) *out = cluster->Collect(routed);
  return cluster;
}

TEST(ShuffleBatchingTest, RowAndByteMetricsMatchUnbatchedPath) {
  // Batch size 1 degenerates to the row-at-a-time path; larger batch sizes
  // must leave the row-level accounting bit-identical.
  std::vector<Row> reference_rows;
  auto reference = RunBatchedShuffle(1, 500, &reference_rows);
  const uint64_t ref_rows = reference->metrics().rows_shuffled.load();
  const uint64_t ref_bytes = reference->metrics().bytes_shuffled.load();
  ASSERT_GT(ref_rows, 0u);
  for (size_t batch : {7u, 64u, 1024u}) {
    std::vector<Row> rows;
    auto cluster = RunBatchedShuffle(batch, 500, &rows);
    EXPECT_EQ(cluster->metrics().rows_shuffled.load(), ref_rows) << "batch " << batch;
    EXPECT_EQ(cluster->metrics().bytes_shuffled.load(), ref_bytes) << "batch " << batch;
    // The destination splice preserves source-major row order exactly.
    ASSERT_EQ(rows.size(), reference_rows.size()) << "batch " << batch;
    for (size_t i = 0; i < rows.size(); i++) {
      EXPECT_EQ(rows[i][0].AsInt(), reference_rows[i][0].AsInt())
          << "batch " << batch << " row " << i;
    }
  }
}

TEST(ShuffleBatchingTest, BatchSizeOneCountsOneBatchPerRemoteRow) {
  auto cluster = RunBatchedShuffle(1, 200, nullptr);
  EXPECT_EQ(cluster->metrics().shuffle_batches.load(),
            cluster->metrics().rows_shuffled.load());
}

TEST(ShuffleBatchingTest, BatchLargerThanPartitionFlushesOncePerRemotePair) {
  // Round-robin placement puts values ≡ 0 (mod 4) on node 0 (all even →
  // dst 0, local) and ≡ 1 on node 1 (all odd → dst 1, local); only nodes 2
  // and 3 ship remotely (2 → 0 and 3 → 1). A batch far larger than any
  // partition flushes each remote pair exactly once.
  auto cluster = RunBatchedShuffle(1 << 20, 200, nullptr);
  EXPECT_EQ(cluster->metrics().shuffle_batches.load(), 2u);
}

TEST(ShuffleBatchingTest, IntermediateBatchSizeCountsCeilPerPair) {
  // 200 rows over 4 nodes = 50 per source. The two remote pairs (2 → 0,
  // 3 → 1) each ship all 50 rows; with batch 10 that is ceil(50/10) = 5
  // flushes per pair → 10 batches total.
  auto cluster = RunBatchedShuffle(10, 200, nullptr);
  EXPECT_EQ(cluster->metrics().shuffle_batches.load(), 10u);
}

TEST(ShuffleBatchingTest, BroadcastCountsBatchesPerReceiver) {
  ClusterOptions opts = FastOptions(4);
  opts.shuffle_batch_rows = 3;
  Cluster cluster(opts);
  auto data = cluster.Parallelize(IntRows(8));  // 2 rows per node
  auto all = cluster.BroadcastAll(data);
  EXPECT_EQ(all.size(), 8u);
  EXPECT_EQ(cluster.metrics().rows_shuffled.load(), 24u);
  // Each source ships ceil(2/3) = 1 batch to each of the 3 receivers.
  EXPECT_EQ(cluster.metrics().shuffle_batches.load(), 12u);
}

TEST(ClusterTest, BroadcastReplicatesToAllNodes) {
  Cluster cluster(FastOptions(4));
  auto data = cluster.Parallelize(IntRows(8));
  auto all = cluster.BroadcastAll(data);
  EXPECT_EQ(all.size(), 8u);
  // 8 rows × (4-1) receivers.
  EXPECT_EQ(cluster.metrics().rows_shuffled.load(), 24u);
}

TEST(ClusterTest, BroadcastHandlesMorePartitionsThanNodes) {
  // Input partitioned wider than this cluster: every partition must still
  // reach the broadcast result (regression: the first pooled version only
  // visited sources < num_nodes, leaving empty rows in the output).
  Cluster cluster(FastOptions(2));
  Partitioned wide(5);
  for (int i = 0; i < 5; i++) wide[i].push_back({Value(int64_t{i})});
  auto all = cluster.BroadcastAll(wide);
  ASSERT_EQ(all.size(), 5u);
  std::set<int64_t> values;
  for (const auto& row : all) {
    ASSERT_EQ(row.size(), 1u);
    values.insert(row[0].AsInt());
  }
  EXPECT_EQ(values.size(), 5u);
  EXPECT_EQ(cluster.metrics().rows_shuffled.load(), 5u);  // 5 rows × (2-1)
}

TEST(ClusterTest, LoadReportImbalance) {
  LoadReport balanced{{10, 10, 10, 10}};
  EXPECT_DOUBLE_EQ(balanced.ImbalanceFactor(), 1.0);
  LoadReport skewed{{40, 0, 0, 0}};
  EXPECT_DOUBLE_EQ(skewed.ImbalanceFactor(), 4.0);
  LoadReport empty{};
  EXPECT_DOUBLE_EQ(empty.ImbalanceFactor(), 1.0);
}

// ---- Aggregation ----

/// Groups ints by value % 10 and counts them; returns key → count.
std::map<int64_t, int64_t> RunCountAggregate(AggregateStrategy strategy, int n_rows,
                                             Cluster* cluster) {
  auto data = cluster->Parallelize(IntRows(n_rows));
  AggregateSpec spec;
  spec.key = [](const Row& r) { return Value(r[0].AsInt() % 10); };
  spec.init = [](const Row&) { return Value(int64_t{1}); };
  spec.merge = [](Value a, const Value& b) { return Value(a.AsInt() + b.AsInt()); };
  spec.finalize = [](const Value& key, const Value& acc, Partition* out) {
    out->push_back({key, acc});
  };
  auto result = AggregateByKey(*cluster, data, spec, strategy);
  std::map<int64_t, int64_t> counts;
  for (const auto& row : cluster->Collect(result)) {
    counts[row[0].AsInt()] = row[1].AsInt();
  }
  return counts;
}

class AggregateStrategyTest : public ::testing::TestWithParam<AggregateStrategy> {};

TEST_P(AggregateStrategyTest, CountsAreExact) {
  Cluster cluster(FastOptions());
  auto counts = RunCountAggregate(GetParam(), 1000, &cluster);
  ASSERT_EQ(counts.size(), 10u);
  for (const auto& [key, count] : counts) EXPECT_EQ(count, 100) << "key " << key;
}

TEST_P(AggregateStrategyTest, EmptyInputYieldsNoGroups) {
  Cluster cluster(FastOptions());
  auto counts = RunCountAggregate(GetParam(), 0, &cluster);
  EXPECT_TRUE(counts.empty());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, AggregateStrategyTest,
                         ::testing::Values(AggregateStrategy::kLocalCombine,
                                           AggregateStrategy::kSortShuffle,
                                           AggregateStrategy::kHashShuffle),
                         [](const auto& info) {
                           std::string name = AggregateStrategyName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(AggregateSkewTest, LocalCombineShufflesLessUnderSkew) {
  // Zipf-skewed keys: local combine ships one partial per (node, key);
  // the raw-row strategies ship every row of the hot key.
  ZipfGenerator zipf(50, 1.2, 3);
  std::vector<Row> rows;
  for (int i = 0; i < 20000; i++) {
    rows.push_back({Value(static_cast<int64_t>(zipf.Next()))});
  }
  AggregateSpec spec;
  spec.key = [](const Row& r) { return r[0]; };
  spec.init = [](const Row&) { return Value(int64_t{1}); };
  spec.merge = [](Value a, const Value& b) { return Value(a.AsInt() + b.AsInt()); };
  spec.finalize = [](const Value& key, const Value& acc, Partition* out) {
    out->push_back({key, acc});
  };

  uint64_t traffic[3];
  double imbalance[3];
  const AggregateStrategy strategies[] = {AggregateStrategy::kLocalCombine,
                                          AggregateStrategy::kSortShuffle,
                                          AggregateStrategy::kHashShuffle};
  for (int s = 0; s < 3; s++) {
    Cluster cluster(FastOptions(8));
    auto data = cluster.Parallelize(rows);
    LoadReport load;
    AggregateByKey(cluster, data, spec, strategies[s], &load);
    traffic[s] = cluster.metrics().rows_shuffled.load();
    imbalance[s] = load.ImbalanceFactor();
  }
  // Local combine must ship far fewer rows than either raw-row strategy.
  EXPECT_LT(traffic[0] * 10, traffic[1]);
  EXPECT_LT(traffic[0] * 10, traffic[2]);
  // And its post-shuffle load must be more balanced than sort-shuffle's,
  // which sends the whole hot key range to one node.
  EXPECT_LT(imbalance[0], imbalance[1]);
}

// ---- Node-local group state ----
//
// 40,000 rows over about 11,600 distinct keys (ints and strings, most
// repeated) make every node's group table grow several times.

std::vector<Row> ManyGroupRows() {
  Rng rng(29);
  std::vector<Row> rows;
  rows.reserve(40000);
  for (int64_t i = 0; i < 40000; i++) {
    const auto k = static_cast<int64_t>(rng.Next() % 12000);
    Value key = k % 2 == 0 ? Value(k) : Value("k" + std::to_string(k));
    rows.push_back(Row{std::move(key), Value(i)});
  }
  return rows;
}

/// Per group: [row count, sum of row numbers] as a list accumulator, so a
/// lost, doubled or misrouted row changes the result.
AggregateSpec CountSumSpec() {
  AggregateSpec spec;
  spec.key = [](const Row& r) { return r[0]; };
  spec.init = [](const Row& r) { return Value(ValueList{Value(int64_t{1}), r[1]}); };
  spec.merge = [](Value a, const Value& b) {
    ValueList& acc = a.MutableList();
    acc[0] = Value(acc[0].AsInt() + b.AsList()[0].AsInt());
    acc[1] = Value(acc[1].AsInt() + b.AsList()[1].AsInt());
    return a;
  };
  spec.finalize = [](const Value& key, const Value& acc, Partition* out) {
    out->push_back(Row{key, acc});
  };
  return spec;
}

using GroupCounts = std::map<std::string, std::pair<int64_t, int64_t>>;

GroupCounts ReferenceCounts(const std::vector<Row>& rows) {
  GroupCounts ref;
  for (const auto& row : rows) {
    auto& group = ref[row[0].ToString()];
    group.first++;
    group.second += row[1].AsInt();
  }
  return ref;
}

GroupCounts CountsOf(const Partitioned& out) {
  GroupCounts got;
  for (const auto& partition : out) {
    for (const auto& row : partition) {
      const auto& acc = row[1].AsList();
      EXPECT_TRUE(got.emplace(row[0].ToString(),
                              std::make_pair(acc[0].AsInt(), acc[1].AsInt()))
                      .second)
          << "group " << row[0].ToString() << " emitted twice";
    }
  }
  return got;
}

/// Each node's keys in the order they first occur in the source-major
/// stream of the rows routed to it by key hash.
std::vector<std::vector<std::string>> FirstOccurrenceOrder(const Partitioned& in,
                                                          size_t nodes) {
  std::vector<std::vector<std::string>> order(nodes);
  std::set<std::string> seen;
  for (const auto& partition : in) {
    for (const auto& row : partition) {
      std::string key = row[0].ToString();
      if (seen.insert(key).second) order[row[0].Hash() % nodes].push_back(key);
    }
  }
  return order;
}

void ExpectBitIdentical(const Partitioned& a, const Partitioned& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t n = 0; n < a.size(); n++) {
    ASSERT_EQ(a[n].size(), b[n].size()) << "node " << n;
    for (size_t i = 0; i < a[n].size(); i++) {
      ASSERT_TRUE(a[n][i][0].Equals(b[n][i][0]) && a[n][i][1].Equals(b[n][i][1]))
          << "node " << n << " row " << i;
    }
  }
}

/// Streams `data` through a MorselAggregator in `morsel_rows` morsels, the
/// way the Nest breaker feeds it.
Partitioned RunMorselAggregator(Cluster& cluster, const Partitioned& data,
                                AggregateStrategy strategy, size_t morsel_rows,
                                SpillContext* spill = nullptr,
                                uint64_t* bytes = nullptr) {
  MorselAggregator agg(cluster, CountSumSpec(), strategy, spill);
  MorselSpec spec;
  spec.morsel_rows = morsel_rows;
  cluster.PumpOnWorkers(
      data, spec, [](size_t, const Row& r, Partition* out) { out->push_back(r); },
      [&agg](size_t n, Partition&& morsel) { agg.Accumulate(n, std::move(morsel)); });
  return agg.Finish(nullptr, bytes);
}

class GroupStateTest : public ::testing::TestWithParam<AggregateStrategy> {};

TEST_P(GroupStateTest, ManyKeysMatchReferenceInFirstOccurrenceOrder) {
  const std::vector<Row> rows = ManyGroupRows();
  const GroupCounts ref = ReferenceCounts(rows);
  ASSERT_GE(ref.size(), 10000u);
  ASSERT_LT(ref.size(), rows.size());
  Cluster cluster(FastOptions(4));
  const Partitioned data = cluster.Parallelize(rows);
  const Partitioned out = AggregateByKey(cluster, data, CountSumSpec(), GetParam());
  EXPECT_EQ(CountsOf(out), ref);
  EXPECT_EQ(cluster.metrics().groups_built.load(), ref.size());

  if (GetParam() == AggregateStrategy::kSortShuffle) {
    // Sort-based aggregation emits each node's range in key order.
    for (const auto& partition : out) {
      for (size_t i = 1; i < partition.size(); i++) {
        EXPECT_LT(partition[i - 1][0].Compare(partition[i][0]), 0);
      }
    }
    return;
  }
  // Hash routing: every node emits its keys in first-occurrence order,
  // whether it merged partials (local combine) or folded raw rows.
  const auto order = FirstOccurrenceOrder(data, cluster.num_nodes());
  for (size_t n = 0; n < out.size(); n++) {
    std::vector<std::string> emitted;
    for (const auto& row : out[n]) emitted.push_back(row[0].ToString());
    EXPECT_EQ(emitted, order[n]) << "node " << n;
  }
}

TEST_P(GroupStateTest, MorselAggregatorIsBitIdenticalAtEveryMorselSize) {
  const std::vector<Row> rows = ManyGroupRows();
  Cluster reference_cluster(FastOptions(4));
  const Partitioned data = reference_cluster.Parallelize(rows);
  const Partitioned reference =
      AggregateByKey(reference_cluster, data, CountSumSpec(), GetParam());
  for (size_t morsel_rows : {size_t{1}, size_t{7}, size_t{4096}}) {
    SCOPED_TRACE("morsel_rows " + std::to_string(morsel_rows));
    Cluster cluster(FastOptions(4));
    uint64_t bytes = 0;
    const Partitioned out =
        RunMorselAggregator(cluster, data, GetParam(), morsel_rows, nullptr, &bytes);
    ExpectBitIdentical(out, reference);
    EXPECT_EQ(bytes, PartitionedLogicalBytes(out));
    EXPECT_EQ(cluster.metrics().rows_shuffled.load(),
              reference_cluster.metrics().rows_shuffled.load());
    EXPECT_EQ(cluster.metrics().bytes_shuffled.load(),
              reference_cluster.metrics().bytes_shuffled.load());
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, GroupStateTest,
                         ::testing::Values(AggregateStrategy::kLocalCombine,
                                           AggregateStrategy::kSortShuffle,
                                           AggregateStrategy::kHashShuffle),
                         [](const auto& info) {
                           std::string name = AggregateStrategyName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

class GroupStateSpillTest : public testsupport::TempDirTest {};

TEST_F(GroupStateSpillTest, SpilledGenerationsAreBitIdenticalToResident) {
  const std::vector<Row> rows = ManyGroupRows();
  Cluster resident_cluster(FastOptions(4));
  const Partitioned data = resident_cluster.Parallelize(rows);
  const Partitioned resident = RunMorselAggregator(
      resident_cluster, data, AggregateStrategy::kLocalCombine, 256);

  // 64 KiB over 4 nodes: a node spills once its groups pass ~16 KiB, far
  // below its ~3,000 groups, so every node spills generation after
  // generation.
  BufferPool pool(/*byte_budget=*/64 * 1024);
  SpillContext spill(dir_.string(), /*page_bytes=*/4096, /*budget_bytes=*/64 * 1024,
                     &pool);
  Cluster cluster(FastOptions(4));
  TraceRecorder rec;
  Partitioned spilled;
  {
    TraceRecorderScope install(&rec);
    spilled = RunMorselAggregator(cluster, data, AggregateStrategy::kLocalCombine, 256,
                                  &spill);
  }
  size_t generations = 0;
  for (const auto& span : rec.Drain()) {
    if (std::string(span.name) == "spill_write") generations++;
  }
  EXPECT_GE(generations, 4 * cluster.num_nodes());
  EXPECT_GT(spill.bytes_spilled(), 0u);
  ExpectBitIdentical(spilled, resident);
  EXPECT_EQ(CountsOf(spilled), ReferenceCounts(rows));
}

TEST(AggregateAccTest, DistinctAccKeepsSetSemantics) {
  Value acc(ValueList{Value("x")});
  acc = DistinctAccMerge(std::move(acc), Value(ValueList{Value("y")}));
  acc = DistinctAccMerge(std::move(acc), Value(ValueList{Value("x")}));
  ASSERT_EQ(acc.AsList().size(), 2u);
}

// ---- Joins ----

TEST(EquiJoinTest, MatchesOnKey) {
  Cluster cluster(FastOptions());
  std::vector<Row> left, right;
  for (int i = 0; i < 20; i++) left.push_back({Value(int64_t{i % 5}), Value("L" + std::to_string(i))});
  for (int i = 0; i < 5; i++) right.push_back({Value(int64_t{i}), Value("R" + std::to_string(i))});
  auto l = cluster.Parallelize(left);
  auto r = cluster.Parallelize(right);
  auto joined = HashEquiJoin(
      cluster, l, r, [](const Row& x) { return x[0]; }, [](const Row& x) { return x[0]; },
      [](const Row& a, const Row& b) {
        return Row{a[0], a[1], b[1]};
      });
  EXPECT_EQ(Cluster::TotalRows(joined), 20u);
  for (const auto& row : cluster.Collect(joined)) {
    EXPECT_EQ(row[2].AsString(), "R" + std::to_string(row[0].AsInt()));
  }
}

TEST(LeftOuterJoinTest, EmitsUnmatchedLeftRows) {
  Cluster cluster(FastOptions());
  std::vector<Row> left = {{Value(int64_t{1})}, {Value(int64_t{2})}, {Value(int64_t{3})}};
  std::vector<Row> right = {{Value(int64_t{2})}};
  auto joined = HashLeftOuterJoin(
      cluster, cluster.Parallelize(left), cluster.Parallelize(right),
      [](const Row& x) { return x[0]; }, [](const Row& x) { return x[0]; },
      [](const Row& a, const Row&) {
        return Row{a[0], Value(true)};
      },
      [](const Row& a) {
        return Row{a[0], Value(false)};
      });
  std::map<int64_t, bool> matched;
  for (const auto& row : cluster.Collect(joined)) matched[row[0].AsInt()] = row[1].AsBool();
  ASSERT_EQ(matched.size(), 3u);
  EXPECT_FALSE(matched[1]);
  EXPECT_TRUE(matched[2]);
  EXPECT_FALSE(matched[3]);
}

/// All theta-join algorithms must produce identical result multisets.
class ThetaJoinAlgoTest : public ::testing::TestWithParam<ThetaJoinAlgo> {};

TEST_P(ThetaJoinAlgoTest, InequalityJoinCorrectness) {
  Cluster cluster(FastOptions());
  std::vector<Row> rows;
  Rng rng(11);
  for (int i = 0; i < 60; i++) {
    rows.push_back({Value(static_cast<int64_t>(rng.Uniform(100))),
                    Value(static_cast<double>(rng.Uniform(50)) / 10.0)});
  }
  auto pred = [](const Row& a, const Row& b) {
    return a[0].AsInt() < b[0].AsInt() && a[1].AsDouble() > b[1].AsDouble();
  };
  auto emit = [](const Row& a, const Row& b) {
    return Row{a[0], b[0], a[1], b[1]};
  };
  // Reference: sequential nested loop.
  std::multiset<std::string> expected;
  for (const auto& a : rows) {
    for (const auto& b : rows) {
      if (pred(a, b)) expected.insert(emit(a, b)[0].ToString() + "|" + emit(a, b)[1].ToString() + "|" + emit(a, b)[2].ToString() + "|" + emit(a, b)[3].ToString());
    }
  }
  ThetaJoinOptions options;
  options.algo = GetParam();
  auto data = cluster.Parallelize(rows);
  auto result = ThetaJoin(cluster, data, data, pred, emit, options);
  std::multiset<std::string> actual;
  for (const auto& r : cluster.Collect(result)) {
    actual.insert(r[0].ToString() + "|" + r[1].ToString() + "|" + r[2].ToString() + "|" + r[3].ToString());
  }
  EXPECT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, ThetaJoinAlgoTest,
                         ::testing::Values(ThetaJoinAlgo::kCartesian,
                                           ThetaJoinAlgo::kMinMax,
                                           ThetaJoinAlgo::kMatrix),
                         [](const auto& info) {
                           return std::string(ThetaJoinAlgoName(info.param));
                         });

TEST(ThetaJoinTest, MatrixBalancesComparisons) {
  // With N nodes and equal inputs, every node should evaluate roughly
  // |L||S|/N comparisons; verify total equals |L||S| exactly.
  Cluster cluster(FastOptions(4));
  auto data = cluster.Parallelize(IntRows(40));
  ThetaJoinOptions options;
  options.algo = ThetaJoinAlgo::kMatrix;
  ThetaJoin(
      cluster, data, data, [](const Row&, const Row&) { return false; },
      [](const Row& a, const Row&) { return a; }, options);
  EXPECT_EQ(cluster.metrics().comparisons.load(), 1600u);
}

TEST(ThetaJoinTest, MinMaxPrunesDisjointRanges) {
  // Left partitions hold small values, right partitions hold large ones;
  // with an aligned bound function and pred a < b ... arrange data so some
  // chunk pairs are prunable with the reversed predicate a > b.
  Cluster cluster(FastOptions(2));
  Partitioned left(2), right(2);
  // Node 0: left values 0..9; node 1: left values 10..19.
  for (int i = 0; i < 10; i++) left[0].push_back({Value(int64_t{i})});
  for (int i = 10; i < 20; i++) left[1].push_back({Value(int64_t{i})});
  // Right: all values 100+ → pred a > b never holds; ranges disjoint.
  for (int i = 100; i < 110; i++) right[0].push_back({Value(int64_t{i})});
  for (int i = 110; i < 120; i++) right[1].push_back({Value(int64_t{i})});

  ThetaJoinOptions options;
  options.algo = ThetaJoinAlgo::kMinMax;
  options.left_bound = [](const Row& r) { return r[0]; };
  options.right_bound = [](const Row& r) { return r[0]; };
  // pred: a > b. A left chunk can only match a right chunk if
  // left_max > right_min.
  options.ranges_may_match = [](const Value&, const Value& lmax, const Value& rmin,
                                const Value&) { return lmax.Compare(rmin) > 0; };
  auto result = ThetaJoin(
      cluster, left, right,
      [](const Row& a, const Row& b) { return a[0].AsInt() > b[0].AsInt(); },
      [](const Row& a, const Row&) { return a; }, options);
  EXPECT_EQ(Cluster::TotalRows(result), 0u);
  // Everything pruned: zero comparisons.
  EXPECT_EQ(cluster.metrics().comparisons.load(), 0u);
}

TEST(ThetaJoinTest, EmptyInputs) {
  Cluster cluster(FastOptions());
  Partitioned empty(cluster.num_nodes());
  auto data = cluster.Parallelize(IntRows(5));
  for (auto algo : {ThetaJoinAlgo::kCartesian, ThetaJoinAlgo::kMinMax, ThetaJoinAlgo::kMatrix}) {
    ThetaJoinOptions options;
    options.algo = algo;
    auto r1 = ThetaJoin(
        cluster, empty, data, [](const Row&, const Row&) { return true; },
        [](const Row& a, const Row&) { return a; }, options);
    EXPECT_EQ(Cluster::TotalRows(r1), 0u) << ThetaJoinAlgoName(algo);
    auto r2 = ThetaJoin(
        cluster, data, empty, [](const Row&, const Row&) { return true; },
        [](const Row& a, const Row&) { return a; }, options);
    EXPECT_EQ(Cluster::TotalRows(r2), 0u) << ThetaJoinAlgoName(algo);
  }
}

}  // namespace
}  // namespace cleanm::engine
