// Microbenchmark for the primitives underneath every operator: RunOnNodes
// dispatch latency on the persistent worker pool against a spawn-per-call
// reference (spawning and joining one thread per node around the same
// closure), shuffle throughput as a function of the batch size, and the
// Levenshtein kernel behind similar() (bit-parallel against the two-row
// DP) on two pools: author names, which fit one 64-bit word, and rendered
// customer records, which take the blocked kernel. Under --out it writes
// the machine-readable sections of BENCH_cluster.json, so the perf
// trajectory of the substrate is tracked across changes.
//
//   bench_cluster_primitives [--smoke] [--check] [--out <path>]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algebra/algebra_eval.h"
#include "common/timer.h"
#include "datagen/generators.h"
#include "engine/cluster.h"
#include "harness.h"
#include "text/similarity.h"

namespace cleanm::engine {
namespace {

constexpr size_t kNodes = 8;

ClusterOptions PureComputeOptions(size_t batch_rows = 1024) {
  ClusterOptions opts;
  opts.num_nodes = kNodes;
  opts.shuffle_ns_per_byte = 0;  // pure dispatch/compute cost
  opts.shuffle_batch_rows = batch_rows;
  return opts;
}

/// Average ns per call of `run_on_nodes(task)` for a near-empty task, after
/// a warm-up (pool thread startup, first-touch of scheduler state).
template <typename RunOnNodes>
double MeasureDispatchNs(int iterations, RunOnNodes&& run_on_nodes) {
  std::atomic<uint64_t> sink{0};
  const auto task = [&](size_t n) { sink += n; };
  for (int i = 0; i < 10; i++) run_on_nodes(task);
  Timer timer;
  for (int i = 0; i < iterations; i++) run_on_nodes(task);
  const double total_ns = timer.ElapsedSeconds() * 1e9;
  if (sink.load() == ~uint64_t{0}) std::printf("unreachable\n");
  return total_ns / iterations;
}

/// The spawn-per-call reference: one fresh thread per node per call.
template <typename Task>
void SpawnAndJoin(const Task& task) {
  std::vector<std::thread> threads;
  threads.reserve(kNodes);
  for (size_t n = 0; n < kNodes; n++) threads.emplace_back(task, n);
  for (auto& t : threads) t.join();
}

std::vector<Row> MakeShuffleRows(size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; i++) {
    rows.push_back({Value(static_cast<int64_t>(i)),
                    Value("payload-" + std::to_string(i % 1000))});
  }
  return rows;
}

/// Shuffle throughput in rows/sec for one batch size (all-remote routing:
/// every row shifts one node over, the worst case for batching to help).
double MeasureShuffleRowsPerSec(size_t batch_rows, size_t n_rows, int repeats) {
  Cluster cluster(PureComputeOptions(batch_rows));
  auto data = cluster.Parallelize(MakeShuffleRows(n_rows));
  auto route = [](const Row& r) {
    return static_cast<uint64_t>(r[0].AsInt()) % kNodes + 1;
  };
  (void)cluster.Shuffle(data, route);  // warm-up
  Timer timer;
  for (int i = 0; i < repeats; i++) (void)cluster.Shuffle(data, route);
  const double seconds = timer.ElapsedSeconds();
  return static_cast<double>(n_rows) * repeats / seconds;
}

/// The distinct author names of a fixed DBLP-style dataset: a pool of 180
/// clean names plus the noisy copies of some of their occurrences.
std::vector<std::string> KernelNamePool() {
  datagen::DblpOptions options;
  options.rows = 450;
  options.author_pool = 180;
  options.duplicate_fraction = 0;
  options.seed = 1;
  const Dataset dblp = datagen::MakeDblp(options);
  const size_t column = dblp.schema().IndexOf("author").ValueOrDie();
  std::set<std::string> names;
  for (const auto& row : dblp.rows()) {
    for (const auto& name : row[column].AsList()) names.insert(name.AsString());
  }
  return {names.begin(), names.end()};
}

/// The rendered rows of a fixed customer table: the strings DEDUP's
/// similar(LD, to_string(p1), to_string(p2), θ) compares. All are longer
/// than 64 chars, so every pair takes the blocked kernel.
std::vector<std::string> KernelRecordPool() {
  datagen::CustomerOptions options;
  options.base_rows = 150;
  options.seed = 1;
  const Dataset customers = datagen::MakeCustomer(options);
  std::vector<std::string> records;
  for (const auto& row : customers.rows()) {
    records.push_back(RowToRecord(customers.schema(), row).ToString());
  }
  return records;
}

/// The early-exit bound similar() uses at threshold 0.8.
size_t SimilarityBound(const std::string& a, const std::string& b) {
  return static_cast<size_t>(0.2 * static_cast<double>(std::max(a.size(), b.size())) +
                             1e-9);
}

/// Best-of-`repeats` ns per pair of `distance` over all pairs of `pool`,
/// each with similar()'s bound at threshold 0.8.
template <typename Distance>
double MeasureKernelNs(const std::vector<std::string>& pool, int repeats,
                       Distance&& distance) {
  bench::BestTime best;
  uint64_t sink = 0;
  for (int r = 0; r < repeats; r++) {
    sink += best.Time([&] {
      uint64_t distances = 0;
      for (size_t i = 0; i < pool.size(); i++) {
        for (size_t j = i + 1; j < pool.size(); j++) {
          distances += distance(pool[i], pool[j], SimilarityBound(pool[i], pool[j]));
        }
      }
      return distances;
    });
  }
  if (sink == ~uint64_t{0}) std::printf("unreachable\n");
  const size_t pairs = pool.size() * (pool.size() - 1) / 2;
  return pairs == 0 ? 0 : best.seconds() * 1e9 / static_cast<double>(pairs);
}

/// Declares one pool's kernel fields: `size_field` holds the pool size, and
/// every other field name starts with `prefix`.
void MeasureSimilarityKernel(bench::Section& s, const std::string& size_field,
                             const std::string& prefix,
                             const std::vector<std::string>& pool, int repeats) {
  // Agreement: the exact distance, and the bounded form similar() calls
  // (both kernels return the exact distance or bound + 1).
  uint64_t mismatches = 0;
  for (size_t i = 0; i < pool.size(); i++) {
    for (size_t j = i + 1; j < pool.size(); j++) {
      const std::string& a = pool[i];
      const std::string& b = pool[j];
      const size_t bound = SimilarityBound(a, b);
      if (LevenshteinDistance(a, b) != LevenshteinDistanceDp(a, b) ||
          std::min(LevenshteinDistance(a, b, bound), bound + 1) !=
              std::min(LevenshteinDistanceDp(a, b, bound), bound + 1)) {
        mismatches++;
      }
    }
  }
  const double dp_ns = MeasureKernelNs(pool, repeats, [](const auto& a, const auto& b, size_t k) {
    return LevenshteinDistanceDp(a, b, k);
  });
  const double bit_parallel_ns = MeasureKernelNs(
      pool, repeats,
      [](const auto& a, const auto& b, size_t k) { return LevenshteinDistance(a, b, k); });
  s.Count(size_field, pool.size());
  s.Count(prefix + "pairs", pool.size() * (pool.size() - 1) / 2);
  s.Number(prefix + "dp_ns", dp_ns, 1);
  s.Number(prefix + "bit_parallel_ns", bit_parallel_ns, 1);
  // The bit-parallel kernel must beat the DP and agree with it on every
  // pair.
  s.Ratio(prefix + "speedup", bench::Quotient(dp_ns, bit_parallel_ns)).Above(1);
  s.Count(prefix + "mismatches", mismatches).AtMost(0);
}

}  // namespace
}  // namespace cleanm::engine

int main(int argc, char** argv) {
  using namespace cleanm;
  using namespace cleanm::engine;
  bench::Report report(bench::ParseFlags(argc, argv, {"--smoke", "--check", "--out"}));
  const bool smoke = report.flags().smoke;

  const int dispatch_iters = smoke ? 300 : 3000;
  const size_t shuffle_rows = smoke ? 4000 : 100000;
  const int shuffle_repeats = smoke ? 2 : 5;
  const std::vector<size_t> batch_sizes = {1, 64, 256, 1024, 8192};

  report.Text("bench", "cluster_primitives");
  report.Add("config", "cluster primitives microbenchmark")
      .Count("nodes", kNodes)
      .Bool("smoke", smoke)
      .Count("dispatch_iterations", dispatch_iters)
      .Count("shuffle_rows", shuffle_rows);

  bench::Section& dispatch = report.Add("dispatch", "RunOnNodes dispatch latency");
  const double spawn_ns = MeasureDispatchNs(
      dispatch_iters, [](const auto& task) { SpawnAndJoin(task); });
  Cluster cluster(PureComputeOptions());
  const double pool_ns = MeasureDispatchNs(
      dispatch_iters, [&](const auto& task) { cluster.RunOnNodes(task); });
  dispatch.Number("spawn_per_call_ns", spawn_ns, 1);
  // Generous gate: the pool must beat spawn-per-call by a clear margin. If
  // RunOnNodes regresses to spawning threads (or to creating a pool per
  // call), pool and spawn latency converge and this trips.
  dispatch.Number("worker_pool_ns", pool_ns, 1).AtMost(0.9 * spawn_ns);
  dispatch.Ratio("speedup", spawn_ns / pool_ns);

  bench::Section& shuffle = report.Add(
      "shuffle", "shuffle throughput in rows/sec by batch size (all-remote routing)");
  for (size_t batch : batch_sizes) {
    shuffle.Row().Count("batch_rows", batch).Number(
        "rows_per_sec", MeasureShuffleRowsPerSec(batch, shuffle_rows, shuffle_repeats), 0);
  }

  bench::Section& kernel = report.Add(
      "similarity_kernel", "Levenshtein kernel in ns per pair: bit-parallel vs the DP");
  const int kernel_repeats = smoke ? 1 : 7;
  std::vector<std::string> record_pool = KernelRecordPool();
  if (smoke) record_pool.resize(50);  // the DP on records is slow under asan
  MeasureSimilarityKernel(kernel, "names", "", KernelNamePool(), kernel_repeats);
  MeasureSimilarityKernel(kernel, "records", "record_", record_pool, kernel_repeats);
  return report.Finish();
}
