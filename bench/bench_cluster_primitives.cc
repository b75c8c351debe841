// Microbenchmark for the primitives underneath every operator: RunOnNodes
// dispatch latency on the persistent worker pool against a spawn-per-call
// reference (spawning and joining one thread per node around the same
// closure), shuffle throughput as a function of the batch size, and the
// Levenshtein kernel behind similar() (bit-parallel against the two-row
// DP) on two pools: author names, which fit one 64-bit word, and rendered
// customer records, which take the blocked kernel. Emits a machine-readable
// BENCH_cluster.json so the perf trajectory of the substrate is tracked
// across PRs.
//
// Flags:
//   --smoke        tiny sizes (CTest smoke run)
//   --check        exit non-zero if pool dispatch latency regresses to
//                  within 0.9× of spawn-per-call, or if the bit-parallel
//                  kernel disagrees with the DP on any pair of either pool
//                  or is not faster than it on either pool (the CI
//                  regression gates)
//   --out <path>   JSON output path (default: BENCH_cluster.json in CWD)
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algebra/algebra_eval.h"
#include "common/timer.h"
#include "datagen/generators.h"
#include "engine/cluster.h"
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

struct KernelResult {
  size_t strings = 0;
  size_t pairs = 0;
  double dp_ns = 0;
  double bit_parallel_ns = 0;
  uint64_t mismatches = 0;
  double speedup() const { return bit_parallel_ns > 0 ? dp_ns / bit_parallel_ns : 0; }
};

/// Best-of-`repeats` ns per pair of `distance` over all pairs of `pool`,
/// each with similar()'s bound at threshold 0.8.
template <typename Distance>
double MeasureKernelNs(const std::vector<std::string>& pool, int repeats,
                       Distance&& distance) {
  double best = 0;
  size_t pairs = 0;
  uint64_t sink = 0;
  for (int r = 0; r < repeats; r++) {
    pairs = 0;
    Timer timer;
    for (size_t i = 0; i < pool.size(); i++) {
      for (size_t j = i + 1; j < pool.size(); j++, pairs++) {
        sink += distance(pool[i], pool[j], SimilarityBound(pool[i], pool[j]));
      }
    }
    const double ns = timer.ElapsedSeconds() * 1e9;
    if (r == 0 || ns < best) best = ns;
  }
  if (sink == ~uint64_t{0}) std::printf("unreachable\n");
  return pairs == 0 ? 0 : best / static_cast<double>(pairs);
}

KernelResult MeasureSimilarityKernel(const std::vector<std::string>& pool,
                                     int repeats) {
  KernelResult out;
  out.strings = pool.size();
  out.pairs = pool.size() * (pool.size() - 1) / 2;
  // Agreement: the exact distance, and the bounded form similar() calls
  // (both kernels return the exact distance or bound + 1).
  for (size_t i = 0; i < pool.size(); i++) {
    for (size_t j = i + 1; j < pool.size(); j++) {
      const std::string& a = pool[i];
      const std::string& b = pool[j];
      const size_t bound = SimilarityBound(a, b);
      if (LevenshteinDistance(a, b) != LevenshteinDistanceDp(a, b) ||
          std::min(LevenshteinDistance(a, b, bound), bound + 1) !=
              std::min(LevenshteinDistanceDp(a, b, bound), bound + 1)) {
        out.mismatches++;
      }
    }
  }
  out.dp_ns = MeasureKernelNs(pool, repeats, [](const auto& a, const auto& b, size_t k) {
    return LevenshteinDistanceDp(a, b, k);
  });
  out.bit_parallel_ns = MeasureKernelNs(
      pool, repeats,
      [](const auto& a, const auto& b, size_t k) { return LevenshteinDistance(a, b, k); });
  return out;
}

}  // namespace
}  // namespace cleanm::engine

int main(int argc, char** argv) {
  using namespace cleanm;
  using namespace cleanm::engine;

  bool smoke = false, check = false;
  std::string out_path = "BENCH_cluster.json";
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--check") == 0) check = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  const int dispatch_iters = smoke ? 300 : 3000;
  const size_t shuffle_rows = smoke ? 4000 : 100000;
  const int shuffle_repeats = smoke ? 2 : 5;
  const std::vector<size_t> batch_sizes = {1, 64, 256, 1024, 8192};

  std::printf("=== cluster primitives microbenchmark (%zu nodes) ===\n", kNodes);

  const double spawn_ns = MeasureDispatchNs(
      dispatch_iters, [](const auto& task) { SpawnAndJoin(task); });
  Cluster cluster(PureComputeOptions());
  const double pool_ns = MeasureDispatchNs(
      dispatch_iters, [&](const auto& task) { cluster.RunOnNodes(task); });
  const double dispatch_speedup = spawn_ns / pool_ns;
  std::printf("RunOnNodes dispatch: spawn-per-call %10.0f ns   worker-pool %10.0f ns"
              "   speedup %.2fx\n",
              spawn_ns, pool_ns, dispatch_speedup);

  std::printf("shuffle throughput (%zu rows, all-remote routing):\n", shuffle_rows);
  std::vector<std::pair<size_t, double>> shuffle_results;
  for (size_t batch : batch_sizes) {
    const double rps = MeasureShuffleRowsPerSec(batch, shuffle_rows, shuffle_repeats);
    shuffle_results.emplace_back(batch, rps);
    std::printf("  batch %5zu rows: %12.0f rows/sec\n", batch, rps);
  }

  const int kernel_repeats = smoke ? 1 : 7;
  std::vector<std::string> record_pool = KernelRecordPool();
  if (smoke) record_pool.resize(50);  // the DP on records is slow under asan
  const KernelResult names = MeasureSimilarityKernel(KernelNamePool(), kernel_repeats);
  const KernelResult records = MeasureSimilarityKernel(record_pool, kernel_repeats);
  const std::pair<const char*, const KernelResult*> kernels[] = {{"names", &names},
                                                                 {"records", &records}};
  for (const auto& [pool, kernel] : kernels) {
    std::printf("Levenshtein kernel (%zu %s, %zu pairs): DP %9.1f ns/pair   "
                "bit-parallel %7.1f ns/pair   speedup %.2fx   mismatches %llu\n",
                kernel->strings, pool, kernel->pairs, kernel->dp_ns,
                kernel->bit_parallel_ns, kernel->speedup(),
                static_cast<unsigned long long>(kernel->mismatches));
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"cluster_primitives\",\n");
  std::fprintf(out, "  \"config\": {\"nodes\": %zu, \"smoke\": %s, "
                    "\"dispatch_iterations\": %d, \"shuffle_rows\": %zu},\n",
               kNodes, smoke ? "true" : "false", dispatch_iters, shuffle_rows);
  std::fprintf(out, "  \"dispatch\": {\"spawn_per_call_ns\": %.1f, "
                    "\"worker_pool_ns\": %.1f, \"speedup\": %.3f},\n",
               spawn_ns, pool_ns, dispatch_speedup);
  std::fprintf(out, "  \"shuffle\": [\n");
  for (size_t i = 0; i < shuffle_results.size(); i++) {
    std::fprintf(out, "    {\"batch_rows\": %zu, \"rows_per_sec\": %.0f}%s\n",
                 shuffle_results[i].first, shuffle_results[i].second,
                 i + 1 < shuffle_results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"similarity_kernel\": {\"names\": %zu, \"pairs\": %zu, "
                    "\"dp_ns\": %.1f, \"bit_parallel_ns\": %.1f, \"speedup\": %.3f, "
                    "\"mismatches\": %llu, \"records\": %zu, \"record_pairs\": %zu, "
                    "\"record_dp_ns\": %.1f, \"record_bit_parallel_ns\": %.1f, "
                    "\"record_speedup\": %.3f, \"record_mismatches\": %llu}\n}\n",
               names.strings, names.pairs, names.dp_ns, names.bit_parallel_ns,
               names.speedup(), static_cast<unsigned long long>(names.mismatches),
               records.strings, records.pairs, records.dp_ns, records.bit_parallel_ns,
               records.speedup(), static_cast<unsigned long long>(records.mismatches));
  std::fclose(out);
  std::printf("[written] %s\n", out_path.c_str());

  if (check) {
    // Generous gate: the pool must beat spawn-per-call by a clear margin.
    // If RunOnNodes regresses to spawning threads (or to creating a pool
    // per call), pool and spawn latency converge and this trips.
    if (pool_ns > 0.9 * spawn_ns) {
      std::fprintf(stderr,
                   "REGRESSION: worker-pool dispatch (%.0f ns) is not clearly "
                   "faster than spawn-per-call (%.0f ns)\n",
                   pool_ns, spawn_ns);
      return 1;
    }
    std::printf("[check] dispatch latency gate passed (%.2fx)\n", dispatch_speedup);
    for (const auto& [pool, kernel] : kernels) {
      if (kernel->mismatches > 0) {
        std::fprintf(stderr,
                     "REGRESSION: the bit-parallel Levenshtein kernel disagrees with "
                     "the DP on %llu pair(s) of %s\n",
                     static_cast<unsigned long long>(kernel->mismatches), pool);
        return 1;
      }
      if (kernel->bit_parallel_ns >= kernel->dp_ns) {
        std::fprintf(stderr,
                     "REGRESSION: the bit-parallel Levenshtein kernel (%.1f ns/pair) is "
                     "not faster than the DP (%.1f ns/pair) on %s\n",
                     kernel->bit_parallel_ns, kernel->dp_ns, pool);
        return 1;
      }
    }
    std::printf("[check] similarity kernel gate passed (names %.2fx, records %.2fx, "
                "0 mismatches)\n",
                names.speedup(), records.speedup());
  }
  return 0;
}
