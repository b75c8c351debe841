// cleanbench — the CleanDB benchmark driver.
//
// Runs one workload as a closed loop from one process against the public
// API of the library (CleanDB, PreparedQuery, ViolationSink, the storage
// readers and the mutation calls, datagen) and prints one JSON result line
// as the last line of standard output:
//
//   cleanbench --workload batch_clean --seed 1 --seconds 36 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same loop,
// traces every other operation and reports the per-layer metrics instead
// (cleanbench/METRICS.md lists every metric, its unit and what it should
// move). Inputs are generated here from --seed; the library only sees the
// generated rows and CSV text. Every operation is checked against a
// reference computed in set-up by a second execution path.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "cleaning/cleandb.h"
#include "cleaning/prepared_query.h"
#include "cleaning/query_profile.h"
#include "cleaning/violation_sink.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/trace.h"
#include "datagen/generators.h"
#include "storage/csv.h"

namespace cleanm::bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- Command line ----

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs, for the self-test.
  bool smoke = false;
  /// Flips the reference digests, so the correctness gate must fail.
  bool corrupt_reference = false;
};

/// Where traced runs write their Chrome trace, relative to the checkout root
/// the benchmark runs from.
const char* kTraceDir = ".bench_out";

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "cleanbench: %s\nusage: cleanbench --workload "
               "{batch_clean|delta_stream|term_validation} "
               "--seed N --seconds S --trace {0|1} [--smoke] "
               "[--corrupt-reference]\n",
               error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--corrupt-reference") {
      args.corrupt_reference = true;
    } else {
      Usage("unknown argument " + flag);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

// ---- Session configuration shared by every workload ----

/// Three virtual nodes (the pool's three workers plus one driver fit four
/// cores) and no simulated network sleep: sleeping measures sleep_for
/// wake-up jitter, not the program. The network cost is reported instead
/// as engine.net_model_ms, computed from the shuffle counters.
CleanDBOptions SessionOptions() {
  CleanDBOptions options;
  options.num_nodes = 3;
  options.shuffle_ns_per_byte = 0;
  return options;
}

/// Serialization cost per shuffled byte used by the repository's benches;
/// engine.net_model_ms = bytes_shuffled × this, never slept.
constexpr double kNetModelNsPerByte = 40.0;

const char* kEightFds = R"(
  FD(c.address, c.nationkey)
  FD(c.address, prefix(c.phone))
  FD(c.name, c.nationkey)
  FD(c.phone, c.nationkey)
  FD(c.name, c.address)
  FD(c.phone, c.address)
  FD(c.name, c.phone)
  FD(c.custkey, c.nationkey)
)";

std::string EightFdQuery(const std::string& table) {
  return "SELECT * FROM " + table + " c" + kEightFds;
}

std::string BatchCleanQuery() {
  return EightFdQuery("customer") + "  DEDUP(exact, LD, 0.8, c.address)\n";
}

const char* kTermQuery =
    "SELECT * FROM authors a, dictionary d CLUSTER BY(tf, LD, 0.8, a.author)";

// ---- Order-independent violation digests ----

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hash of a value that ignores list order and struct field order: the
/// collections inside a violation are bags and sets whose element order
/// depends on the fold order of the plan that built them.
uint64_t CanonicalHash(const Value& v) {
  if (v.type() == ValueType::kList) {
    uint64_t sum = 0;
    for (const auto& e : v.AsList()) sum += Mix(CanonicalHash(e));
    return HashCombine(HashInt(v.AsList().size(), 0x6c697374), sum);
  }
  if (v.type() == ValueType::kStruct) {
    std::vector<std::pair<std::string_view, uint64_t>> fields;
    fields.reserve(v.AsStruct().size());
    for (const auto& [name, field] : v.AsStruct()) {
      fields.emplace_back(name, CanonicalHash(field));
    }
    std::sort(fields.begin(), fields.end());
    uint64_t h = 0x73747275;
    for (const auto& [name, fh] : fields) h = HashCombine(HashCombine(h, HashString(name)), fh);
    return h;
  }
  return v.Hash();
}

/// Fields that identify a violation in every plan form: the FD group (key,
/// partition), the DEDUP pair (p1, p2) and the CLUSTER BY repair (term,
/// suggestion). A unified plan's violations also carry the other
/// aggregates of the Nest they share, so whole tuples differ between the
/// unified and the standalone plans.
uint64_t ViolationHash(const Value& v) {
  if (v.type() != ValueType::kStruct) return CanonicalHash(v);
  static const std::set<std::string_view> kIdentity = {"key",  "partition", "p1",
                                                        "p2",   "term",      "suggestion"};
  ValueStruct identity;
  for (const auto& [name, field] : v.AsStruct()) {
    if (kIdentity.count(name)) identity.emplace_back(name, field);
  }
  return CanonicalHash(Value(std::move(identity)));
}

/// Multiset digest: equal for equal multisets, whatever the order of Add.
struct Digest {
  uint64_t sum = 0;
  int64_t count = 0;
  void Add(uint64_t h) {
    sum += Mix(h);
    count++;
  }
  void Remove(uint64_t h) {
    sum -= Mix(h);
    count--;
  }
  void Add(const Digest& d) {
    sum += d.sum;
    count += d.count;
  }
  void Remove(const Digest& d) {
    sum -= d.sum;
    count -= d.count;
  }
  bool operator==(const Digest& o) const { return sum == o.sum && count == o.count; }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};

/// What one execution streamed, as digests: the reference a second path
/// computes in set-up, and the value every timed operation must match.
struct ExecDigest {
  Digest violations;  ///< OnViolation + OnViolationNew
  Digest entities;    ///< OnDirtyEntity
  bool operator==(const ExecDigest& o) const {
    return violations == o.violations && entities == o.entities;
  }
};

/// True when `got` equals `want`; logs the difference otherwise.
bool MatchesReference(const ExecDigest& got, const ExecDigest& want, const char* workload) {
  if (got == want) return true;
  std::fprintf(stderr,
               "cleanbench: %s: result differs from the reference (%lld violations, "
               "%lld dirty entities; reference %lld, %lld)\n",
               workload, static_cast<long long>(got.violations.count),
               static_cast<long long>(got.entities.count),
               static_cast<long long>(want.violations.count),
               static_cast<long long>(want.entities.count));
  return false;
}

// ---- The benchmark's sink ----

/// Digests everything an execution streams. Clauses are told apart by
/// their position in the query, so two FDs emitting equal tuples do not
/// cancel out. With `timed` on (traced operations only) it also measures
/// the time spent inside its own callbacks and the time each clause took
/// between OnOpBegin and OnOpEnd, minus that sink time.
class BenchSink final : public ViolationSink {
 public:
  bool timed = false;
  /// Keeps (term, suggestion) pairs of CLUSTER BY violations.
  bool keep_pairs = false;

  ExecDigest digest;
  Digest retracted;
  Digest fresh;
  size_t violation_count = 0;
  size_t retracted_count = 0;
  size_t fresh_count = 0;
  size_t entity_count = 0;
  double sink_ms = 0;
  /// Clause self time (window minus sink time) by operation name.
  std::map<std::string, double> clause_ms;
  std::vector<std::pair<std::string, std::string>> pairs;

  void Reset() {
    digest = ExecDigest();
    retracted = fresh = Digest();
    violation_count = retracted_count = fresh_count = entity_count = 0;
    sink_ms = 0;
    clause_ms.clear();
    op_index_ = 0;
  }

  Status OnOpBegin(const std::string&) override {
    op_index_++;
    if (timed) {
      op_begin_ = Clock::now();
      op_sink_ms_ = 0;
    }
    return Status::OK();
  }

  Status OnViolation(const std::string&, const Value& v) override {
    Timed([&] {
      digest.violations.Add(HashOf(v));
      violation_count++;
      if (keep_pairs) KeepPair(v);
    });
    return Status::OK();
  }

  Status OnViolationNew(const std::string&, const Value& v) override {
    Timed([&] {
      const uint64_t h = HashOf(v);
      digest.violations.Add(h);
      fresh.Add(h);
      violation_count++;
      fresh_count++;
    });
    return Status::OK();
  }

  Status OnViolationRetracted(const std::string&, const Value& v) override {
    Timed([&] {
      retracted.Add(HashOf(v));
      retracted_count++;
    });
    return Status::OK();
  }

  Status OnOpEnd(const OpSummary& summary) override {
    if (timed) {
      clause_ms[summary.op_name] += MsBetween(op_begin_, Clock::now()) - op_sink_ms_;
    }
    return Status::OK();
  }

  Status OnDirtyEntity(const Value& entity,
                       const std::vector<std::string>& ops) override {
    Timed([&] {
      uint64_t op_set = 0;
      for (const auto& op : ops) op_set += Mix(HashString(op));
      digest.entities.Add(HashCombine(CanonicalHash(entity), op_set));
      entity_count++;
    });
    return Status::OK();
  }

 private:
  uint64_t HashOf(const Value& v) const {
    return HashCombine(HashInt(op_index_), ViolationHash(v));
  }

  void KeepPair(const Value& v) {
    auto term = v.GetField("term");
    auto suggestion = v.GetField("suggestion");
    if (term.ok() && suggestion.ok() && term.value().type() == ValueType::kString &&
        suggestion.value().type() == ValueType::kString) {
      pairs.emplace_back(term.value().AsString(), suggestion.value().AsString());
    }
  }

  template <typename Fn>
  void Timed(Fn&& fn) {
    if (!timed) {
      fn();
      return;
    }
    const auto t0 = Clock::now();
    fn();
    const double ms = MsBetween(t0, Clock::now());
    sink_ms += ms;
    op_sink_ms_ += ms;
  }

  uint64_t op_index_ = 0;
  Clock::time_point op_begin_;
  double op_sink_ms_ = 0;
};

// ---- Statistics ----

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// latency_tail_ms is this percentile, fixed rather than derived from the
/// sample count, which follows the clock on batch_clean and
/// term_validation. At least ten samples lie beyond it: the pooled half of
/// the rounds holds at least 300 operations (kMinRoundOps), and
/// delta_stream's per-index fastest latencies number 103 at --seconds 36.
constexpr double kTailPercentile = 90;

/// Median of the last tenth of `v` over the median of its first tenth.
double Growth(const std::vector<double>& v) {
  const size_t tenth = std::max<size_t>(1, v.size() / 10);
  if (v.size() < 2) return 1;
  const double first = Median({v.begin(), v.begin() + tenth});
  const double last = Median({v.end() - tenth, v.end()});
  return first > 0 ? last / first : 0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Returns freed heap to the kernel and resets VmHWM to the current
/// resident set, so the peak read later covers only what ran after this.
void ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream("/proc/self/clear_refs") << "5";
}

// ---- Per-layer samples ----

/// Per-operation samples of the per-layer metrics, by metric name. A metric
/// reports the median of its samples (see METRICS.md for the exceptions).
struct Layers {
  std::map<std::string, std::vector<double>> samples;
  void Add(const std::string& name, double v) { samples[name].push_back(v); }
};

/// Installs a span recorder on the calling thread for one traced operation;
/// a no-op when `on` is false. The engine's own spans (operators, cluster
/// dispatch/task/shuffle, pipeline pumps) land in it, next to the
/// benchmark's "bench" spans around the public calls.
class OpTrace {
 public:
  explicit OpTrace(bool on) {
    if (on) {
      recorder_.emplace();
      install_.emplace(&*recorder_);
    }
  }
  std::vector<TraceSpan> Finish() {
    install_.reset();
    return recorder_ ? recorder_->Drain() : std::vector<TraceSpan>();
  }

 private:
  std::optional<TraceRecorder> recorder_;
  std::optional<TraceRecorderScope> install_;
};

/// Per-layer samples derived from one traced operation's spans: operator
/// self times from the QueryProfile, and dispatch/task/shuffle times from
/// the cluster spans.
void AddSpanLayers(const std::vector<TraceSpan>& spans, Layers* layers) {
  const QueryProfile profile = QueryProfile::Build(spans, {}, 2.0);
  double nest = 0, select = 0, join = 0, unnest = 0, imbalance = 1;
  for (const auto& op : profile.operators()) {
    const double ms = static_cast<double>(op.self_ns) / 1e6;
    if (op.name == "Nest") nest += ms;
    if (op.name == "Select") select += ms;
    if (op.name == "Join" || op.name == "OuterJoin") join += ms;
    if (op.name == "Unnest" || op.name == "OuterUnnest") unnest += ms;
    if (!op.node_rows.empty()) imbalance = std::max(imbalance, op.imbalance);
  }
  layers->Add("physical.nest_self_ms", nest);
  layers->Add("physical.select_self_ms", select);
  layers->Add("physical.join_self_ms", join);
  layers->Add("physical.unnest_self_ms", unnest);
  layers->Add("engine.node_imbalance", imbalance);

  std::unordered_map<uint64_t, uint64_t> longest_task;  // dispatch id -> ns
  std::unordered_map<uint64_t, uint64_t> dispatch_dur;
  double shuffle_ns = 0, task_ns = 0, dispatch_ns = 0;
  for (const auto& s : spans) {
    if (std::strcmp(s.category, "cluster") != 0) continue;
    if (std::strcmp(s.name, "dispatch") == 0) {
      dispatch_dur[s.id] = s.dur_ns;
      dispatch_ns += static_cast<double>(s.dur_ns);
    } else if (std::strcmp(s.name, "task") == 0) {
      task_ns += static_cast<double>(s.dur_ns);
      uint64_t& longest = longest_task[s.parent];
      longest = std::max(longest, s.dur_ns);
    } else if (std::strcmp(s.name, "shuffle") == 0) {
      shuffle_ns += static_cast<double>(s.dur_ns);
    }
  }
  double overhead_ns = 0;
  for (const auto& [id, dur] : dispatch_dur) {
    const uint64_t longest = longest_task.count(id) ? longest_task[id] : 0;
    overhead_ns += static_cast<double>(dur - std::min(dur, longest));
  }
  layers->Add("engine.dispatches", static_cast<double>(dispatch_dur.size()));
  layers->Add("engine.dispatch_ms", dispatch_ns / 1e6);
  layers->Add("engine.task_ms", task_ns / 1e6);
  layers->Add("engine.dispatch_overhead_ms", overhead_ns / 1e6);
  layers->Add("engine.shuffle_ms", shuffle_ns / 1e6);
}

/// Per-layer samples from one operation's engine-counter and
/// partition-cache movement.
void AddCounterLayers(const MetricsCounters& c, const PartitionCache::Stats& cache,
                      Layers* layers) {
  layers->Add("engine.rows_shuffled", static_cast<double>(c.rows_shuffled));
  layers->Add("engine.bytes_shuffled", static_cast<double>(c.bytes_shuffled));
  layers->Add("engine.shuffle_batches", static_cast<double>(c.shuffle_batches));
  layers->Add("engine.groups_built", static_cast<double>(c.groups_built));
  layers->Add("engine.morsels_processed", static_cast<double>(c.morsels_processed));
  layers->Add("engine.net_model_ms",
              static_cast<double>(c.bytes_shuffled) * kNetModelNsPerByte / 1e6);
  layers->Add("text.comparisons", static_cast<double>(c.comparisons));
  layers->Add("cleaning.delta_rows_processed", static_cast<double>(c.delta_rows_processed));
  layers->Add("cleaning.groups_remerged", static_cast<double>(c.groups_remerged));
  layers->Add("cleaning.incremental", static_cast<double>(c.incremental_executions));
  const uint64_t hits = cache.scan_hits + cache.nest_hits;
  const uint64_t misses = cache.scan_misses + cache.nest_misses;
  layers->Add("physical.repartitions", static_cast<double>(misses));
  // An execution that asked the cache for nothing (the incremental path)
  // had nothing to re-partition: it counts as all hits.
  layers->Add("physical.cache_hit_ratio",
              hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                            : 1.0);
}

/// The sink's callback counts, and the clause and sink times it measured
/// (only traced operations time them).
void AddSinkLayers(const BenchSink& sink, Layers* layers) {
  layers->Add("cleaning.violations", static_cast<double>(sink.violation_count));
  layers->Add("cleaning.retracted", static_cast<double>(sink.retracted_count));
  layers->Add("cleaning.new", static_cast<double>(sink.fresh_count));
  layers->Add("cleaning.dirty_entities", static_cast<double>(sink.entity_count));
  double fd = 0, dedup = 0, cluster_by = 0, total = 0;
  for (const auto& [name, ms] : sink.clause_ms) {
    if (name.rfind("FD", 0) == 0) fd += ms;
    if (name.rfind("DEDUP", 0) == 0) dedup += ms;
    if (name.rfind("CLUSTER BY", 0) == 0) cluster_by += ms;
    total += ms;
  }
  layers->Add("clause.fd_self_ms", fd);
  layers->Add("clause.dedup_self_ms", dedup);
  layers->Add("clause.cluster_by_self_ms", cluster_by);
  layers->Add("clause.execute_self_ms", total);
  layers->Add("cleaning.sink_ms", sink.sink_ms);
}

/// Snapshot of the session's cumulative counters and cache stats, for
/// per-operation deltas.
struct Probe {
  MetricsCounters counters;
  PartitionCache::Stats cache;
  static Probe Take(CleanDB& db) {
    return {db.cluster().session_metrics().Snapshot(), db.partition_cache().stats()};
  }
};

/// The session's high-water mark of transient operator output, in MB.
double PeakMaterializedMb(CleanDB& db) {
  return static_cast<double>(
             db.cluster().session_metrics().Snapshot().peak_bytes_materialized) /
         1e6;
}

void AddProbeDelta(const Probe& before, CleanDB& db, Layers* layers) {
  const Probe after = Probe::Take(db);
  AddCounterLayers(CountersDelta(after.counters, before.counters),
                   after.cache.Since(before.cache), layers);
}

/// What every traced operation adds once its calls have returned: the
/// sink's layers, and the layers of its spans, which are kept as the run's
/// Chrome trace until a later operation is traced.
void AddTracedOpLayers(OpTrace& trace, const BenchSink& sink, Layers* layers,
                       std::vector<TraceSpan>* last_spans) {
  AddSinkLayers(sink, layers);
  *last_spans = trace.Finish();
  AddSpanLayers(*last_spans, layers);
}

// ---- Result of one run ----

/// Contention from other tenants of a shared host slows operations (on a
/// 4-vCPU virtual machine a fixed compute loop ran up to ~1.5x slower, in
/// episodes of seconds) and never speeds them up. So a run measures several
/// rounds, each on a freshly set-up session making the same number of
/// operations. Where every operation is the same (batch_clean,
/// term_validation), a run makes kRounds rounds and the latency and
/// throughput metrics pool the half of them with the lowest median latency.
constexpr size_t kRounds = 6;

/// Where every round replays the same operation sequence (delta_stream), a
/// run makes kReplayRounds shorter rounds and the metrics take the fastest
/// latency at every operation index: more rounds make it likelier that
/// some round ran each operation uncontended.
constexpr size_t kReplayRounds = 20;

/// Set-ups per round; the median of all of them is setup_s.
constexpr size_t kSetupsPerRound = 2;

/// A clock-bound round makes at least this many operations.
constexpr size_t kMinRoundOps = 100;

/// One round's closed loop.
struct Round {
  std::vector<double> latency_ms;  ///< by operation index
  size_t completed = 0;
  double wall_s = 0;
};

struct RunResult {
  std::vector<Round> rounds;
  /// True when operation i of every round is the same operation on the
  /// same history (delta_stream's commit stream).
  bool replayed = false;
  /// VmHWM over the set-ups and rounds only.
  double peak_rss_mb = 0;
  /// Latencies of the untraced and of the traced operations of all rounds.
  std::vector<double> latency_ms;
  std::vector<double> traced_latency_ms;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<double> setup_s;
  Layers layers;
  /// Spans of the last traced operation, written as the run's Chrome trace.
  std::vector<TraceSpan> last_spans;

  void Record(bool ok, bool traced, double ms) {
    attempted++;
    if (!ok) failed++;
    (traced ? traced_latency_ms : latency_ms).push_back(ms);
  }
  /// Counts a set-up or final check that failed as a failed operation.
  void RecordFailure() {
    attempted++;
    failed++;
  }
};

/// Runs one round: `op(i, traced)` back to back — a closed loop — exactly
/// `*ops` times, or, when `*ops` is 0, for this round's share of --seconds
/// (and at least kMinRoundOps times), storing the count made in `*ops`. A
/// traced run traces every other operation, so traced and untraced
/// latencies interleave. `op` returns whether the operation succeeded and
/// its latency in ms.
template <typename Op>
void ClosedLoop(const Args& args, size_t rounds, size_t* ops, Op&& op, RunResult* out) {
  Round& round = out->rounds.emplace_back();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds / static_cast<double>(rounds)));
  for (size_t i = 0; *ops ? i < *ops : i < kMinRoundOps || Clock::now() < deadline; i++) {
    const bool traced = args.trace && i % 2 == 0;
    const auto [ok, ms] = op(i, traced);
    out->Record(ok, traced, ms);
    round.latency_ms.push_back(ms);
    round.completed += ok;
  }
  *ops = round.latency_ms.size();
  round.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
}

/// Builds kSetupsPerRound fresh sessions with `setup`, keeping the last
/// one; the setup_s samples are their build times.
template <typename Session, typename SetupFn>
std::unique_ptr<Session> RepeatedSetup(SetupFn&& setup, RunResult* out) {
  std::unique_ptr<Session> session;
  for (size_t i = 0; i < kSetupsPerRound; i++) {
    session.reset();
    const auto t0 = Clock::now();
    session = setup(&out->layers);
    out->setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (!session) return nullptr;
  }
  return session;
}

/// Measures `rounds` rounds of `op(session, i, traced)`, each on a freshly
/// set-up session. Every round makes `fixed_ops` operations, or, when that
/// is 0, as many as the first (clock-bound) round made. Returns the last
/// round's session, or null when a set-up failed. peak_rss_mb covers the
/// set-ups and rounds, not the inputs' generation or the reference run
/// before them.
template <typename Session, typename SetupFn, typename OpFn>
std::unique_ptr<Session> MeasureRounds(const Args& args, size_t rounds, size_t fixed_ops,
                                       SetupFn&& setup, OpFn&& op, RunResult* out) {
  ResetPeakRss();
  size_t ops = fixed_ops;
  std::unique_ptr<Session> session;
  for (size_t r = 0; r < rounds; r++) {
    session.reset();
    session = RepeatedSetup<Session>(setup, out);
    if (!session) {
      out->RecordFailure();
      return nullptr;
    }
    ClosedLoop(args, rounds, &ops,
               [&](size_t i, bool traced) { return op(*session, i, traced); }, out);
  }
  out->peak_rss_mb = PeakRssMb();
  return session;
}

void Fail(const std::string& what) {
  std::fprintf(stderr, "cleanbench: %s\n", what.c_str());
}

// ---- Input generation ----

/// Shape of a generated customer table. Every seed yields the same number
/// of rows, so the work per operation barely depends on the seed.
struct CustomerShape {
  size_t base_rows;
  /// Exact number of duplicate rows added; copies per duplicated customer
  /// are Zipf-distributed over [1, max_copies].
  size_t duplicates;
  size_t max_copies;
  /// Each datagen address group (~5 customers) is split into this many
  /// sub-addresses. The FDs still hold; DEDUP's exact-address blocks, and
  /// so its pairwise comparisons, shrink.
  size_t address_split;
  double fd_violation_fraction;
};

/// Zipf-duplicated customers built from datagen's base customers.
/// Duplicates edit the name and phone and keep the address, as datagen's
/// own duplicates do. Names are then made unique per row (as the
/// repository's delta-incremental A/B does), so the name-keyed FDs hold
/// except for the injected noise and violations come from addresses and
/// phones.
Dataset MakeCustomers(const CustomerShape& shape, uint64_t seed) {
  datagen::CustomerOptions options;
  options.base_rows = shape.base_rows;
  options.duplicate_fraction = 0;
  options.fd_violation_fraction = shape.fd_violation_fraction;
  options.seed = seed;
  Dataset data = datagen::MakeCustomer(options);
  const Schema& schema = data.schema();
  const size_t key = schema.IndexOf("custkey").ValueOrDie();
  const size_t name = schema.IndexOf("name").ValueOrDie();
  const size_t address = schema.IndexOf("address").ValueOrDie();
  const size_t phone = schema.IndexOf("phone").ValueOrDie();
  std::vector<Row>& rows = data.mutable_rows();
  if (shape.address_split > 1) {
    for (auto& row : rows) {
      const uint64_t unit = static_cast<uint64_t>(row[key].AsInt()) % shape.address_split;
      row[address] = Value(row[address].AsString() + " unit " + std::to_string(unit));
    }
  }
  Rng rng(seed ^ 0xd0b1e5);
  ZipfGenerator copies(shape.max_copies, 1.0, seed + 1);
  int64_t next_key = static_cast<int64_t>(rows.size());
  std::vector<Row> duplicates;
  while (duplicates.size() < shape.duplicates) {
    const Row& source = rows[rng.Uniform(rows.size())];
    for (uint64_t c = copies.Next(); c > 0 && duplicates.size() < shape.duplicates; c--) {
      Row dup = source;
      dup[key] = Value(next_key++);
      dup[name] = Value(datagen::AddNoise(source[name].AsString(), 0.1, &rng));
      dup[phone] = Value(datagen::AddNoise(source[phone].AsString(), 0.1, &rng));
      duplicates.push_back(std::move(dup));
    }
  }
  for (auto& dup : duplicates) rows.push_back(std::move(dup));
  size_t i = 0;
  for (auto& row : rows) {
    row[name] = Value(row[name].AsString() + " #" + std::to_string(i++));
  }
  return data;
}

std::string CsvField(const Value& v) {
  if (v.type() != ValueType::kString) return v.ToString();
  const std::string& s = v.AsString();
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

std::string ToCsv(const Dataset& data) {
  std::string out;
  for (size_t i = 0; i < data.schema().num_fields(); i++) {
    out += (i ? "," : "") + data.schema().field(i).name;
  }
  out += '\n';
  for (const auto& row : data.rows()) {
    for (size_t i = 0; i < row.size(); i++) {
      if (i) out += ',';
      out += CsvField(row[i]);
    }
    out += '\n';
  }
  return out;
}

/// Runs `query_text` over `tables` on a fresh session through the
/// standalone (unify_operations=false) plans: the second path every
/// workload's reference digest comes from.
Result<ExecDigest> ReferenceDigest(const std::vector<std::pair<std::string, Dataset>>& tables,
                                   const std::string& query_text, bool corrupt) {
  CleanDB db(SessionOptions());
  for (const auto& [name, data] : tables) db.RegisterTable(name, data);
  CLEANM_ASSIGN_OR_RETURN(PreparedQuery pq, db.Prepare(query_text));
  ExecOptions standalone;
  standalone.unify_operations = false;
  BenchSink sink;
  CLEANM_RETURN_NOT_OK(pq.ExecuteInto(sink, standalone));
  if (corrupt) sink.digest.violations.sum ^= 1;
  return sink.digest;
}

// ---- batch_clean ----
//
// One operation: ParseCsvString of an in-memory batch, RegisterTable, and
// ExecuteInto of the prepared unified 8-FD + DEDUP query — the cold path a
// newly arrived batch pays.

/// Shaped so FD grouping and DEDUP each take well over a quarter of the
/// execute self time: DEDUP compares every pair inside an address block,
/// so blocks are split and duplicates kept few and small.
CustomerShape BatchShape(bool smoke) {
  if (smoke) return {150, 12, 3, 3, 0.05};
  return {1500, 120, 3, 3, 0.05};
}

struct QuerySession {
  std::unique_ptr<CleanDB> db;
  std::optional<PreparedQuery> pq;
  ~QuerySession() {
    pq.reset();  // a PreparedQuery must not outlive its CleanDB
    db.reset();
  }
};

RunResult RunBatchClean(const Args& args) {
  const std::string csv = ToCsv(MakeCustomers(BatchShape(args.smoke), args.seed));
  const std::string query = BatchCleanQuery();
  RunResult out;

  Result<Dataset> parsed_ref = ParseCsvString(csv);
  if (!parsed_ref.ok()) {
    Fail("batch_clean: CSV parse failed: " + parsed_ref.status().ToString());
    return out;
  }
  Result<ExecDigest> ref =
      ReferenceDigest({{"customer", parsed_ref.value()}}, query, args.corrupt_reference);
  if (!ref.ok()) {
    Fail("batch_clean: reference failed: " + ref.status().ToString());
    return out;
  }
  const ExecDigest reference = ref.value();

  BenchSink sink;
  // One operation; returns whether it succeeded and matched the reference.
  auto operation = [&](QuerySession& s, bool traced, Layers* layers) {
    OpTrace trace(traced);
    const Probe before = traced ? Probe::Take(*s.db) : Probe();
    sink.Reset();
    sink.timed = traced;
    const auto t0 = Clock::now();
    std::optional<Result<Dataset>> batch;
    {
      TraceScope span("bench", "csv_parse");
      batch.emplace(ParseCsvString(csv));
    }
    const auto t1 = Clock::now();
    Status status = batch->status();
    if (status.ok()) {
      TraceScope span("bench", "register");
      s.db->RegisterTable("customer", std::move(batch->value()));
    }
    const auto t2 = Clock::now();
    if (status.ok()) {
      TraceScope span("bench", "execute");
      status = s.pq->ExecuteInto(sink);
    }
    const auto t3 = Clock::now();
    if (!status.ok()) Fail("batch_clean: " + status.ToString());
    const bool ok = status.ok() && MatchesReference(sink.digest, reference, "batch_clean");
    if (traced) {
      layers->Add("storage.csv_parse_ms", MsBetween(t0, t1));
      layers->Add("storage.register_ms", MsBetween(t1, t2));
      AddProbeDelta(before, *s.db, layers);
      AddTracedOpLayers(trace, sink, layers, &out.last_spans);
    }
    return std::make_pair(ok, MsBetween(t0, t3));
  };

  auto setup = [&](Layers* layers) -> std::unique_ptr<QuerySession> {
    auto s = std::make_unique<QuerySession>();
    s->db = std::make_unique<CleanDB>(SessionOptions());
    auto batch = ParseCsvString(csv);
    if (!batch.ok()) return nullptr;
    s->db->RegisterTable("customer", std::move(batch.value()));
    const auto t0 = Clock::now();
    auto pq = s->db->Prepare(query);
    layers->Add("prepare.prepare_ms", MsBetween(t0, Clock::now()));
    if (!pq.ok()) {
      Fail("batch_clean: Prepare failed: " + pq.status().ToString());
      return nullptr;
    }
    s->pq.emplace(std::move(pq.value()));
    layers->Add("algebra.nests_coalesced", s->pq->nests_coalesced());
    if (!operation(*s, false, layers).first) return nullptr;  // warm-up
    return s;
  };

  auto session = MeasureRounds<QuerySession>(
      args, kRounds, 0, setup,
      [&](QuerySession& s, size_t, bool traced) { return operation(s, traced, &out.layers); },
      &out);
  if (session) {
    out.layers.Add("physical.peak_materialized_mb", PeakMaterializedMb(*session->db));
  }
  return out;
}

// ---- delta_stream ----
//
// One operation: a commit (AppendRows of ~1% new rows, ~10% of them
// violating; DeleteRows of as many of the oldest live rows; UpdateRows of a
// few rows) followed by ExecuteInto of the prepared 8-FD query through the
// diff-aware sink. A sliding window: the table size stays constant. Every
// run makes the same number of commits, because latency grows with the
// mutations since the table was registered.

struct DeltaSizes {
  size_t base_rows;
  size_t commits_per_second;
};

DeltaSizes DeltaSizing(bool smoke) {
  if (smoke) return {400, 32};
  return {4000, 57};
}

struct Commit {
  std::vector<Row> append;
  std::unordered_set<int64_t> remove;
  std::unordered_set<int64_t> update;
  std::string new_phone;
};

/// Pre-generates the commit stream (input generation, never timed).
std::vector<Commit> MakeCommits(const Dataset& base, size_t count, uint64_t seed) {
  const Schema& schema = base.schema();
  const size_t key = schema.IndexOf("custkey").ValueOrDie();
  const size_t nation = schema.IndexOf("nationkey").ValueOrDie();
  const size_t delta = std::max<size_t>(1, base.num_rows() / 100);
  const size_t violating = std::max<size_t>(1, delta / 10);

  Rng rng(seed ^ 0xde17a);
  std::deque<int64_t> window;  // live keys, oldest first
  std::unordered_map<int64_t, Row> live;
  for (const auto& row : base.rows()) {
    window.push_back(row[key].AsInt());
    live.emplace(row[key].AsInt(), row);
  }
  int64_t next_key = 1000000000;
  std::vector<Commit> commits(count);
  for (size_t c = 0; c < count; c++) {
    Commit& commit = commits[c];
    // Violating inserts: copies of live rows at the same address with a
    // bumped nationkey; they break the address-, name- and phone-keyed FDs.
    for (size_t i = 0; i < violating; i++) {
      const int64_t src = window[window.size() / 2 + rng.Uniform(window.size() / 2)];
      Row row = live.at(src);
      row[key] = Value(next_key++);
      row[nation] = Value(row[nation].AsInt() + 100 + static_cast<int64_t>(c % 7));
      commit.append.push_back(std::move(row));
    }
    // Clean inserts: fresh singleton groups under every FD key.
    for (size_t i = violating; i < delta; i++) {
      const int64_t uid = next_key++;
      const std::string tag = std::to_string(uid);
      commit.append.push_back({Value(uid), Value("delta customer " + tag),
                               Value("delta lane " + tag), Value(tag),
                               Value(static_cast<int64_t>(uid % 25))});
    }
    for (size_t i = 0; i < delta; i++) {
      commit.remove.insert(window.front());
      live.erase(window.front());
      window.pop_front();
    }
    for (const auto& row : commit.append) {
      window.push_back(row[key].AsInt());
      live.emplace(row[key].AsInt(), row);
    }
    // Updates: two live rows of the newer half get one shared new phone.
    while (commit.update.size() < 2) {
      commit.update.insert(window[window.size() / 2 + rng.Uniform(window.size() / 2)]);
    }
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%03llu-555-%04llu",
                  static_cast<unsigned long long>(900 + c % 100),
                  static_cast<unsigned long long>(rng.Uniform(10000)));
    commit.new_phone = buf;
  }
  return commits;
}

struct DeltaSession : QuerySession {
  /// The violation multiset the diff stream has built so far.
  Digest state;
};

RunResult RunDeltaStream(const Args& args) {
  const DeltaSizes sizes = DeltaSizing(args.smoke);
  const Dataset base =
      MakeCustomers({sizes.base_rows, sizes.base_rows / 100, 3, 1, 0.005}, args.seed);
  const size_t round_commits = std::max<size_t>(
      8, static_cast<size_t>(
             std::llround(args.seconds * sizes.commits_per_second / kReplayRounds)));
  // Commit 0 is the set-up's warm-up (it triggers the incremental path's
  // lazy bootstrap); commits 1..round_commits are the operations. Every
  // round replays them on a fresh session.
  std::vector<Commit> commits = MakeCommits(base, round_commits + 1, args.seed);
  const std::string query = EightFdQuery("customer");
  const size_t key = base.schema().IndexOf("custkey").ValueOrDie();
  RunResult out;
  out.replayed = true;

  BenchSink sink;
  std::vector<double> commit_ms, revalidate_ms;
  // Applies commit `c` and re-validates; false on a failed call or when the
  // diff stream disagrees with the state it updates.
  auto operation = [&](DeltaSession& s, const Commit& c, bool traced, Layers* layers) {
    std::vector<Row> append = c.append;  // copied outside the timed region
    OpTrace trace(traced);
    const Probe before = Probe::Take(*s.db);
    sink.Reset();
    sink.timed = traced;
    auto in = [&](const std::unordered_set<int64_t>& keys) {
      return [&keys, key](const Schema&, const Row& row) {
        return keys.count(row[key].AsInt()) > 0;
      };
    };
    const auto t0 = Clock::now();
    Status status;
    {
      TraceScope span("bench", "commit");
      auto appended = s.db->AppendRows("customer", std::move(append));
      auto removed = s.db->DeleteRows("customer", in(c.remove));
      auto updated = s.db->UpdateRows("customer", in(c.update),
                                      ValueStruct{{"phone", Value(c.new_phone)}});
      for (const Status& st : {appended.status(), removed.status(), updated.status()}) {
        if (status.ok() && !st.ok()) status = st;
      }
    }
    const auto t1 = Clock::now();
    if (status.ok()) {
      TraceScope span("bench", "revalidate");
      status = s.pq->ExecuteInto(sink);
    }
    const auto t2 = Clock::now();
    const double latency_ms = MsBetween(t0, t2);
    commit_ms.push_back(MsBetween(t0, t1));
    revalidate_ms.push_back(MsBetween(t1, t2));
    if (!status.ok()) {
      Fail("delta_stream: " + status.ToString());
      return std::make_pair(false, latency_ms);
    }
    const Probe after = Probe::Take(*s.db);
    const bool incremental =
        after.counters.incremental_executions > before.counters.incremental_executions;
    bool ok = true;
    if (incremental) {
      // previous − retracted + new must be exactly what was streamed.
      s.state.Remove(sink.retracted);
      s.state.Add(sink.fresh);
      ok = s.state == sink.digest.violations;
    } else {
      s.state = sink.digest.violations;
    }
    AddCounterLayers(CountersDelta(after.counters, before.counters),
                     after.cache.Since(before.cache), layers);
    if (traced) {
      layers->Add("storage.commit_ms", MsBetween(t0, t1));
      layers->Add("cleaning.revalidate_ms", MsBetween(t1, t2));
      AddTracedOpLayers(trace, sink, layers, &out.last_spans);
    }
    return std::make_pair(ok, latency_ms);
  };

  Layers discard;
  auto setup = [&](Layers* layers) -> std::unique_ptr<DeltaSession> {
    auto s = std::make_unique<DeltaSession>();
    s->db = std::make_unique<CleanDB>(SessionOptions());
    const auto t0 = Clock::now();
    s->db->RegisterTable("customer", base);
    layers->Add("storage.register_ms", MsBetween(t0, Clock::now()));
    const auto t1 = Clock::now();
    auto pq = s->db->Prepare(query);
    layers->Add("prepare.prepare_ms", MsBetween(t1, Clock::now()));
    if (!pq.ok()) {
      Fail("delta_stream: Prepare failed: " + pq.status().ToString());
      return nullptr;
    }
    s->pq.emplace(std::move(pq.value()));
    layers->Add("algebra.nests_coalesced", s->pq->nests_coalesced());
    sink.Reset();
    sink.timed = false;
    if (!s->pq->ExecuteInto(sink).ok()) return nullptr;  // cold bootstrap
    s->state = sink.digest.violations;
    if (!operation(*s, commits[0], false, &discard).first) return nullptr;  // warm-up
    return s;
  };
  auto session = MeasureRounds<DeltaSession>(
      args, kReplayRounds, round_commits, setup,
      [&](DeltaSession& s, size_t i, bool traced) {
        if (i == 0) {  // the growth ratios cover one round's commits
          commit_ms.clear();
          revalidate_ms.clear();
        }
        return operation(s, commits[i + 1], traced, &out.layers);
      },
      &out);
  if (!session) return out;
  out.layers.Add("storage.commit_growth", Growth(commit_ms));
  out.layers.Add("cleaning.revalidate_growth", Growth(revalidate_ms));
  out.layers.Add("physical.peak_materialized_mb", PeakMaterializedMb(*session->db));

  // Final gate: the state the diff stream built must equal a cold run on a
  // fresh session over the final table.
  auto final_table = session->db->GetTableShared("customer");
  const Digest streamed = session->state;
  session.reset();
  bool final_ok = final_table.ok();
  if (final_ok) {
    Result<ExecDigest> cold = ReferenceDigest(
        {{"customer", *final_table.value()}}, query, args.corrupt_reference);
    final_ok = cold.ok() && cold.value().violations == streamed;
  }
  if (!final_ok) {
    Fail("delta_stream: streamed violations differ from a cold run over the final table");
    out.failed++;
  }
  return out;
}

// ---- term_validation ----
//
// One operation: RegisterTable of the author occurrences and ExecuteInto of
// the CLUSTER BY term-validation query against the clean-name dictionary
// (the paper's E1–E3).

struct TermSizes {
  size_t publications;
  size_t author_pool;
  /// Author occurrences kept, so every seed does the same work; the
  /// publications always yield more.
  size_t occurrences;
};

TermSizes TermSizing(bool smoke) {
  if (smoke) return {120, 60, 250};
  return {450, 180, 1000};
}

struct TermInputs {
  Dataset authors;
  Dataset dictionary;
  /// Ground truth: noisy occurrence → clean name.
  std::map<std::string, std::string> truth;
};

/// Seed of the publications and their clean author pool, the same on every
/// run: CLUSTER BY's cost follows the tokens the pool's names share, and a
/// fresh pool of 180 names moved it by ±10% from seed to seed.
constexpr uint64_t kAuthorPoolSeed = 1;

/// --seed draws which occurrences are kept and in what order, and the
/// noise on exactly a tenth of them (as MakeDblp's own noise would, with
/// noise factor 0.2).
TermInputs MakeTermInputs(bool smoke, uint64_t seed) {
  const TermSizes sizes = TermSizing(smoke);
  datagen::DblpOptions options;
  options.rows = sizes.publications;
  options.author_pool = sizes.author_pool;
  options.noise_fraction = 0;
  options.duplicate_fraction = 0;
  options.seed = kAuthorPoolSeed;
  TermInputs in;
  in.authors = FlattenListColumn(datagen::MakeDblp(options, nullptr), "author").ValueOrDie();
  std::vector<Row>& rows = in.authors.mutable_rows();
  Rng rng(seed ^ 0x7e57);
  for (size_t i = rows.size(); i > 1; i--) std::swap(rows[i - 1], rows[rng.Uniform(i)]);
  rows.resize(std::min(rows.size(), sizes.occurrences));
  const size_t author = in.authors.schema().IndexOf("author").ValueOrDie();
  std::set<std::string> clean;
  for (size_t i = 0; i < rows.size(); i++) {
    const std::string name = rows[i][author].AsString();
    clean.insert(name);
    if (i % 10 != 0) continue;
    std::string noisy = datagen::AddNoise(name, 0.20, &rng);
    if (noisy != name) {
      in.truth.emplace(noisy, name);
      rows[i][author] = Value(std::move(noisy));
    }
  }
  in.dictionary = Dataset(Schema{{"author", ValueType::kString}});
  for (const auto& name : clean) in.dictionary.Append({Value(name)});
  return in;
}

/// Precision and recall of the suggested repairs against the ground truth.
std::pair<double, double> PrecisionRecall(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    const std::map<std::string, std::string>& truth) {
  size_t correct = 0;
  std::set<std::string> repaired;
  for (const auto& [term, suggestion] : pairs) {
    auto it = truth.find(term);
    if (it != truth.end() && it->second == suggestion) {
      correct++;
      repaired.insert(term);
    }
  }
  const double precision =
      pairs.empty() ? 1.0 : static_cast<double>(correct) / static_cast<double>(pairs.size());
  const double recall = truth.empty() ? 1.0
                                      : static_cast<double>(repaired.size()) /
                                            static_cast<double>(truth.size());
  return {precision, recall};
}

RunResult RunTermValidation(const Args& args) {
  const TermInputs in = MakeTermInputs(args.smoke, args.seed);
  RunResult out;
  Result<ExecDigest> ref = ReferenceDigest(
      {{"authors", in.authors}, {"dictionary", in.dictionary}}, kTermQuery,
      args.corrupt_reference);
  if (!ref.ok()) {
    Fail("term_validation: reference failed: " + ref.status().ToString());
    out.RecordFailure();
    return out;
  }
  const ExecDigest reference = ref.value();

  BenchSink sink;
  auto operation = [&](QuerySession& s, bool traced, Layers* layers) {
    Dataset authors = in.authors;  // copied outside the timed region
    OpTrace trace(traced);
    const Probe before = traced ? Probe::Take(*s.db) : Probe();
    sink.Reset();
    sink.timed = traced;
    const auto t0 = Clock::now();
    {
      TraceScope span("bench", "register");
      s.db->RegisterTable("authors", std::move(authors));
    }
    const auto t1 = Clock::now();
    Status status;
    {
      TraceScope span("bench", "execute");
      status = s.pq->ExecuteInto(sink);
    }
    const auto t2 = Clock::now();
    if (!status.ok()) Fail("term_validation: " + status.ToString());
    const bool ok = status.ok() && MatchesReference(sink.digest, reference, "term_validation");
    if (traced) {
      layers->Add("storage.register_ms", MsBetween(t0, t1));
      AddProbeDelta(before, *s.db, layers);
      AddTracedOpLayers(trace, sink, layers, &out.last_spans);
    }
    return std::make_pair(ok, MsBetween(t0, t2));
  };

  auto setup = [&](Layers* layers) -> std::unique_ptr<QuerySession> {
    auto s = std::make_unique<QuerySession>();
    s->db = std::make_unique<CleanDB>(SessionOptions());
    s->db->RegisterTable("dictionary", in.dictionary);
    s->db->RegisterTable("authors", in.authors);
    const auto t0 = Clock::now();
    auto pq = s->db->Prepare(kTermQuery);
    layers->Add("prepare.prepare_ms", MsBetween(t0, Clock::now()));
    if (!pq.ok()) {
      Fail("term_validation: Prepare failed: " + pq.status().ToString());
      return nullptr;
    }
    s->pq.emplace(std::move(pq.value()));
    layers->Add("algebra.nests_coalesced", s->pq->nests_coalesced());
    sink.keep_pairs = true;
    sink.pairs.clear();
    const bool ok = operation(*s, false, layers).first;  // warm-up
    sink.keep_pairs = false;
    if (!ok) return nullptr;
    return s;
  };

  auto session = MeasureRounds<QuerySession>(
      args, kRounds, 0, setup,
      [&](QuerySession& s, size_t, bool traced) { return operation(s, traced, &out.layers); },
      &out);
  if (!session) return out;
  // The pairs of the last set-up's warm-up operation.
  const auto [precision, recall] = PrecisionRecall(sink.pairs, in.truth);
  out.layers.Add("cluster.precision", precision);
  out.layers.Add("cluster.recall", recall);
  out.layers.Add("physical.peak_materialized_mb", PeakMaterializedMb(*session->db));
  return out;
}

// ---- Reporting ----

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the self-test checks it).
const MetricDef kEndToEnd[] = {
    {"latency_p50_ms", "ms"},   {"latency_tail_ms", "ms"}, {"throughput_ops_s", "1/s"},
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"storage.csv_parse_ms", "ms"},
    {"storage.register_ms", "ms"},
    {"storage.commit_ms", "ms"},
    {"storage.commit_growth", "ratio"},
    {"prepare.prepare_ms", "ms"},
    {"algebra.nests_coalesced", "count"},
    {"physical.nest_self_ms", "ms"},
    {"physical.select_self_ms", "ms"},
    {"physical.join_self_ms", "ms"},
    {"physical.unnest_self_ms", "ms"},
    {"physical.repartitions", "count"},
    {"physical.cache_hit_ratio", "ratio"},
    {"physical.peak_materialized_mb", "MB"},
    {"engine.rows_shuffled", "count"},
    {"engine.bytes_shuffled", "B"},
    {"engine.shuffle_batches", "count"},
    {"engine.groups_built", "count"},
    {"engine.morsels_processed", "count"},
    {"engine.shuffle_ms", "ms"},
    {"engine.net_model_ms", "ms"},
    {"engine.dispatches", "count"},
    {"engine.dispatch_ms", "ms"},
    {"engine.task_ms", "ms"},
    {"engine.dispatch_overhead_ms", "ms"},
    {"engine.node_imbalance", "ratio"},
    {"clause.fd_self_ms", "ms"},
    {"clause.dedup_self_ms", "ms"},
    {"clause.cluster_by_self_ms", "ms"},
    {"clause.execute_self_ms", "ms"},
    {"text.comparisons", "count"},
    {"cluster.precision", "ratio"},
    {"cluster.recall", "ratio"},
    {"cleaning.revalidate_ms", "ms"},
    {"cleaning.revalidate_growth", "ratio"},
    {"cleaning.incremental_ratio", "ratio"},
    {"cleaning.delta_rows_processed", "count"},
    {"cleaning.groups_remerged", "count"},
    {"cleaning.violations", "count"},
    {"cleaning.retracted", "count"},
    {"cleaning.new", "count"},
    {"cleaning.dirty_entities", "count"},
    {"cleaning.sink_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"bench.operations", "count"},
};

void PrintResult(const RunResult& r, const std::map<std::string, double>& values,
                 const MetricDef* defs, size_t n_defs) {
  std::string json = "{\"correct\": ";
  json += r.failed == 0 && r.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<size_t>(r.attempted, 1));
  json += ", \"failed\": " + std::to_string(r.attempted > 0 ? r.failed : 1);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < n_defs; i++) {
    auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    json += std::string(i ? ", " : "") + "\"" + defs[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// The latencies, and the completed operations per second, of the half of
/// the rounds with the lowest median latency, pooled. Pooling three rounds
/// keeps ~300 samples, so the 90th percentile is steadier than any one
/// round's.
std::pair<std::vector<double>, double> BestHalf(const std::vector<Round>& rounds) {
  std::vector<std::pair<double, const Round*>> by_median;
  for (const Round& round : rounds) by_median.emplace_back(Median(round.latency_ms), &round);
  std::sort(by_median.begin(), by_median.end());
  by_median.resize((by_median.size() + 1) / 2);
  std::vector<double> latency_ms;
  size_t completed = 0;
  double wall_s = 0;
  for (const auto& [median, round] : by_median) {
    latency_ms.insert(latency_ms.end(), round->latency_ms.begin(), round->latency_ms.end());
    completed += round->completed;
    wall_s += round->wall_s;
  }
  return {latency_ms, wall_s > 0 ? static_cast<double>(completed) / wall_s : 0};
}

/// For rounds that replay one operation sequence: the fastest latency at
/// every operation index across the rounds, and the operations per second
/// of a closed loop in which every operation takes that latency. A
/// regression that slows an operation in every round still shows in full.
std::pair<std::vector<double>, double> FastestByIndex(const std::vector<Round>& rounds) {
  std::vector<double> fastest;
  for (const Round& round : rounds) {
    if (fastest.empty()) {
      fastest = round.latency_ms;
      continue;
    }
    fastest.resize(std::min(fastest.size(), round.latency_ms.size()));
    for (size_t i = 0; i < fastest.size(); i++) {
      fastest[i] = std::min(fastest[i], round.latency_ms[i]);
    }
  }
  double busy_ms = 0;
  for (double ms : fastest) busy_ms += ms;
  return {fastest, busy_ms > 0 ? 1000.0 * static_cast<double>(fastest.size()) / busy_ms : 0};
}

std::map<std::string, double> EndToEndValues(const RunResult& r) {
  const auto [latency_ms, ops_s] = r.replayed ? FastestByIndex(r.rounds) : BestHalf(r.rounds);
  return {
      {"latency_p50_ms", Median(latency_ms)},
      {"latency_tail_ms", Percentile(latency_ms, kTailPercentile)},
      {"throughput_ops_s", ops_s},
      {"setup_s", Median(r.setup_s)},
      {"peak_rss_mb", r.peak_rss_mb},
  };
}

std::map<std::string, double> PerLayerValues(const RunResult& r) {
  std::map<std::string, double> values;
  for (const auto& [name, samples] : r.layers.samples) values[name] = Median(samples);
  // Ratios over the whole run rather than medians of per-operation 0/1s.
  auto mean = [&](const char* name) {
    auto it = r.layers.samples.find(name);
    if (it == r.layers.samples.end() || it->second.empty()) return 0.0;
    double sum = 0;
    for (double v : it->second) sum += v;
    return sum / static_cast<double>(it->second.size());
  };
  values["cleaning.incremental_ratio"] = mean("cleaning.incremental");
  values["physical.cache_hit_ratio"] = mean("physical.cache_hit_ratio");
  values.erase("cleaning.incremental");
  values["trace.overhead_ms"] = Median(r.traced_latency_ms) - Median(r.latency_ms);
  values["bench.operations"] = static_cast<double>(r.attempted);
  return values;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  RunResult result;
  if (args.workload == "batch_clean") {
    result = RunBatchClean(args);
  } else if (args.workload == "delta_stream") {
    result = RunDeltaStream(args);
  } else if (args.workload == "term_validation") {
    result = RunTermValidation(args);
  } else {
    Usage("unknown workload " + args.workload);
  }
  if (!result.last_spans.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(kTraceDir, ec);
    const std::string path = std::string(kTraceDir) + "/" + args.workload + ".trace.json";
    const Status st = QueryProfile::Build(result.last_spans, {}, 2.0).WriteChromeTrace(path);
    if (!st.ok()) Fail("writing " + path + ": " + st.ToString());
  }
  std::fprintf(stderr,
               "cleanbench: %s seed=%llu ops=%zu failed=%zu rounds=%zu setup=%.3fs\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               result.attempted, result.failed, result.rounds.size(), Median(result.setup_s));
  std::string round_medians;
  for (const Round& round : result.rounds) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.3f", Median(round.latency_ms));
    round_medians += buf;
  }
  std::fprintf(stderr, "cleanbench: round median latencies (ms):%s\n", round_medians.c_str());
  if (args.trace) {
    PrintResult(result, PerLayerValues(result), kPerLayer,
                sizeof(kPerLayer) / sizeof(kPerLayer[0]));
  } else {
    PrintResult(result, EndToEndValues(result), kEndToEnd,
                sizeof(kEndToEnd) / sizeof(kEndToEnd[0]));
  }
  return 0;
}

}  // namespace
}  // namespace cleanm::bench

int main(int argc, char** argv) { return cleanm::bench::Main(argc, argv); }
