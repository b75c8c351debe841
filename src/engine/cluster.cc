#include "engine/cluster.h"

#include <chrono>
#include <mutex>
#include <thread>

#include "common/trace.h"

namespace cleanm::engine {

namespace {
/// Per-thread metrics destination installed by MetricsScope; nullptr means
/// "charge the cluster's session-cumulative counters".
thread_local QueryMetrics* tls_metrics = nullptr;
}  // namespace

MetricsScope::MetricsScope(QueryMetrics* metrics) : prev_(tls_metrics) {
  tls_metrics = metrics;
}

MetricsScope::~MetricsScope() { tls_metrics = prev_; }

QueryMetrics* MetricsScope::Current() { return tls_metrics; }

QueryMetrics& Cluster::metrics() const {
  return tls_metrics ? *tls_metrics : metrics_;
}

Cluster::Cluster(ClusterOptions options)
    : options_(options), active_nodes_(options.num_nodes) {
  CLEANM_CHECK(options_.num_nodes > 0);
  CLEANM_CHECK(options_.shuffle_batch_rows > 0);
  if (options_.use_worker_pool) {
    pool_ = std::make_unique<WorkerPool>(options_.num_nodes);
  }
  fault_ = std::make_unique<FaultInjector>(options_.num_nodes, options_.fault);
}

void Cluster::SetFaultOptions(const FaultOptions& options) {
  options_.fault = options;
  fault_->SetOptions(options);
}

void Cluster::RunWithFaults(size_t n,
                            const std::function<void(size_t)>& body) const {
  // Epoch-boundary cancellation: a cancelled or overdue execution stops
  // before dispatching more per-node work.
  if (const ExecControl* control = ExecControlScope::Current()) {
    Status st = control->Check();
    if (!st.ok()) throw StatusException(std::move(st));
  }
  if (!fault_->options().enabled()) {
    body(n);
    return;
  }
  const FaultOptions& fo = fault_->options();
  for (size_t attempt = 0;; attempt++) {
    FaultInjector::AttemptOutcome outcome = fault_->OnTaskAttempt(n);
    if (outcome.newly_blacklisted) metrics().nodes_blacklisted += 1;
    if (!outcome.fail) {
      // The attempt starts clean: an injected failure fires *before* the
      // task body, so no partial output from a failed attempt survives and
      // this (re-)execution rebuilds node n's partial from scratch.
      body(n);
      return;
    }
    metrics().tasks_failed += 1;
    if (attempt >= fo.max_task_retries) {
      throw NodeUnavailableError(
          n, "node " + std::to_string(n) + " unavailable after " +
                 std::to_string(attempt + 1) + " task attempts");
    }
    metrics().tasks_retried += 1;
    if (fo.retry_backoff_ns > 0) {
      const uint64_t backoff = fo.retry_backoff_ns
                               << (attempt < 6 ? attempt : 6);
      TraceScope backoff_span("fault", "retry_backoff", nullptr,
                              static_cast<int>(n));
      std::this_thread::sleep_for(std::chrono::nanoseconds(backoff));
    }
  }
}

size_t Cluster::SurvivorFor(size_t dst) const {
  if (!fault_->AnyBlacklisted()) return dst;
  const size_t n = active_nodes_;
  for (size_t k = 0; k < n; k++) {
    const size_t candidate = (dst + k) % n;
    if (!fault_->blacklisted(candidate)) return candidate;
  }
  return dst;  // every node blacklisted: keep the original routing
}

void Cluster::SetActiveNodes(size_t n) {
  if (n < 1) n = 1;
  if (n > options_.num_nodes) n = options_.num_nodes;
  active_nodes_ = n;
}

void Cluster::SetShuffleCost(double ns_per_byte, double ns_per_batch) {
  options_.shuffle_ns_per_byte = ns_per_byte;
  options_.shuffle_ns_per_batch = ns_per_batch;
}

void Cluster::SetShuffleBatchRows(size_t rows) {
  // Clamp like SetActiveNodes: a 0 from ExecOptions means row-at-a-time,
  // not a session abort.
  options_.shuffle_batch_rows = rows < 1 ? 1 : rows;
}

void Cluster::RunOnNodes(const std::function<void(size_t)>& fn) const {
  const size_t active = active_nodes_;
  // Workers (and legacy spawned threads) run the dispatching driver's
  // closures, so they must charge that driver's per-execution metrics (and
  // observe its cancellation sources), not whatever the worker thread last
  // saw.
  QueryMetrics* driver_metrics = MetricsScope::Current();
  const ExecControl* driver_control = ExecControlScope::Current();
  // Like the metrics/control scopes, tracing context propagates explicitly:
  // the dispatch span opens driver-side, and each per-node task re-installs
  // the driver's recorder so its "task" span parents under the dispatch.
  TraceScope dispatch_span("cluster", "dispatch");
  TraceRecorder* driver_rec = TraceRecorderScope::Current();
  const uint64_t trace_parent = TraceRecorderScope::CurrentParent();
  const auto task = [this, &fn, active, driver_metrics, driver_control,
                     driver_rec, trace_parent](size_t n) {
    MetricsScope scope(driver_metrics);
    ExecControlScope control_scope(driver_control);
    TraceRecorderScope trace_scope(driver_rec, trace_parent);
    TraceScope task_span("cluster", "task", nullptr, static_cast<int>(n));
    if (n < active) RunWithFaults(n, fn);
  };
  if (pool_ && (pool_->OnWorkerThread() || pool_->TryAcquireDriver())) {
    // On a worker thread this is a nested dispatch (runs inline inside
    // Run); otherwise this session just became the pool's driver.
    pool_->Run(task);
    return;
  }
  // Spawn-per-call: one fresh thread per node per operator call. Two users:
  //  * the legacy execution model (use_worker_pool = false), kept as the
  //    A/B baseline for the dispatch-latency microbenchmark and CI gate;
  //  * a driver session that lost the pool to another session. Spawning
  //    (instead of queueing behind the owner, or running the node loop
  //    sequentially inline) keeps concurrent sessions independent AND keeps
  //    their per-node work parallel — without it, each non-owner execution
  //    serializes its own simulated-network sleeps and the sessions gain
  //    nothing from overlapping. Engine operators are deterministic under
  //    any node scheduling, so results are identical on either substrate.
  // Exceptions propagate to the caller, matching the pool's contract.
  std::mutex error_mu;
  std::exception_ptr first_error;
  std::vector<std::thread> workers;
  workers.reserve(active);
  for (size_t n = 0; n < active; n++) {
    workers.emplace_back([&task, &error_mu, &first_error, n] {
      try {
        task(n);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& w : workers) w.join();
  if (first_error) std::rethrow_exception(first_error);
}

uint64_t PartitionLogicalBytes(const Partition& rows) {
  uint64_t bytes = 0;
  for (const auto& row : rows) bytes += RowByteSize(row);
  return bytes;
}

uint64_t PartitionedLogicalBytes(const Partitioned& data) {
  uint64_t bytes = 0;
  for (const auto& partition : data) bytes += PartitionLogicalBytes(partition);
  return bytes;
}

Partitioned Cluster::Parallelize(const std::vector<Row>& rows) const {
  Partitioned out(active_nodes_);
  const size_t per_node = rows.size() / active_nodes_ + 1;
  for (auto& p : out) p.reserve(per_node);
  for (size_t i = 0; i < rows.size(); i++) {
    out[SurvivorFor(i % active_nodes_)].push_back(rows[i]);
  }
  metrics().rows_scanned += rows.size();
  return out;
}

std::vector<Row> Cluster::Collect(const Partitioned& data) const {
  std::vector<Row> out;
  out.reserve(TotalRows(data));
  for (const auto& p : data) {
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

size_t Cluster::TotalRows(const Partitioned& data) {
  size_t n = 0;
  for (const auto& p : data) n += p.size();
  return n;
}

LoadReport Cluster::Load(const Partitioned& data) const {
  LoadReport report;
  report.rows_per_node.reserve(data.size());
  for (const auto& p : data) report.rows_per_node.push_back(p.size());
  return report;
}

Partitioned Cluster::Map(const Partitioned& in,
                         const std::function<Row(const Row&)>& fn) const {
  Partitioned out(in.size());
  RunOnNodes([&](size_t n) {
    out[n].reserve(in[n].size());
    for (const auto& row : in[n]) out[n].push_back(fn(row));
  });
  return out;
}

Partitioned Cluster::Filter(const Partitioned& in,
                            const std::function<bool(const Row&)>& pred) const {
  Partitioned out(in.size());
  RunOnNodes([&](size_t n) {
    for (const auto& row : in[n]) {
      if (pred(row)) out[n].push_back(row);
    }
  });
  return out;
}

void Cluster::ChargeNetwork(uint64_t bytes, uint64_t batches) const {
  const double ns = static_cast<double>(bytes) * options_.shuffle_ns_per_byte +
                    static_cast<double>(batches) * options_.shuffle_ns_per_batch;
  if (ns <= 0) return;
  auto remaining = std::chrono::nanoseconds(static_cast<int64_t>(ns));
  if (remaining.count() <= 0) return;
  TraceScope net_span("cluster", "network");
  // Sleep in slices so a deadline or cancellation interrupts a
  // network-dominated epoch promptly instead of after the whole transfer.
  const ExecControl* control = ExecControlScope::Current();
  const auto slice = std::chrono::milliseconds(1);
  while (remaining.count() > 0) {
    if (control) {
      Status st = control->Check();
      if (!st.ok()) throw StatusException(std::move(st));
    }
    const auto chunk = control && remaining > slice
                           ? std::chrono::nanoseconds(slice)
                           : remaining;
    std::this_thread::sleep_for(chunk);
    remaining -= chunk;
  }
}

namespace {
/// One source node's outgoing rows for one destination, pending flush.
struct ShuffleBuffer {
  Partition rows;
  uint64_t bytes = 0;  ///< remote bytes staged (0 when dst == src)
};
}  // namespace

Partitioned Cluster::Shuffle(const Partitioned& in,
                             const std::function<uint64_t(const Row&)>& route) {
  TraceScope shuffle_span("cluster", "shuffle");
  shuffle_span.SetRows(TotalRows(in), TotalRows(in));
  const size_t n_nodes = active_nodes_;
  const size_t batch_rows = options_.shuffle_batch_rows;
  // staged[src][dst] holds the flushed batches in routing order, so the
  // destination splice below reproduces the exact row order of an
  // unbatched, source-major shuffle (determinism the e2e cross-checks
  // rely on).
  std::vector<std::vector<std::vector<Partition>>> staged(
      in.size(), std::vector<std::vector<Partition>>(n_nodes));
  RunOnNodes([&](size_t src) {
    if (src >= in.size()) return;
    std::vector<ShuffleBuffer> buffers(n_nodes);
    uint64_t rows_sent = 0;
    auto flush = [&](size_t dst) {
      ShuffleBuffer& b = buffers[dst];
      if (b.rows.empty()) return;
      if (dst != src) {
        metrics().bytes_shuffled += b.bytes;
        metrics().shuffle_batches += 1;
        ChargeNetwork(b.bytes, 1);
      }
      staged[src][dst].push_back(std::move(b.rows));
      b.rows = Partition();
      b.bytes = 0;
    };
    for (const auto& row : in[src]) {
      const size_t dst = SurvivorFor(route(row) % n_nodes);
      ShuffleBuffer& b = buffers[dst];
      if (dst != src) {
        b.bytes += RowByteSize(row);
        rows_sent++;
      }
      b.rows.push_back(row);
      if (b.rows.size() >= batch_rows) flush(dst);
    }
    for (size_t dst = 0; dst < n_nodes; dst++) flush(dst);
    metrics().rows_shuffled += rows_sent;
  });

  Partitioned result(n_nodes);
  RunOnNodes([&](size_t dst) {
    size_t total = 0;
    for (const auto& src : staged) {
      for (const auto& batch : src[dst]) total += batch.size();
    }
    result[dst].reserve(total);
    for (auto& src : staged) {
      for (auto& batch : src[dst]) {
        for (auto& row : batch) result[dst].push_back(std::move(row));
      }
    }
  });
  return result;
}

Partition Cluster::BroadcastAll(const Partitioned& in) {
  TraceScope broadcast_span("cluster", "broadcast");
  broadcast_span.SetRows(TotalRows(in), TotalRows(in));
  const size_t n_nodes = active_nodes_;
  const size_t receivers = n_nodes - 1;
  // Offsets let every source copy its slice into the shared result
  // concurrently (the "receive work" of the broadcast).
  std::vector<size_t> offset(in.size() + 1, 0);
  for (size_t i = 0; i < in.size(); i++) offset[i + 1] = offset[i] + in[i].size();
  Partition all(offset.back());
  // Strided over workers so every partition is covered even when the input
  // holds more partitions than this cluster has nodes.
  RunOnNodes([&](size_t worker) {
    for (size_t src = worker; src < in.size(); src += n_nodes) {
      if (in[src].empty()) continue;
      uint64_t bytes = 0;
      size_t pos = offset[src];
      for (const auto& row : in[src]) {
        bytes += RowByteSize(row);
        all[pos++] = row;
      }
      if (receivers == 0) continue;
      // Every other node receives a full copy of this source's slice; each
      // (source, receiver) transfer moves ceil(rows / batch) batches.
      const uint64_t batches_per_receiver =
          (in[src].size() + options_.shuffle_batch_rows - 1) /
          options_.shuffle_batch_rows;
      metrics().rows_shuffled += in[src].size() * receivers;
      metrics().bytes_shuffled += bytes * receivers;
      metrics().shuffle_batches += batches_per_receiver * receivers;
      ChargeNetwork(bytes * receivers, batches_per_receiver * receivers);
    }
  });
  return all;
}

}  // namespace cleanm::engine
