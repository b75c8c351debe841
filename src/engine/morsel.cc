// Morsel-driven pipelining over the persistent worker pools.
//
// The pumps move fixed-size row batches ("morsels") from a resident source
// Partitioned through a per-row expansion to a consumer, instead of
// materializing the whole transformed output (paper-level motivation: one
// pass over huge dirty data should hold one morsel per node in memory, not
// an operator's full result). PumpToDriver hands morsels to the calling
// thread in deterministic node-major order through bounded per-node queues,
// so producers pipeline ahead of the consumer by a fixed window;
// PumpOnWorkers keeps consumption on the producing worker for node-local
// breaker state (aggregation folds).
//
// Materialization accounting: the instantaneous set of in-flight morsels
// depends on thread timing, so charging them live would make
// peak_bytes_materialized nondeterministic run to run. Instead each node
// tracks its largest morsel, and the pump folds the deterministic
// worst-case bound — every node simultaneously holding its largest morsel
// at every pipeline slot (the build buffer plus, for PumpToDriver, the
// queue window) — into the peak once the pump drains.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "common/trace.h"
#include "engine/cluster.h"

namespace cleanm::engine {

namespace {

/// One node's flushed-but-unconsumed morsels (PumpToDriver).
struct MorselQueue {
  std::deque<Partition> morsels;
  bool done = false;
};

/// Per-node morsel-size statistics for the in-flight bound.
struct MorselStats {
  uint64_t max_bytes = 0;    ///< largest single morsel
  uint64_t total_bytes = 0;  ///< whole stream (an in-flight cap)
  void Observe(uint64_t bytes) {
    if (bytes > max_bytes) max_bytes = bytes;
    total_bytes += bytes;
  }
};

/// Folds the per-node worst-case in-flight bound into the peak gauge: every
/// node simultaneously holding its largest morsel at every pipeline slot,
/// capped by the node's total stream (in-flight can never exceed what the
/// node produces overall).
void ChargeInFlightBound(QueryMetrics& metrics, const std::vector<MorselStats>& stats,
                         uint64_t slots_per_node) {
  uint64_t bound = 0;
  for (const MorselStats& s : stats) {
    bound += std::min(s.max_bytes * slots_per_node, s.total_bytes);
  }
  if (bound == 0) return;
  metrics.ChargeMaterialized(bound);
  metrics.ReleaseMaterialized(bound);
}

/// One node's produce loop, shared by every pump mode: expand rows into a
/// morsel buffer, hand each full morsel (and the final partial one) to
/// `flush`. `flush` observes a non-empty buffer, consumes or queues it, and
/// returns false to stop producing early (abort / sink error); `stop`, when
/// given, is polled per row for cross-thread aborts. Morsel-size stats are
/// observed here so every mode feeds the in-flight bound identically.
template <typename Flush>
void ProduceNode(const Partition& rows, size_t morsel_rows,
                 const MorselExpand& expand, size_t n, MorselStats* node_stats,
                 const std::atomic<bool>* stop, Flush&& flush) {
  Partition buf;
  auto emit = [&]() -> bool {
    if (buf.empty()) return true;
    node_stats->Observe(PartitionLogicalBytes(buf));
    if (!flush(&buf)) return false;
    buf = Partition();
    return true;
  };
  for (const auto& row : rows) {
    if (stop && stop->load(std::memory_order_relaxed)) break;
    expand(n, row, &buf);
    if (buf.size() >= morsel_rows && !emit()) return;
  }
  emit();
}

}  // namespace

void Cluster::PumpOnWorkers(
    const Partitioned& source, const MorselSpec& spec, const MorselExpand& expand,
    const std::function<void(size_t node, Partition&&)>& consume) const {
  const size_t morsel_rows = spec.morsel_rows < 1 ? 1 : spec.morsel_rows;
  TraceScope pump_span("pipeline", "pump_workers");
  std::vector<MorselStats> stats(options_.num_nodes);
  RunOnNodes([&](size_t n) {
    if (n >= source.size()) return;
    ProduceNode(source[n], morsel_rows, expand, n, &stats[n], nullptr,
                [&](Partition* buf) {
                  metrics().morsels_processed += 1;
                  consume(n, std::move(*buf));
                  return true;
                });
  });
  ChargeInFlightBound(metrics(), stats, /*slots_per_node=*/1);
}

Status Cluster::PumpToDriver(
    const Partitioned& source, const MorselSpec& spec, const MorselExpand& expand,
    const std::function<Status(size_t node, Partition&&)>& consume) {
  const size_t n_nodes = options_.num_nodes;
  const size_t morsel_rows = spec.morsel_rows < 1 ? 1 : spec.morsel_rows;
  const size_t window = spec.queue_window < 1 ? 1 : spec.queue_window;
  TraceScope pump_span("pipeline", "pump");
  std::vector<MorselStats> stats(n_nodes);

  // Nested invocation (an operator running inside a worker task): drive the
  // pipeline inline on the calling thread, interleaving produce and consume
  // per morsel — same order, no concurrency. The worker's own pool is busy
  // with the enclosing epoch, so its producers could not run beside this
  // drain loop.
  const ExecControl* exec_control = ExecControlScope::Current();
  PoolLease lease(*this);
  if (lease.nested()) {
    Status status = Status::OK();
    for (size_t n = 0; n < n_nodes && n < source.size() && status.ok(); n++) {
      if (exec_control && !(status = exec_control->Check()).ok()) break;
      ProduceNode(source[n], morsel_rows, expand, n, &stats[n], nullptr,
                  [&](Partition* buf) {
                    metrics().morsels_processed += 1;
                    status = consume(n, std::move(*buf));
                    return status.ok();
                  });
    }
    ChargeInFlightBound(metrics(), stats, /*slots_per_node=*/1);
    return status;
  }

  std::mutex mu;
  std::condition_variable cv_space;  ///< producers: a queue slot freed / abort
  std::condition_variable cv_data;   ///< driver: a morsel arrived / a node done
  std::vector<MorselQueue> queues(n_nodes);
  // Written under mu (so cv waits cannot miss the flip); read locklessly in
  // the producers' row loops.
  std::atomic<bool> abort{false};

  // Producers run on the leased pool's workers but charge the dispatching
  // driver's per-execution metrics and observe its cancellation sources.
  // Each node's produce loop is one task attempt through the fault
  // injector: an injected failure fires before any morsel is flushed, so
  // the retry re-produces that node's stream from the start with the queue
  // still empty — delivery stays bit-identical.
  QueryMetrics* driver_metrics = MetricsScope::Current();
  TraceRecorder* driver_rec = TraceRecorderScope::Current();
  const uint64_t trace_parent = TraceRecorderScope::CurrentParent();
  auto produce = [&, driver_metrics, exec_control, driver_rec,
                  trace_parent](size_t n) {
    MetricsScope metrics_scope(driver_metrics);
    ExecControlScope control_scope(exec_control);
    TraceRecorderScope trace_scope(driver_rec, trace_parent);
    TraceScope produce_span("pipeline", "produce", nullptr,
                            static_cast<int>(n));
    auto mark_done = [&] {
      std::lock_guard<std::mutex> lock(mu);
      queues[n].done = true;
      cv_data.notify_all();
    };
    try {
      if (n < source.size()) {
        RunWithFaults(n, [&](size_t node) {
          ProduceNode(source[node], morsel_rows, expand, node, &stats[node],
                      &abort,
                      [&](Partition* buf) {  // false: aborted, stop producing
                        std::unique_lock<std::mutex> lock(mu);
                        cv_space.wait(lock, [&] {
                          return queues[node].morsels.size() < window || abort;
                        });
                        if (abort) return false;
                        metrics().morsels_processed += 1;
                        queues[node].morsels.push_back(std::move(*buf));
                        cv_data.notify_all();
                        return true;
                      });
        });
      }
      mark_done();
    } catch (...) {
      mark_done();  // never leave the driver waiting on a dead producer
      throw;        // captured by the pool, rethrown by Wait()
    }
  };

  auto abort_producers = [&] {
    std::lock_guard<std::mutex> lock(mu);
    abort = true;
    cv_space.notify_all();
  };

  // Drain node-major on this thread; stop producing on the first sink
  // error. A *throwing* consume must not unwind past the stack-local
  // queues while producers still touch them: abort and join first, then
  // rethrow (the driver's exception outranks any worker error). Joining
  // first also keeps the lease until the epoch has drained.
  lease.pool().Dispatch(produce);
  Status status = Status::OK();
  try {
    for (size_t n = 0; n < n_nodes && status.ok(); n++) {
      for (;;) {
        Partition morsel;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv_data.wait(lock, [&] {
            return !queues[n].morsels.empty() || queues[n].done;
          });
          if (queues[n].morsels.empty()) break;  // node finished
          morsel = std::move(queues[n].morsels.front());
          queues[n].morsels.pop_front();
          cv_space.notify_all();
        }
        // Morsel-boundary cancellation: stop consuming (and producing) as
        // soon as the execution is cancelled or overdue.
        if (exec_control) status = exec_control->Check();
        if (status.ok()) status = consume(n, std::move(morsel));
        if (!status.ok()) {
          abort_producers();
          break;
        }
      }
    }
  } catch (...) {
    abort_producers();
    try {
      lease.pool().Wait();
    } catch (...) {
    }
    throw;
  }

  // Wait out the producers (on abort they observe the flag and exit).
  lease.pool().Wait();
  // Worst case in flight: every node's largest morsel at every slot — the
  // queue window plus the one being built — plus the one crossing to the
  // driver.
  ChargeInFlightBound(metrics(), stats, /*slots_per_node=*/window + 2);
  return status;
}

}  // namespace cleanm::engine
