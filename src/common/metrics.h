// Execution metrics collected by the virtual cluster.
//
// The paper's evaluation reasons about shuffle traffic and per-node load
// (skew); since our substrate is a thread-based simulator rather than a real
// network, these counters are the observable equivalent of "cross-node
// traffic" and "node lag" (see DESIGN.md, Substitutions).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace cleanm {

// Single source of truth for the engine counter fields. Every per-field
// operation (declaration, ToString, operator==, Accumulate, Reset, Snapshot,
// the Prometheus exporter) is generated from this list, so adding a counter
// is a one-line change that cannot be silently dropped from any of them.
//
// X(name, Fold) — Fold selects how Accumulate combines the field across
// executions: Add for plain additive counts, Max for high-water marks
// (concurrent executions each report their own peak; summing them would
// claim memory that was never live at once).
//
// Field semantics:
//   rows_shuffled / bytes_shuffled — cross-node traffic routed by Shuffle
//     and BroadcastAll.
//   shuffle_batches — network messages: one per flushed remote
//     (source, destination) batch.
//   comparisons — pairwise similarity checks.
//   rows_scanned — rows pushed through Cluster::Parallelize.
//   groups_built — Nest/aggregate hash groups finalized per node.
//   udf_calls — registered user-function invocations (scalar, repair, and
//     aggregate unit/merge calls) on the physical path.
//   repairs_applied — cells overwritten by the repair applier (src/repair/).
//   peak_bytes_materialized — high-water mark of *logical* bytes
//     (RowByteSize, the same accounting the shuffle meter and the partition
//     cache use) held in transient buffers at any instant of the execution:
//     in-flight morsels, breaker outputs (join inputs and results), and the
//     driver-side collected result. Cache-resident partitionings (scans,
//     shared Nest outputs) and breaker-internal state (aggregation hash
//     tables, shuffle buffers) are excluded.
//   morsels_processed — morsels flushed through the execution's morsel
//     pumps.
//   tasks_failed — task attempts that failed with an (injected)
//     node-unavailable fault.
//   tasks_retried — failed task attempts that were retried (per-node
//     partition re-execution; tasks_failed - tasks_retried were fatal).
//   nodes_blacklisted — nodes taken out of service after
//     node_blacklist_threshold consecutive failures; their partitions
//     re-shuffle across the surviving width.
//   rows_quarantined — poison rows recorded and skipped by the quarantine
//     instead of aborting the execution.
//   executions_cancelled — executions that ended with kCancelled or
//     kDeadlineExceeded.
//   bytes_spilled — bytes written to the execution's spill file by pipeline
//     breakers (Nest partials, hash-join build sides) and the partition
//     cache's page write-back. 0 when the run fit in the pool budget.
//   pages_evicted — buffer-pool frames dropped by its byte budget.
//   buffer_pool_hits / buffer_pool_misses — page pins served from resident
//     frames / read from disk.
//   delta_rows_processed — rows applied from table mutation delta logs
//     (added + removed), by the incremental validator and by the planner's
//     delta-extended scan path, instead of being re-partitioned from
//     scratch.
//   groups_remerged — cached Nest group partials updated in place by an
//     incremental re-validation: delta units folded into a copied
//     accumulator, or a touched group re-folded from its member bag.
//   incremental_executions — executions served by the incremental delta
//     path (cached group partials + delta merge) instead of a full run.
#define CLEANM_METRICS_FIELDS(X)    \
  X(rows_shuffled, Add)             \
  X(bytes_shuffled, Add)            \
  X(shuffle_batches, Add)           \
  X(comparisons, Add)               \
  X(rows_scanned, Add)              \
  X(groups_built, Add)              \
  X(udf_calls, Add)                 \
  X(repairs_applied, Add)           \
  X(peak_bytes_materialized, Max)   \
  X(morsels_processed, Add)         \
  X(tasks_failed, Add)              \
  X(tasks_retried, Add)             \
  X(nodes_blacklisted, Add)         \
  X(rows_quarantined, Add)          \
  X(executions_cancelled, Add)      \
  X(bytes_spilled, Add)             \
  X(pages_evicted, Add)             \
  X(buffer_pool_hits, Add)          \
  X(buffer_pool_misses, Add)        \
  X(delta_rows_processed, Add)      \
  X(groups_remerged, Add)           \
  X(incremental_executions, Add)

/// \brief Plain copyable point-in-time copy of the engine counters — the
/// form results and tests carry around (QueryMetrics itself is atomic and
/// non-copyable). Produced by QueryMetrics::Snapshot().
struct MetricsCounters {
#define CLEANM_X(name, fold) uint64_t name = 0;
  CLEANM_METRICS_FIELDS(CLEANM_X)
#undef CLEANM_X

  std::string ToString() const;

  friend bool operator==(const MetricsCounters& a, const MetricsCounters& b) {
    bool eq = true;
#define CLEANM_X(name, fold) eq = eq && a.name == b.name;
    CLEANM_METRICS_FIELDS(CLEANM_X)
#undef CLEANM_X
    return eq;
  }
  friend bool operator!=(const MetricsCounters& a, const MetricsCounters& b) {
    return !(a == b);
  }
};

/// Per-field saturating difference `after - before`. Used by the tracer to
/// attribute counter movement to the span that was open while it happened.
/// (The Max-fold peak field subtracts like the others; a span-level "peak
/// delta" is only meaningful when `before` was captured at a lower level.)
inline MetricsCounters CountersDelta(const MetricsCounters& after,
                                     const MetricsCounters& before) {
  MetricsCounters d;
#define CLEANM_X(name, fold) \
  d.name = after.name >= before.name ? after.name - before.name : 0;
  CLEANM_METRICS_FIELDS(CLEANM_X)
#undef CLEANM_X
  return d;
}

/// \brief Counters for one engine run. Thread-safe.
struct QueryMetrics {
#define CLEANM_X(name, fold) std::atomic<uint64_t> name{0};
  CLEANM_METRICS_FIELDS(CLEANM_X)
#undef CLEANM_X
  /// Live transient operator-output bytes right now (gauge); see
  /// peak_bytes_materialized above for what counts. Reset but never
  /// snapshotted — a finished execution's gauge is 0 by construction.
  std::atomic<uint64_t> bytes_materialized_now{0};

  /// Adds `bytes` of transient buffer to the gauge and folds the new level
  /// into the peak. Thread-safe (workers charge in-flight morsels).
  void ChargeMaterialized(uint64_t bytes) {
    const uint64_t now = bytes_materialized_now.fetch_add(bytes) + bytes;
    FoldMax(peak_bytes_materialized, now);
  }

  /// Removes a buffer charged by ChargeMaterialized from the gauge.
  void ReleaseMaterialized(uint64_t bytes) {
    bytes_materialized_now.fetch_sub(bytes);
  }

  /// Folds one completed execution's counters into a cumulative total,
  /// per-field Add or Max as declared in CLEANM_METRICS_FIELDS.
  void Accumulate(const MetricsCounters& s) {
#define CLEANM_X(name, fold) Fold##fold(name, s.name);
    CLEANM_METRICS_FIELDS(CLEANM_X)
#undef CLEANM_X
  }

  void Reset() {
#define CLEANM_X(name, fold) name = 0;
    CLEANM_METRICS_FIELDS(CLEANM_X)
#undef CLEANM_X
    bytes_materialized_now = 0;
  }

  MetricsCounters Snapshot() const {
    MetricsCounters s;
#define CLEANM_X(name, fold) s.name = name.load();
    CLEANM_METRICS_FIELDS(CLEANM_X)
#undef CLEANM_X
    return s;
  }

  std::string ToString() const { return Snapshot().ToString(); }

 private:
  static void FoldAdd(std::atomic<uint64_t>& a, uint64_t v) { a += v; }
  static void FoldMax(std::atomic<uint64_t>& a, uint64_t v) {
    uint64_t cur = a.load();
    while (v > cur && !a.compare_exchange_weak(cur, v)) {
    }
  }
};

/// \brief Per-node load sample used to quantify skew-induced imbalance.
struct LoadReport {
  std::vector<uint64_t> rows_per_node;

  /// max/mean load ratio; 1.0 = perfectly balanced.
  double ImbalanceFactor() const {
    if (rows_per_node.empty()) return 1.0;
    uint64_t mx = 0, sum = 0;
    for (uint64_t r : rows_per_node) {
      mx = mx > r ? mx : r;
      sum += r;
    }
    if (sum == 0) return 1.0;
    const double mean = static_cast<double>(sum) / rows_per_node.size();
    return static_cast<double>(mx) / mean;
  }
};

}  // namespace cleanm
