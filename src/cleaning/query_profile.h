// QueryProfile: the EXPLAIN ANALYZE surface over one execution's trace.
//
// ExecutePrepared (with ExecOptions::profile on) installs a TraceRecorder,
// runs the plans, drains the spans, and builds one of these. The profile is
// the span tree restricted to category=="operator": one OperatorProfile per
// operator-span *instance*, carrying wall/self time, rows in/out, the
// per-node row and time distribution (with LoadReport::ImbalanceFactor skew
// flags), and the engine-counter movement attributed to the operator.
//
// Counter attribution is exact by construction: driver-side operator spans
// are sequential and properly nested, and each captured a MetricsCounters
// delta between open and close. self = inclusive − Σ direct operator
// children, so Σ self_counters over the whole tree equals the root
// ("execute") span's delta — the flat QueryResult::metrics the CI gate
// reconciles against.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"

namespace cleanm {

/// \brief One operator-span instance in the profile tree.
struct OperatorProfile {
  /// Span name: the algebra kind ("Nest", "Join", ...) or "execute" (root).
  std::string name;
  /// Cleaning-operation label ("FD", "DEDUP_2", ...) when the span's plan
  /// node is one of the prepared query's roots; empty otherwise.
  std::string label;
  uint64_t start_ns = 0;
  uint64_t wall_ns = 0;  ///< inclusive duration
  uint64_t self_ns = 0;  ///< wall minus direct operator children
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  /// Per-node row distribution (Nest routing / partition sizes); empty when
  /// the operator recorded none.
  std::vector<uint64_t> node_rows;
  /// Per-node worker time directly under this operator (task / produce
  /// spans, nested operator work excluded). Indexed by node id; empty when
  /// no worker span ran under it.
  std::vector<uint64_t> node_time_ns;
  /// max/mean of node_rows (LoadReport::ImbalanceFactor); 1.0 when empty.
  double imbalance = 1.0;
  /// imbalance exceeded Build's skew_warn_factor (kSkewWarnFactor on the
  /// session path).
  bool skew_warning = false;
  /// Engine-counter movement while the span was open (inclusive).
  MetricsCounters counters;
  /// counters minus the direct operator children's — this operator's own
  /// movement. Sums to totals() across the tree.
  MetricsCounters self_counters;
  /// Indices into QueryProfile::operators() of direct operator children.
  std::vector<size_t> children;
};

/// \brief Per-operator profile of one execution, plus the raw span tree.
/// Cheap to copy around via shared_ptr on QueryResult; Build() is called
/// once, after the execution has drained its recorder.
class QueryProfile {
 public:
  /// Builds the profile from a drained span list. `op_labels` maps plan-node
  /// identity (the AlgOp* recorded in TraceSpan::op) to the cleaning
  /// operation's display name. `skew_warn_factor` is the imbalance threshold
  /// above which a node-row distribution is flagged.
  static QueryProfile Build(std::vector<TraceSpan> spans,
                            const std::map<const void*, std::string>& op_labels,
                            double skew_warn_factor);

  const std::vector<OperatorProfile>& operators() const { return operators_; }
  /// Indices of operator-tree roots (normally one: the "execute" span).
  const std::vector<size_t>& roots() const { return roots_; }
  /// The full drained span list (all categories), start-ordered.
  const std::vector<TraceSpan>& spans() const { return spans_; }

  /// Σ self_counters over all operators — reconciles exactly with the flat
  /// QueryResult::metrics movement of the run (see header comment).
  MetricsCounters totals() const;

  /// EXPLAIN ANALYZE rendering: the operator tree, indented, with wall/self
  /// time, row counts, per-node breakdown, and SKEW flags.
  std::string ToString() const;

  /// The operator tree as a JSON object (machine-readable ToString).
  std::string ToJson() const;

  /// All spans as a Chrome/Perfetto trace_event JSON array ("X" events; one
  /// track per (node, thread): pid = node + 1 with the driver at pid 0,
  /// tid = the recording thread's ordinal).
  std::string ChromeTraceJson() const;

  /// Writes ChromeTraceJson() to `path` (load via chrome://tracing or
  /// ui.perfetto.dev).
  Status WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<OperatorProfile> operators_;
  std::vector<size_t> roots_;
  std::vector<TraceSpan> spans_;
};

}  // namespace cleanm
