// Per-execution overrides for PreparedQuery::Execute.
//
// A CleanDB session freezes its defaults at construction (CleanDBOptions);
// before this existed, changing any knob — the Figure-5 unification
// ablation, the simulated interconnect, the node count — meant building a
// whole new CleanDB and re-partitioning every table. ExecOptions carries
// the per-call deltas instead: every field defaults to "inherit the
// session value", and the cluster is restored to the session configuration
// when the execution returns.
//
// The fields shared with CleanDBOptions are generated from
// CLEANM_SESSION_KNOBS (cleaning/session_knobs.h) so the session default,
// the per-call optional, and the resolution below can never drift apart:
//
//   unify_operations — run the Nest-coalesced (unified) plan forms vs. the
//     standalone per-operation plans (the Figure-5 ablation, per call).
//   shuffle_ns_per_byte / shuffle_ns_per_batch / shuffle_batch_rows —
//     simulated interconnect model (see engine::ClusterOptions).
//   morsel_rows — rows per morsel of the morsel-driven execution below the
//     sink (clamped to ≥ 1). Violation sets are bit-identical at every size
//     (CI-gated).
//   incremental — serve a re-execution whose table snapshot differs from
//     the cached state only by *minor* generations (mutations via
//     AppendRows/UpdateRows/DeleteRows) from the incremental delta path:
//     only delta rows are processed and cached Nest group partials are
//     merged/re-folded per the monoid annotation, with retractions and
//     additions tagged through ViolationSink::OnViolationRetracted /
//     OnViolationNew. false forces a full (cold) execution and also
//     disables the planner's delta-extended scan rebuild. See DESIGN.md,
//     "Incremental validation & the delta log".
//   buffer_pool_bytes — buffer-pool byte budget for this execution.
//     Overriding away from the session value runs the call under an
//     execution-local pool; 0 disables spilling for this call even on an
//     out-of-core session (paged table scans also revert to the resident
//     datasets).
//   spill_dir — directory for this execution's spill file (empty = system
//     temp dir); created lazily on first spill, removed on close on every
//     exit path.
//   page_bytes — page granularity of this execution's spill file.
//   profile — record operator-level tracing spans and attach a
//     QueryProfile to the QueryResult (CI-gated ≤ 2% overhead when off).
//   trace_path — when profiling, additionally write the spans as
//     Chrome/Perfetto trace_event JSON to this path (empty = no file).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "cleaning/session_knobs.h"

namespace cleanm {

struct ExecOptions {
  // Shared session knobs: empty optional = inherit the session default.
#define CLEANM_X(type, name, default_value) std::optional<type> name;
  CLEANM_SESSION_KNOBS(CLEANM_X)
#undef CLEANM_X

  /// Caps execution to the first N virtual nodes (clamped to the cluster
  /// width). Partitionings are cached per active width, so alternating caps
  /// never mixes layouts.
  std::optional<size_t> max_nodes;

  /// Admission-control charge for this execution, in logical bytes —
  /// overrides the default estimate (the summed ByteSize of every table the
  /// plans scan, the same RowByteSize accounting the
  /// peak_bytes_materialized gauge uses). Counted against
  /// CleanDBOptions::max_inflight_bytes; ignored when the session has no
  /// in-flight budget.
  std::optional<uint64_t> admission_bytes;

  /// Wall-clock budget for this execution. When it elapses the execution
  /// unwinds at the next epoch/morsel boundary (or mid network sleep) and
  /// returns kDeadlineExceeded with all workers joined.
  std::optional<uint64_t> deadline_ns;

  /// Poison rows tolerated: a row whose compiled expression or UDF throws
  /// is recorded in QueryResult::quarantined and skipped instead of
  /// aborting. Past the cap the execution fails. Unset/0 = quarantine off
  /// (a throwing row fails the execution with kInternal).
  std::optional<size_t> max_quarantined_rows;

  // Fault-injection / retry overrides (see engine::FaultOptions). Applied
  // to the shared cluster for this call and restored afterwards; per-node
  // blacklist state, once entered, persists for the session.
  std::optional<double> fault_probability;
  std::optional<uint64_t> fault_seed;
  std::optional<size_t> max_task_retries;
  std::optional<uint64_t> retry_backoff_ns;
};

/// The shared knobs of one execution after per-call overrides were applied
/// over the session defaults — the single place ExecutePrepared reads them
/// from (instead of a value_or chain at every use site).
struct ResolvedExecOptions {
#define CLEANM_X(type, name, default_value) type name = default_value;
  CLEANM_SESSION_KNOBS(CLEANM_X)
#undef CLEANM_X
};

/// Resolves the shared knobs: each ExecOptions field that is set overrides
/// the session default. Templated over the session-options type only to
/// avoid an include cycle with cleandb.h; the session type must carry one
/// plain field per CLEANM_SESSION_KNOBS entry (CleanDBOptions does, by
/// construction — its fields are generated from the same list).
template <typename SessionOptions>
ResolvedExecOptions ResolveExecOptions(const ExecOptions& opts,
                                       const SessionOptions& session) {
  ResolvedExecOptions out;
#define CLEANM_X(type, name, default_value) \
  out.name = opts.name.has_value() ? *opts.name : session.name;
  CLEANM_SESSION_KNOBS(CLEANM_X)
#undef CLEANM_X
  return out;
}

}  // namespace cleanm
