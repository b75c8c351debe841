// Per-execution options for PreparedQuery::Execute.
//
// A CleanDB session fixes its cluster (node count, simulated interconnect,
// fault injection) and its out-of-core storage (buffer pool, spill
// directory, page size) when it is built: every execution shares them, so
// a different deployment is a different session. What stays per call is
// what changes one execution without touching shared state:
//
//   unify_operations — run the Nest-coalesced (unified) plan forms vs. the
//     standalone per-operation plans (the Figure-5 ablation, per call).
//     Prepare keeps both forms, so switching costs nothing.
//   morsel_rows — rows per morsel of the morsel-driven execution below the
//     sink (clamped to ≥ 1). Violation sets are bit-identical at every size
//     (CI-gated).
//   profile — record operator-level tracing spans and attach a
//     QueryProfile to the QueryResult (CI-gated ≤ 2% overhead when off).
//   trace_path — when profiling, additionally write the spans as
//     Chrome/Perfetto trace_event JSON to this path (empty = no file).
//
// An unset field inherits the session default of the same name in
// CleanDBOptions. deadline_ns and max_quarantined_rows exist only here:
// each is the one switch of its feature, and both act on this execution
// alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace cleanm {

struct ExecOptions {
  std::optional<bool> unify_operations;
  std::optional<size_t> morsel_rows;
  std::optional<bool> profile;
  std::optional<std::string> trace_path;

  /// Wall-clock budget for this execution. When it elapses the execution
  /// unwinds at the next epoch/morsel boundary (or mid network sleep) and
  /// returns kDeadlineExceeded with all workers joined.
  std::optional<uint64_t> deadline_ns;

  /// Poison rows tolerated: a row whose compiled expression or UDF throws
  /// is recorded in QueryResult::quarantined and skipped instead of
  /// aborting. Past the cap the execution fails. Unset/0 = quarantine off
  /// (a throwing row fails the execution with kInternal).
  std::optional<size_t> max_quarantined_rows;
};

}  // namespace cleanm
