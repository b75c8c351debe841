// Driver-side incremental validator: serves re-executions whose table
// snapshot differs from the cached state only by *minor* (mutation)
// generations without re-running the engine. It is the only consumer of
// the table epochs (storage/delta.h); an execution it does not serve runs
// the engine path, whose scan-cache misses re-partition. A table qualifies
// when the snapshot's generation is past its epoch's start, i.e. it was
// mutated since its last registration.
//
// Eligibility is structural and all-or-nothing per prepared query: every
// active plan root must peel (physical PeelTransforms, the walk BuildSegment
// uses) through Select / Unnest / OuterUnnest transforms only down to an
// exact-key Nest whose input is directly a Scan (the FD / DEDUP /
// user-GROUP-BY shapes, standalone or coalesced). Join-rooted plans (denial
// constraints, CLUSTER BY), Reduce roots, and grouping-monoid Nests (token
// filtering / k-means redistribute rows across groups non-locally) fall
// back to the full engine path.
//
// The validator reuses the engine's pieces: each root's chain compiles with
// physical CompileChain (so Select-on-Unnest pair tests count in
// `comparisons` as on the engine path), the Nest's keyed expansion and
// monoid spec with Executor::CompileNestStage, and the report goes through
// ViolationReport, adding only the retractions and the OnViolationNew tags.
//
// The state caches, per Nest node, every group's first-occurrence sequence
// number, member bag and merged monoid accumulator list, and per operation
// the post-chain outputs of the groups that have any, ordered by sequence
// number. A Nest's state is bootstrapped from its table epoch's base at the
// epoch's start, and belongs to that epoch. An execution advances the
// state by the epoch's delta window between the state's version and the
// snapshot's generation (collected once per table and execution, however
// many Nests read it): removed rows erase one Equals-matching member and
// force a re-fold of the group's accumulators from the member bag
// (sidestepping monoid invertibility — subtractive re-grouping of exactly
// the affected keys); added rows merge fresh units into a DeepCopy of the
// cached accumulator. Touched groups are re-finalized and re-chained; the
// per-operation diff is emitted through ViolationReport::Retract and
// Emit(v, /*is_new=*/true) so (previous − retracted + new) equals a cold
// full re-execution. Emission walks only the groups with outputs, in
// sequence order — the engine's first-occurrence group order, where a group
// emptied and later re-created comes after every older group — so an
// execution costs in proportion to the delta and the violations, not the
// table. Any inconsistency (a window the epoch does not cover, a removed
// row the state never saw, a state from an earlier epoch) resets the
// affected state and reports kIneligible, and the caller runs the ordinary
// engine path.
//
// See DESIGN.md, "Incremental validation & the delta log".
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/algebra.h"
#include "cleaning/plan_builder.h"
#include "cleaning/violation_sink.h"
#include "physical/planner.h"

namespace cleanm {

/// One cached group of an exact-key Nest: its first-occurrence sequence
/// number, the member bag (wrapped {var: record} tuples in insertion order)
/// and the merged accumulator list (AggregateSpec layout: one accumulator
/// Value per aggregation).
struct IncrementalGroup {
  /// Assigned when the key first occurs and never reused: a group that is
  /// emptied and later re-created gets a new, larger number. Ascending
  /// numbers are the engine's first-occurrence group order.
  uint64_t seq = 0;
  std::vector<Value> members;
  /// Never merged into in place once operation outputs were derived from
  /// it: finalized tuples share nested storage with the accumulators, so
  /// updates go through a DeepCopy-merge or a fresh re-fold.
  Value accs;
};

/// Cached state of one Nest node (shared by every operation the optimizer
/// coalesced onto it).
struct IncrementalNestState {
  std::string table;
  /// Start of the table epoch the state belongs to (TableEpoch::start); a
  /// re-registration starts a new epoch.
  uint64_t epoch_start = 0;
  /// Table generation the groups reflect.
  uint64_t version = 0;
  /// The next group's sequence number.
  uint64_t next_seq = 0;
  std::unordered_map<Value, IncrementalGroup, ValueHash, ValueEq> groups;
};

/// Cached per-operation outputs (post-finalize, post-transform-chain,
/// pre-dedup) of the groups that have any, keyed by group sequence number —
/// the baseline the retraction diff runs against, and in key order the
/// emission order (the engine's group-order determinism contract).
struct IncrementalOpState {
  const AlgOp* nest = nullptr;
  uint64_t version = 0;
  std::map<uint64_t, std::vector<Value>> outputs;
};

/// \brief Mutable incremental cache of one PreparedQuery, shared across its
/// executions (and across moves of the PreparedQuery). The mutex serializes
/// concurrent incremental executions of the same query; the engine path
/// never touches it.
struct IncrementalState {
  std::mutex mu;
  std::map<const AlgOp*, IncrementalNestState> nests;
  std::map<const AlgOp*, IncrementalOpState> ops;
};

enum class IncrementalRun {
  kRan,        ///< the execution was fully served; the sink has everything
  kIneligible  ///< run the ordinary engine path (state left consistent)
};

/// Attempts to serve one execution of `plans` (with active roots `roots`,
/// same order) from `state`. On kRan the whole report — per operation
/// OnOpBegin, retractions, the deduplicated current violation set with
/// OnViolationNew tags, OnOpEnd; then OnDirtyEntity — has been delivered
/// through `report`, and the delta_rows_processed / groups_remerged /
/// incremental_executions / comparisons counters charged. On kIneligible
/// nothing was reported. `exec` supplies the catalog snapshot, compile
/// environment, and metrics; no engine (cluster) work is issued.
Result<IncrementalRun> RunIncrementalValidation(IncrementalState& state,
                                                const std::vector<CleaningPlan>& plans,
                                                const std::vector<AlgOpPtr>& roots,
                                                Executor& exec, ViolationReport& report);

}  // namespace cleanm
