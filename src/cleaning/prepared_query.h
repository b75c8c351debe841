// PreparedQuery: the prepare-once / execute-many half of the CleanDB API.
//
// The paper's central claim is that one declarative CleanM query is
// optimized *once* and then serves repeated cleaning passes over evolving
// data. CleanDB::Prepare performs the per-query work exactly once — parse,
// monoid normalization, clause desugaring, algebra rewriting, Nest
// coalescing, schema validation — and the resulting PreparedQuery owns both
// plan forms (standalone and unified). Each Execute then only runs the
// physical plans, reusing the session's partition cache, so re-executions
// skip re-parsing, re-planning, and (on cache hits) re-partitioning.
//
// Binding is lazy: tables are resolved against the session catalog at
// execution time, so a query may be prepared before its tables are
// registered (executing then yields kKeyError), and re-registering a table
// between executions is picked up automatically via the generation bump.
// The one prepare-time constant is k-means center sampling: centers are
// sampled (deterministically) when the source table is registered at
// Prepare time and embedded in the plan, like bound parameters.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cleaning/cleandb.h"
#include "cleaning/exec_options.h"
#include "cleaning/plan_builder.h"
#include "cleaning/violation_sink.h"
#include "language/ast.h"

namespace cleanm {

struct IncrementalState;

/// \brief An optimized, session-bound CleanM query (or programmatic
/// cleaning program). Create via CleanDB::Prepare / PrepareQuery /
/// PrepareDenialConstraint; must not outlive its CleanDB.
class PreparedQuery {
 public:
  PreparedQuery(PreparedQuery&&) = default;
  PreparedQuery& operator=(PreparedQuery&&) = default;

  /// Preparation status: OK for a PreparedQuery obtained from a successful
  /// Prepare (the failing case — positioned ParseError, unknown column,
  /// type error — is carried by the Result<PreparedQuery> itself), non-OK
  /// for an unprepared instance (e.g. moved-from); executing the latter
  /// returns this status.
  const Status& status() const { return status_; }

  /// The parsed query (empty for programmatic preparations).
  const CleanMQuery& query() const { return query_; }

  size_t num_operations() const { return plans_.size(); }
  std::vector<std::string> operation_names() const;

  /// Nest stages the optimizer coalesced in the unified plan forms.
  int nests_coalesced() const { return nests_coalesced_; }

  /// For queries with a SELECT plan (GROUP BY / HAVING / pure projection):
  /// the output field names whose values follow the repair-action contract
  /// (a registered repair function is called in their expression), and the
  /// FROM table those actions repair. Empty when the query repairs nothing.
  const std::vector<std::string>& repair_fields() const { return repair_fields_; }
  const std::string& repair_table() const { return repair_table_; }

  /// EXPLAIN: renders the plan forms this query would execute under `opts`
  /// (only `unify_operations` matters here) — one tree per cleaning
  /// operation, with coalesced Nest stages marked as shared and each
  /// scan's residency in the session cache as it stands now (read-only:
  /// EXPLAIN counts no cache hit or miss). No execution happens; see
  /// QueryResult::profile->ToString() for the EXPLAIN ANALYZE counterpart.
  std::string Explain(const ExecOptions& opts = {}) const;

  /// Runs the prepared plans and materializes a QueryResult (via
  /// QueryResultSink). `opts` fields override the session defaults for
  /// this call only.
  Result<QueryResult> Execute(const ExecOptions& opts = {});

  /// Runs the prepared plans, streaming violations and the dirty-entity
  /// join into `sink`. A non-OK status from the sink aborts the execution
  /// and is returned.
  Status ExecuteInto(ViolationSink& sink, const ExecOptions& opts = {});

  /// Cooperative cancellation: Cancel() from any thread makes in-flight
  /// (and future) Executes of this query unwind at the next epoch/morsel
  /// boundary with kCancelled. Sticky until Reset().
  engine::CancelToken& cancel_token() { return *cancel_token_; }

 private:
  friend class CleanDB;
  PreparedQuery() = default;

  CleanDB* db_ = nullptr;
  /// Set to OK by the Prepare factories; anything else is unprepared.
  Status status_ = Status::Internal("PreparedQuery was not prepared");
  CleanMQuery query_;
  /// Standalone per-operation plans (executed when unify is off).
  std::vector<CleaningPlan> plans_;
  /// Nest-coalesced plan roots, same order (executed when unify is on).
  std::vector<AlgOpPtr> unified_roots_;
  int nests_coalesced_ = 0;
  /// Repair bookkeeping of the SELECT plan (see accessors above).
  std::vector<std::string> repair_fields_;
  std::string repair_table_;
  /// False for one-shots (Execute(text), ExecuteQuery, the programmatic
  /// ops): the plans die with this object, so their Nest outputs must not
  /// persist in (and pollute) the session cache, and they never take the
  /// incremental delta path.
  bool persist_cache_ = true;
  /// Shared so the token survives moves of the PreparedQuery while another
  /// thread holds a reference to cancel through.
  std::shared_ptr<engine::CancelToken> cancel_token_ =
      std::make_shared<engine::CancelToken>();
  /// Cached per-Nest group state of the incremental delta path (see
  /// cleaning/incremental.h). Allocated by PrepareQueryImpl and
  /// CleanDB::SingleOpQuery.
  std::shared_ptr<IncrementalState> incremental_;
};

}  // namespace cleanm
