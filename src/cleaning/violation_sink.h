// Streaming consumption of cleaning results.
//
// PreparedQuery::ExecuteInto pushes violations and the unified dirty-entity
// join (the Section-4.4 outer join) into a ViolationSink as they are
// produced, instead of materializing a whole QueryResult first. Sinks that
// only count, forward, or filter violations never hold the full violation
// set in memory; the classic materializing behavior survives as
// QueryResultSink, so old callers migrate mechanically:
//
//   auto result = db.Execute(text);                 // before
//   auto pq = db.Prepare(text);                     // after
//   auto result = pq.value().Execute();             //   (materializing)
//   CountingSink sink;                              //   (streaming)
//   pq.value().ExecuteInto(sink);
//
// Any callback returning a non-OK Status aborts the execution and becomes
// ExecuteInto's return value (early exit, e.g. "first 100 violations").
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cleaning/cleandb.h"
#include "common/status.h"
#include "common/timer.h"
#include "storage/value.h"

namespace cleanm {

/// Per-operation completion summary delivered to OnOpEnd.
struct OpSummary {
  std::string op_name;
  size_t violations = 0;
  double seconds = 0;
};

/// \brief Receiver interface for streamed cleaning results.
///
/// Call order per execution: for each operation, OnOpBegin, then zero or
/// more OnViolation (already deduplicated on the operation's entity
/// projection), then OnOpEnd; after all operations, one OnDirtyEntity per
/// entity that violates at least one rule.
class ViolationSink {
 public:
  virtual ~ViolationSink() = default;

  virtual Status OnOpBegin(const std::string& op_name) {
    (void)op_name;
    return Status::OK();
  }

  virtual Status OnViolation(const std::string& op_name, const Value& violation) = 0;

  virtual Status OnOpEnd(const OpSummary& summary) {
    (void)summary;
    return Status::OK();
  }

  /// One entity of the unified report with the names of the operations it
  /// violates (ordered as the operations ran).
  virtual Status OnDirtyEntity(const Value& entity,
                               const std::vector<std::string>& violated_ops) = 0;

  // ---- Retractable results (incremental executions only) ----
  //
  // When an execution is served by the incremental delta path (the table
  // snapshot differs from the cached state only by mutation-minor
  // generations; see DESIGN.md, "Incremental validation & the delta log"),
  // the stream becomes a *diff* against the previous execution: between
  // OnOpBegin and OnOpEnd, violations that disappeared because of the
  // mutations arrive via OnViolationRetracted, violations that appeared
  // arrive via OnViolationNew, and violations that persist still arrive via
  // plain OnViolation — so (previous − retracted + new) equals what a full
  // re-execution would emit. Both have compatible defaults (retractions are
  // dropped, new violations forward to OnViolation), so sinks written
  // before this interface existed compile and behave unchanged.

  /// A violation emitted by a previous execution of the same prepared query
  /// that no longer holds after the table mutations. Default: ignored.
  virtual Status OnViolationRetracted(const std::string& op_name,
                                      const Value& violation) {
    (void)op_name;
    (void)violation;
    return Status::OK();
  }

  /// A violation that did not exist before the table mutations. Default:
  /// forwards to OnViolation, so non-diff-aware sinks see the usual stream.
  virtual Status OnViolationNew(const std::string& op_name, const Value& violation) {
    return OnViolation(op_name, violation);
  }
};

/// \brief Writes one execution's report into a sink, in the call order
/// ViolationSink documents: per operation OnOpBegin, its violations, and
/// OnOpEnd with the operation's OpSummary; then one OnDirtyEntity per
/// entity of the unified report (the Section-4.4 outer join). The engine
/// loop and the incremental validator both report through it.
///
/// Violations are deduplicated on the operation's entity projection:
/// filtering monoids assign one record to several groups (one per shared
/// token / center), so the same violating pair can surface once per shared
/// group, and only its first occurrence reaches the sink. The seen-set
/// lives for the whole operation, so morsel boundaries cannot change which
/// violations are emitted.
class ViolationReport {
 public:
  explicit ViolationReport(ViolationSink& sink) : sink_(sink) {}

  Status BeginOp(const CleaningPlan& op);
  /// Delivers `v` unless its entity projection was already emitted in this
  /// operation (a violation projecting onto no entity var always is);
  /// `is_new` delivers it through OnViolationNew.
  Status Emit(const Value& v, bool is_new = false);
  /// A violation of an earlier execution that no longer holds; not
  /// deduplicated and not part of the dirty-entity report.
  Status Retract(const Value& v) { return sink_.OnViolationRetracted(op_->op_name, v); }
  Status EndOp();
  /// Delivers the dirty-entity report, once all operations have ended.
  Status Finish();

 private:
  ViolationSink& sink_;
  const CleaningPlan* op_ = nullptr;
  Timer op_timer_;
  size_t emitted_ = 0;
  std::unordered_set<uint64_t> seen_;
  std::vector<Value> projection_;  ///< scratch: the entity fields of one violation
  /// entity → the operations it violates, in the order they ran.
  std::unordered_map<Value, std::vector<std::string>, ValueHash, ValueEq> entities_;
};

/// \brief The materializing sink: accumulates everything into a
/// QueryResult, reproducing the pre-streaming API surface.
class QueryResultSink final : public ViolationSink {
 public:
  Status OnOpBegin(const std::string& op_name) override {
    OpResult op;
    op.op_name = op_name;
    result_.ops.push_back(std::move(op));
    return Status::OK();
  }

  Status OnViolation(const std::string& op_name, const Value& violation) override {
    (void)op_name;  // OnOpBegin already opened this operation
    result_.ops.back().violations.push_back(violation);
    return Status::OK();
  }

  Status OnOpEnd(const OpSummary& summary) override {
    result_.ops.back().seconds = summary.seconds;
    return Status::OK();
  }

  Status OnDirtyEntity(const Value& entity,
                       const std::vector<std::string>& violated_ops) override {
    result_.dirty_entities.emplace_back(entity, violated_ops);
    return Status::OK();
  }

  QueryResult& result() { return result_; }

 private:
  QueryResult result_;
};

}  // namespace cleanm
